#ifndef DECIBEL_NET_CLIENT_H_
#define DECIBEL_NET_CLIENT_H_

/// \file client.h
/// A blocking Decibel client: one TCP connection, one statement in
/// flight. Not thread-safe — one Client per thread (decibench's
/// wire_sessions gives each session its own).
///
/// Asynchronous kNotify frames can arrive between a request and its
/// response; Execute() queues them, and PollNotification() /
/// WaitNotification() hand them out in arrival order.

#include <cstdint>
#include <deque>
#include <string>

#include "common/result.h"
#include "common/socket.h"
#include "common/status.h"
#include "net/protocol.h"

namespace decibel {
namespace net {

class Client {
 public:
  /// Connects (blocking) to a decibel_server.
  static Result<Client> Connect(const std::string& host, uint16_t port,
                                uint32_t max_frame_bytes =
                                    kDefaultMaxFrameBytes);

  /// Executes one VQuel statement and blocks for its result. A non-OK
  /// *return* means the connection failed (send/framing); a server-side
  /// statement error comes back as an OK Result whose WireResult carries
  /// the error code + message (wr.ToStatus()).
  Result<WireResult> Execute(const std::string& statement);

  /// SUBSCRIBE <branch> as a convenience: the server's acknowledgement
  /// collapsed to its Status.
  Status Subscribe(const std::string& branch);
  Status Unsubscribe(const std::string& branch);

  /// Round-trip liveness probe.
  Status Ping();

  /// Pops an already-received notification; false if none queued.
  bool PollNotification(Notification* note);

  /// Blocks up to \p timeout_ms for a notification (reads the socket if
  /// none is queued). IOError "recv timed out" when time runs out.
  Result<Notification> WaitNotification(int timeout_ms);

  void Close() { sock_.Close(); }
  bool connected() const { return sock_.valid(); }

 private:
  explicit Client(Socket sock, uint32_t max_frame_bytes)
      : sock_(std::move(sock)), max_frame_bytes_(max_frame_bytes) {}

  /// Reads whole frames until one of type \p want arrives, queueing any
  /// notifications encountered on the way.
  Result<std::string> ReadUntil(MessageType want);

  /// Back to the default 60 s receive safety net after a
  /// WaitNotification override.
  void RestoreTimeout();

  Socket sock_;
  uint32_t max_frame_bytes_;
  std::string rbuf_;
  std::deque<Notification> notes_;
};

}  // namespace net
}  // namespace decibel

#endif  // DECIBEL_NET_CLIENT_H_
