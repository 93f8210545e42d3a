/// A tiny interactive shell for the VQuel-flavoured query language (§2.3):
/// pipe statements in, or run with no stdin redirection for a REPL. With
/// no input at all it executes a short demo script.
///
///   $ ./vquel_shell /tmp/mydb                    # in-process database
///   $ ./vquel_shell --sync fsync /tmp/mydb       # ... surviving power loss
///   $ ./vquel_shell --connect 127.0.0.1:7447     # against decibel_server
///   vquel> INSERT master 1 10 20
///   vquel> BRANCH dev FROM master
///   vquel> SCAN dev WHERE c1 > 5
///   vquel> MERGE master dev THREEWAY LEFT
///
/// Scripted (piped) runs exit nonzero if any statement fails, so CI can
/// assert on them. In client mode the extra directive
///   \wait-notify <ms>
/// blocks for one commit notification (after SUBSCRIBE) and fails the
/// script if none arrives in time.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "common/io.h"
#include "core/decibel.h"
#include "net/client.h"
#include "query/vquel.h"

using namespace decibel;

namespace {

const char* kDemo[] = {
    "INSERT master 1 10 100",
    "INSERT master 2 20 200",
    "COMMIT master",
    "BRANCH dev FROM master",
    "BEGIN dev",
    "UPDATE dev 1 11 100",
    "INSERT dev 3 30 300",
    "SCAN dev",  // staged ops are invisible until COMMIT TX
    "COMMIT TX",
    "SCAN dev",
    "BEGIN dev",
    "DELETE dev 3",
    "ABORT",
    "SCAN dev",  // pk 3 survives the aborted delete
    "SELECT pk, c1 FROM dev WHERE c1 > 10 LIMIT 5",  // pushed-down cursor
    "DIFF dev master",
    "JOIN master dev WHERE c1 > 5",
    "MERGE master dev THREEWAY LEFT",
    "SCAN master",
    "HEADS",
    "BRANCHES",
    "LOG master",
    "INFO",
};

/// In-process interpreter or remote client — one of the two is set.
struct Shell {
  vquel::Interpreter* interp = nullptr;
  net::Client* client = nullptr;

  /// Executes one line; prints the result; returns false on error.
  bool Run(const std::string& line, bool echo) {
    if (line.empty() || line[0] == '#') return true;
    if (echo) printf("vquel> %s\n", line.c_str());
    if (line.rfind("\\wait-notify", 0) == 0) {
      if (client == nullptr) {
        printf("error: \\wait-notify needs --connect\n");
        return false;
      }
      const int ms = atoi(line.c_str() + strlen("\\wait-notify"));
      auto note = client->WaitNotification(ms > 0 ? ms : 5000);
      if (!note.ok()) {
        printf("error: %s\n", note.status().ToString().c_str());
        return false;
      }
      PrintNote(*note);
      return true;
    }
    if (client != nullptr) {
      auto wr = client->Execute(line);
      if (!wr.ok()) {  // connection-level failure
        printf("error: %s\n", wr.status().ToString().c_str());
        return false;
      }
      // Notifications that arrived interleaved with the response.
      net::Notification note;
      while (client->PollNotification(&note)) PrintNote(note);
      if (!wr->ok()) {
        printf("error: %s\n", wr->ToStatus().ToString().c_str());
        return false;
      }
      printf("%s\n", wr->output.c_str());
      return true;
    }
    auto result = interp->Execute(line);
    if (!result.ok()) {
      printf("error: %s\n", result.status().ToString().c_str());
      return false;
    }
    printf("%s\n", result->output.c_str());
    return true;
  }

  bool in_transaction() const {
    return interp != nullptr && interp->in_transaction();
  }

  static void PrintNote(const net::Notification& note) {
    printf("notify: %s on branch %s (%u): commit %llu, %llu records\n",
           note.merge ? "merge" : "commit", note.branch_name.c_str(),
           static_cast<unsigned>(note.branch),
           static_cast<unsigned long long>(note.commit),
           static_cast<unsigned long long>(note.records));
  }
};

int Usage(const char* argv0) {
  fprintf(stderr,
          "usage: %s [--sync off|none|flush|fsync] [<path>]\n"
          "       %s --connect <host:port>\n",
          argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::string connect;
  DecibelOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--connect" && value != nullptr) {
      connect = value;
      ++i;
    } else if (arg == "--sync" && value != nullptr) {
      if (!wal::ParseSyncMode(value, &options.sync_mode)) {
        return Usage(argv[0]);
      }
      ++i;
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage(argv[0]);
    } else {
      path = arg;
    }
  }

  Shell shell;
  std::unique_ptr<Decibel> db;
  std::optional<net::Client> client;
  std::optional<vquel::Interpreter> interp;

  if (!connect.empty()) {
    const size_t colon = connect.rfind(':');
    if (colon == std::string::npos) return Usage(argv[0]);
    const std::string host = connect.substr(0, colon);
    const int port = atoi(connect.c_str() + colon + 1);
    auto connected =
        net::Client::Connect(host, static_cast<uint16_t>(port));
    if (!connected.ok()) {
      fprintf(stderr, "connect failed: %s\n",
              connected.status().ToString().c_str());
      return 1;
    }
    client.emplace(std::move(connected).MoveValueUnsafe());
    shell.client = &*client;
  } else {
    if (path.empty()) {
      path = "/tmp/decibel_vquel";
      RemoveDirRecursive(path).ok();  // scratch database, start fresh
    }
    // pk + two int columns; adjust to taste.
    const Schema schema = Schema::MakeBenchmark(2);
    auto db_result = Decibel::Open(path, schema, options);
    if (!db_result.ok()) {
      fprintf(stderr, "open failed: %s\n",
              db_result.status().ToString().c_str());
      return 1;
    }
    db = std::move(db_result).MoveValueUnsafe();
    interp.emplace(db.get());
    shell.interp = &*interp;
  }

  if (isatty(STDIN_FILENO)) {
    printf("Decibel VQuel shell — schema: pk, c1, c2. Ctrl-D to exit.\n");
    std::string line;
    while (true) {
      fputs(shell.in_transaction() ? "vquel(tx)> " : "vquel> ", stdout);
      fflush(stdout);
      if (!std::getline(std::cin, line)) break;
      shell.Run(line, /*echo=*/false);
    }
    printf("\n");
    return 0;
  }

  // Piped input, or the built-in demo when stdin is empty. Scripts exit
  // nonzero when any statement fails.
  std::string line;
  bool any = false;
  int failures = 0;
  while (std::getline(std::cin, line)) {
    any = true;
    if (!shell.Run(line, /*echo=*/true)) ++failures;
  }
  if (!any) {
    for (const char* statement : kDemo) {
      if (!shell.Run(statement, /*echo=*/true)) ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}
