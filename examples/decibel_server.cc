/// The Decibel network server: one Decibel database behind the TCP wire
/// protocol (src/net/). Sessions run VQuel statements; SUBSCRIBE pushes
/// commit notifications.
///
///   $ ./decibel_server --sync fsync --port 7447 /tmp/db
///   decibel_server listening on 127.0.0.1:7447
///
/// The database path defaults to /tmp/decibel_server; --sync (default
/// flush) is the durability setting (see wal::SyncMode).
///
/// --port 0 (the default) binds an ephemeral port; the "listening on"
/// line is machine-parseable, which is how the CI smoke script finds it.
/// SIGINT/SIGTERM shut down cleanly (drain sessions, flush).

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <string>

#include "core/decibel.h"
#include "net/server.h"

using namespace decibel;

namespace {

std::atomic<bool> g_stop{false};

void OnSignal(int) { g_stop.store(true); }

int Usage(const char* argv0) {
  fprintf(stderr,
          "usage: %s [--host <ip>] [--port <n>] [--threads <n>]\n"
          "          [--sync off|none|flush|fsync] [<path>]\n",
          argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path = "/tmp/decibel_server";
  net::ServerOptions net_opts;
  DecibelOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--host" && value != nullptr) {
      net_opts.host = value;
      ++i;
    } else if (arg == "--port" && value != nullptr) {
      net_opts.port = static_cast<uint16_t>(atoi(value));
      ++i;
    } else if (arg == "--threads" && value != nullptr) {
      net_opts.worker_threads = static_cast<size_t>(atoi(value));
      ++i;
    } else if (arg == "--sync" && value != nullptr) {
      if (!wal::ParseSyncMode(value, &options.sync_mode)) {
        return Usage(argv[0]);
      }
      ++i;
    } else if (!arg.empty() && arg[0] != '-') {
      path = arg;
    } else {
      return Usage(argv[0]);
    }
  }

  // The same benchmark schema the shell uses: pk, c1, c2.
  const Schema schema = Schema::MakeBenchmark(2);
  auto db = Decibel::Open(path, schema, options);
  if (!db.ok()) {
    fprintf(stderr, "open failed: %s\n", db.status().ToString().c_str());
    return 1;
  }

  auto server = net::Server::Start(db->get(), net_opts);
  if (!server.ok()) {
    fprintf(stderr, "server start failed: %s\n",
            server.status().ToString().c_str());
    return 1;
  }
  printf("decibel_server listening on %s:%u\n", net_opts.host.c_str(),
         static_cast<unsigned>((*server)->port()));
  fflush(stdout);

  signal(SIGINT, OnSignal);
  signal(SIGTERM, OnSignal);
  while (!g_stop.load()) usleep(50 * 1000);

  (*server)->Stop();
  return 0;
}
