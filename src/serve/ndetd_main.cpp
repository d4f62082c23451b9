// ndetd -- the analysis-as-a-service daemon.
//
// Speaks the line-delimited JSON protocol (serve/protocol.hpp) over a
// loopback TCP socket (--listen=PORT), or answers one request line from
// stdin (--oneshot); one of the two is required.  Requests are dispatched
// concurrently (--concurrency dispatcher threads) onto cached
// AnalysisSessions bounded by the --cache-bytes LRU budget.  Admission is
// bounded (--queue-depth / --queue-bytes) with priority-laned shedding,
// and TCP clients are capped by --max-connections.
//
//   ndetd --listen=0   # prints "ndetd: listening on 127.0.0.1:PORT"
//   echo '{"id":1,"type":"worst_case","circuit":"bbtas"}' | ndetd --oneshot
//
// Lifecycle (documented in README "Serving" and DESIGN.md "Overload and
// lifecycle"): the FIRST SIGTERM or SIGINT requests a graceful drain --
// admission stops, in-flight work finishes under the --drain-ms budget,
// every accepted line gets its response, and the process exits 0.  A drain
// that times out with work still owed exits 1.  A SECOND signal is the
// hard kill: immediate _exit(130), no drain.
//
// --oneshot serves exactly one request and exits with the CLI exit-code
// convention (124 deadline/cancel, 2 invalid input, 1 internal, 0 ok), so
// scripts can probe the deadline contract without a client.

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>

#include <unistd.h>

#include "serve/server.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"

namespace {

// Lock-free atomics: in a multithreaded daemon a signal may be delivered
// on any thread, so the handler can race another handler instance AND the
// main thread's teardown store of g_server -- plain (even volatile)
// variables would be a data race.  Lock-free atomics are async-signal-safe.
std::atomic<ndet::serve::Server*> g_server{nullptr};
std::atomic<int> g_signals_seen{0};

extern "C" void handle_drain_signal(int) {
  // First signal: graceful drain (one async-signal-safe atomic store).
  // Second: the operator means it -- hard kill, conventional 128+SIGINT.
  // fetch_add makes the count exact even when SIGTERM and SIGINT land
  // concurrently, so the second signal's hard kill can never be missed.
  if (g_signals_seen.fetch_add(1, std::memory_order_acq_rel) > 0) _exit(130);
  ndet::serve::Server* const server =
      g_server.load(std::memory_order_acquire);
  if (server != nullptr) server->request_drain();
}

void install_signal_handlers() {
  struct sigaction action{};
  action.sa_handler = handle_drain_signal;
  // Block both drain signals while a handler runs: on a single thread the
  // handlers then mutually exclude (cross-thread delivery is covered by
  // the atomics above).
  sigemptyset(&action.sa_mask);
  sigaddset(&action.sa_mask, SIGTERM);
  sigaddset(&action.sa_mask, SIGINT);
  action.sa_flags = 0;  // no SA_RESTART: blocked read()/accept() see EINTR
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ndet;
  return run_cli([&]() -> int {
    const CliArgs args(argc, argv,
                       {"cache-bytes", "concurrency", "threads", "listen",
                        "oneshot", "max-line-bytes", "queue-depth",
                        "queue-bytes", "max-connections", "drain-ms"});
    require(args.has("listen") || args.has("oneshot"),
            "ndetd: pass --listen=PORT to serve over TCP or --oneshot to "
            "answer one request line from stdin");
    serve::ServerOptions options;
    options.cache_bytes = static_cast<std::size_t>(
        args.get_u64("cache-bytes", options.cache_bytes));
    options.concurrency = static_cast<unsigned>(
        args.get_u64("concurrency", options.concurrency));
    options.threads =
        static_cast<unsigned>(args.get_u64("threads", options.threads));
    options.max_line_bytes = static_cast<std::size_t>(
        args.get_u64("max-line-bytes", options.max_line_bytes));
    options.max_queue_depth = static_cast<std::size_t>(
        args.get_u64("queue-depth", options.max_queue_depth));
    options.max_queue_bytes = static_cast<std::size_t>(
        args.get_u64("queue-bytes", options.max_queue_bytes));
    options.max_connections = static_cast<unsigned>(
        args.get_u64("max-connections", options.max_connections));
    options.drain_ms = args.get_u64("drain-ms", options.drain_ms);

    serve::Server server(options);
    if (args.has("oneshot")) {
      std::string line;
      require(static_cast<bool>(std::getline(std::cin, line)),
              "ndetd --oneshot: no request line on stdin");
      std::optional<ErrorKind> failure;
      std::cout << server.handle_line(line, &failure) << '\n';
      std::cout.flush();
      return failure ? exit_code_for(*failure) : 0;
    }

    g_server.store(&server, std::memory_order_release);
    install_signal_handlers();

    const int port = static_cast<int>(args.get_u64("listen", 0));
    const bool clean = server.serve_tcp(port, [](int bound) {
      // Advertised on stderr so stdout stays pure protocol.
      std::cerr << "ndetd: listening on 127.0.0.1:" << bound << std::endl;
    });
    // Cleared while the handlers stay installed: a late signal loads null
    // (atomically) and just counts toward the hard kill.  `server` outlives
    // this store, so a handler that loaded the pointer just before it still
    // touches a live object.
    g_server.store(nullptr, std::memory_order_release);
    if (server.drain_requested())
      std::cerr << (clean ? "ndetd: drained cleanly"
                          : "ndetd: drain timed out with work un-responded")
                << std::endl;
    return clean ? 0 : 1;
  });
}
