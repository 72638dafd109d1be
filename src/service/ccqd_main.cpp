// ccqd — the clique measurement daemon (DESIGN.md §15).
//
// Serves the length-prefixed JSON protocol of service/protocol.hpp on a
// Unix-domain socket (default) or loopback TCP port, executing submitted
// manifest cells on warm engines. SIGTERM / SIGINT trigger a graceful
// drain: queued jobs finish, new submits are rejected with "draining",
// then the process exits 0.

#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>

#include "service/server.hpp"
#include "util/env.hpp"

namespace {

int usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s [--socket=PATH] [--tcp=PORT] [--executors=N] [--queue=N]\n"
      "          [--cache=N]\n"
      "\n"
      "  --socket=PATH   Unix-domain socket to listen on "
      "(default /tmp/ccqd.sock)\n"
      "  --tcp=PORT      listen on 127.0.0.1:PORT instead of a Unix socket\n"
      "  --executors=N   executor threads running jobs (default 2)\n"
      "  --queue=N       bounded job-queue depth; beyond it submits are\n"
      "                  rejected with queue_full (default 16)\n"
      "  --cache=N       warm EngineSessions kept idle (default 8; 0\n"
      "                  disables the engine cache)\n",
      prog);
  return 2;
}

// Strict flag parsing: any malformed value exits 2 with usage, never a
// silently-different configuration (same contract as the bench mains).
bool parse_flag_uint(const char* arg, const char* flag, std::uint64_t lo,
                     std::uint64_t hi, std::uint64_t* out, bool* bad) {
  const std::size_t len = std::strlen(flag);
  if (std::strncmp(arg, flag, len) != 0) return false;
  try {
    *out = ccq::parse_uint_strict(arg + len, lo, hi,
                                  std::string("flag ") + flag);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ccqd: %s\n", e.what());
    *bad = true;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ccq::service::Server::Options opts;
  opts.unix_path = "/tmp/ccqd.sock";

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::uint64_t v = 0;
    bool bad = false;
    if (std::strncmp(arg, "--socket=", 9) == 0) {
      opts.unix_path = arg + 9;
      opts.tcp_port = 0;
    } else if (parse_flag_uint(arg, "--tcp=", 1, 65535, &v, &bad)) {
      opts.tcp_port = static_cast<std::uint16_t>(v);
    } else if (parse_flag_uint(arg, "--executors=", 1, 64, &v, &bad)) {
      opts.executors = static_cast<std::size_t>(v);
    } else if (parse_flag_uint(arg, "--queue=", 1, 4096, &v, &bad)) {
      opts.queue_capacity = static_cast<std::size_t>(v);
    } else if (parse_flag_uint(arg, "--cache=", 0, 256, &v, &bad)) {
      opts.cache_sessions = static_cast<std::size_t>(v);
    } else {
      std::fprintf(stderr, "ccqd: unknown flag '%s'\n", arg);
      return usage(argv[0]);
    }
    if (bad) return usage(argv[0]);
  }

  // Block the drain signals in every thread (the server's threads inherit
  // this mask), then wait for them synchronously below — no async-signal
  // handler has to touch the server.
  sigset_t drain_signals;
  sigemptyset(&drain_signals);
  sigaddset(&drain_signals, SIGTERM);
  sigaddset(&drain_signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &drain_signals, nullptr);
  std::signal(SIGPIPE, SIG_IGN);

  ccq::service::Server server(opts);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ccqd: %s\n", e.what());
    return 1;
  }
  if (opts.tcp_port != 0) {
    std::fprintf(stderr, "ccqd: listening on 127.0.0.1:%u\n",
                 static_cast<unsigned>(opts.tcp_port));
  } else {
    std::fprintf(stderr, "ccqd: listening on %s\n", opts.unix_path.c_str());
  }

  // Wait for SIGTERM/SIGINT, or for a protocol-initiated shutdown request
  // to finish draining the server remotely.
  for (;;) {
    timespec tick{0, 200 * 1000 * 1000};
    const int sig = sigtimedwait(&drain_signals, nullptr, &tick);
    if (sig == SIGTERM || sig == SIGINT) {
      std::fprintf(stderr, "ccqd: %s received, draining\n",
                   sig == SIGTERM ? "SIGTERM" : "SIGINT");
      server.drain();
      break;
    }
    if (!server.running()) break;  // drained via a shutdown request
  }
  std::fprintf(stderr, "ccqd: drained, exiting\n");
  return 0;
}
