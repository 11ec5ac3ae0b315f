/// \file
/// \brief The experiment daemon: a Unix-socket server that runs submitted
/// scenarios on `--jobs` long-lived worker threads with a warm trace cache
/// (docs/SERVING.md).
///
/// Two kinds of thread:
///   * the I/O loop (serve()) — a single poll(2) loop over the listener,
///     the self-pipe and every client connection. It parses requests at
///     the trust boundary, answers everything that does not need a
///     finished run immediately, and parks `result wait:true` requests
///     until the run's completion wakes it through the self-pipe.
///   * the workers (`--jobs` of them) — each blocks on the registry,
///     claims the oldest queued run as soon as it is free and executes it
///     with one engine thread, so the budget is spent across runs, not
///     within one, and no worker idles while a run is queued.
///
/// Shutdown (`shutdown` op, SIGTERM or SIGINT) is a *drain*: the server
/// stops accepting submissions, lets queued and running work finish,
/// answers the waiters, then closes the socket, removes the socket file
/// and returns 0 from serve().
///
/// Served manifests carry the deterministic command line
/// `mcsim serve: <label>` instead of an argv, so the manifest's
/// exp::manifest_observation() is byte-identical to an offline
/// `mcsim run` of the same spec — the replayability contract the
/// serve-smoke CI job diffs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "serve/registry.hpp"
#include "serve/trace_cache.hpp"
#include "util/socket.hpp"

namespace mcsim::serve {

struct ServerConfig {
  /// Rendezvous path for the Unix-domain socket (created on start,
  /// unlinked on clean shutdown).
  std::string socket_path;
  /// Worker threads — concurrent served runs (0 = all cores).
  unsigned jobs = 1;
  /// Trace-cache byte budget (0 disables retention).
  std::uint64_t cache_bytes = kDefaultCacheBytes;
  /// Directory submitted trace paths must stay under (empty = reject
  /// every trace-replay submission).
  std::string sandbox_root;
  /// Route SIGTERM/SIGINT into the drain path. Off in tests that share
  /// the process-wide handler (they call request_shutdown() instead).
  bool handle_signals = true;

  static constexpr std::uint64_t kDefaultCacheBytes = 256ull << 20;
};

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, start the workers and run the I/O loop until a drain
  /// completes. Returns the process exit code (0 on clean shutdown).
  /// Throws std::system_error when the socket cannot be bound.
  int serve();

  /// Begin the drain from another thread (what a `shutdown` request or a
  /// termination signal does internally; tests use it directly).
  void request_shutdown();

  [[nodiscard]] const std::string& socket_path() const {
    return config_.socket_path;
  }

 private:
  struct Impl;

  ServerConfig config_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mcsim::serve
