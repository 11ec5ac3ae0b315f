#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <cerrno>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "exp/manifest.hpp"
#include "exp/runner.hpp"
#include "obs/json_reader.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "util/logging.hpp"

namespace mcsim::serve {

namespace {

/// Per-chunk timeout for response writes. Clients are local; a peer that
/// stays unwritable this long is gone and gets disconnected.
constexpr int kWriteTimeoutMs = 30'000;
/// Trust-boundary framing guard: a request line larger than this is a
/// protocol violation, answered and disconnected.
constexpr std::size_t kMaxRequestBytes = 4u << 20;

/// One client connection and its conversation state.
struct Connection {
  UnixStream stream;
  std::string inbuf;
  /// Non-zero: a `result wait:true` is parked on this connection; no
  /// further request is processed until the run turns terminal and the
  /// response goes out (responses stay in request order).
  std::uint64_t waiting_id = 0;
  bool closed = false;
};

std::string uint_field(const char* key, std::uint64_t value) {
  return '"' + std::string(key) + "\":" + std::to_string(value);
}

std::string state_field(RunState state) {
  return std::string("\"state\":") + json_string(run_state_name(state));
}

}  // namespace

struct Server::Impl {
  explicit Impl(const ServerConfig& server_config)
      : config(server_config),
        jobs(config.jobs == 0 ? exp::Runner::default_jobs() : config.jobs),
        cache(server_config.cache_bytes),
        registry([this] { pipe.notify(); }) {}

  ServerConfig config;
  unsigned jobs;  ///< worker threads, each running one served run at a time
  TraceCache cache;
  SelfPipe pipe;
  RunRegistry registry;
  UnixListener listener;
  std::vector<std::unique_ptr<Connection>> connections;
  std::atomic<bool> draining{false};
  std::vector<std::thread> workers;

  // -- worker side (`workers`, one claim loop each) -------------------------

  /// Each worker takes the oldest queued run as soon as it is free, so no
  /// run waits behind another's batch while a worker idles.
  void start_workers() {
    for (unsigned i = 0; i < jobs; ++i) {
      workers.emplace_back([this] {
        while (auto run = registry.claim_next()) execute_run(run->first, run->second);
      });
    }
  }

  /// Let the workers finish what is queued, then join them.
  void stop_workers() {
    registry.request_stop();
    for (std::thread& worker : workers) worker.join();
    workers.clear();
  }

  void execute_run(std::uint64_t id, const exp::ScenarioSpec& spec) {
    try {
      const SimulationConfig sim_config =
          exp::to_simulation_config(spec, spec.utilization, cache.resolver());
      MulticlusterSimulation simulation(sim_config);
      obs::MetricsRegistry metrics;
      simulation.set_metrics(&metrics);
      const SimulationResult result = simulation.run();

      std::ostringstream out;
      ManifestInfo info;
      // Deterministic provenance: a served run has no argv, and a wall
      // clock in the command line would break the served-vs-offline
      // observation diff. The label is a pure function of the spec.
      info.command_line = "mcsim serve: " + spec.label();
      info.scenario = &spec;
      write_run_manifest(out, sim_config, result, &metrics, info);
      // Compacted once, here on the worker: the registry keeps every
      // manifest for the daemon's lifetime, deflated, and `result` splices
      // it back inflated. compact_json keeps every number spelling, so a
      // client recovers the pretty writer's document bit for bit.
      registry.complete(id, compact_json(obs::parse_json(out.str())));
    } catch (const std::exception& error) {
      registry.fail(id, error.what());
    }
  }

  // -- I/O side (single-threaded poll loop) --------------------------------

  void respond(Connection& conn, const std::string& body) {
    try {
      conn.stream.write_all(body + "\n", kWriteTimeoutMs);
    } catch (const std::exception&) {
      conn.closed = true;  // peer gone; the run (if any) finishes regardless
    }
  }

  std::string handle_submit(Request&& request) {
    if (draining.load(std::memory_order_relaxed)) {
      return error_response(kErrShuttingDown,
                            "server is draining; submissions are closed");
    }
    exp::ScenarioSpec spec = std::move(request.spec);
    // No nested fan-out inside a served run: the --jobs budget fans out
    // across runs (one worker per run), exactly like a sweep under `mcsim run`.
    spec.parallelism = 1;
    try {
      exp::validate(spec);
    } catch (const std::exception& error) {
      return error_response(kErrInvalidScenario, error.what());
    }
    const std::uint64_t id = registry.submit(std::move(spec), std::move(request.name));
    return ok_response(uint_field("id", id) + ",\"state\":\"queued\"");
  }

  std::string handle_status(const Request& request) {
    const auto snapshot = registry.get(request.id);
    if (!snapshot) {
      return error_response(kErrUnknownRun,
                            "no run with id " + std::to_string(request.id));
    }
    std::string body = uint_field("id", snapshot->id) + ",\"name\":" +
                       json_string(snapshot->name) + ',' + state_field(snapshot->state);
    if (snapshot->state == RunState::kFailed) {
      body += ",\"error\":" + json_string(snapshot->error);
    }
    return ok_response(body);
  }

  /// The terminal-state response for `result` (the caller has checked the
  /// run is terminal).
  std::string result_response(const RunSnapshot& snapshot) {
    switch (snapshot.state) {
      case RunState::kDone:
        return ok_response(uint_field("id", snapshot.id) +
                           ",\"state\":\"done\",\"manifest\":" +
                           snapshot.manifest_json());
      case RunState::kFailed:
        return error_response(kErrRunFailed, "run " + std::to_string(snapshot.id) +
                                                 " failed: " + snapshot.error);
      case RunState::kCancelled:
        return error_response(kErrRunCancelled,
                              "run " + std::to_string(snapshot.id) +
                                  " was cancelled before it started");
      case RunState::kQueued:
      case RunState::kRunning:
        break;
    }
    return error_response(kErrBadRequest, "run is not terminal");  // unreachable
  }

  /// Handle `result`: answer now when possible, otherwise park the
  /// connection (wait:true) until the run turns terminal. Returns false
  /// when the request was parked.
  bool handle_result(Connection& conn, const Request& request) {
    const auto snapshot = registry.get(request.id);
    if (!snapshot) {
      respond(conn, error_response(kErrUnknownRun,
                                   "no run with id " + std::to_string(request.id)));
      return true;
    }
    if (is_terminal(snapshot->state)) {
      respond(conn, result_response(*snapshot));
      return true;
    }
    if (!request.wait) {
      respond(conn, ok_response(uint_field("id", snapshot->id) + ',' +
                                state_field(snapshot->state)));
      return true;
    }
    conn.waiting_id = request.id;
    return false;
  }

  std::string handle_cancel(const Request& request) {
    const auto snapshot = registry.get(request.id);
    if (!snapshot) {
      return error_response(kErrUnknownRun,
                            "no run with id " + std::to_string(request.id));
    }
    const RunState state = registry.cancel(request.id);
    if (state == RunState::kCancelled) {
      return ok_response(uint_field("id", request.id) +
                         ",\"state\":\"cancelled\"");
    }
    return error_response(kErrNotCancellable,
                          "run " + std::to_string(request.id) + " is already " +
                              run_state_name(state));
  }

  std::string handle_stats() {
    const TraceCacheStats cache_stats = cache.stats();
    const RegistryStats run_stats = registry.stats();
    std::string body = "\"cache\":{" + uint_field("hits", cache_stats.hits) + ',' +
                       uint_field("misses", cache_stats.misses) + ',' +
                       uint_field("reloads", cache_stats.reloads) + ',' +
                       uint_field("evictions", cache_stats.evictions) + ',' +
                       uint_field("entries", cache_stats.entries) + ',' +
                       uint_field("resident_bytes", cache_stats.resident_bytes) + ',' +
                       uint_field("budget_bytes", cache_stats.budget_bytes) + '}';
    body += ",\"runs\":{" + uint_field("submitted", run_stats.submitted) + ',' +
            uint_field("queued", run_stats.queued) + ',' +
            uint_field("running", run_stats.running) + ',' +
            uint_field("done", run_stats.done) + ',' +
            uint_field("failed", run_stats.failed) + ',' +
            uint_field("cancelled", run_stats.cancelled) + ',' +
            uint_field("manifest_bytes", run_stats.manifest_bytes) + '}';
    body += ',' + uint_field("jobs", jobs);
    body += ",\"draining\":" +
            std::string(draining.load(std::memory_order_relaxed) ? "true" : "false");
    return ok_response(body);
  }

  /// Dispatch one parsed line. Returns false when the connection parked a
  /// wait and line processing must pause.
  bool handle_line(Connection& conn, const std::string& line) {
    Request request;
    try {
      request = parse_request(line, config.sandbox_root);
    } catch (const ProtocolError& error) {
      respond(conn, error_response(error.code(), error.what()));
      return true;
    }
    switch (request.op) {
      case Op::kSubmit:
        respond(conn, handle_submit(std::move(request)));
        return true;
      case Op::kStatus:
        respond(conn, handle_status(request));
        return true;
      case Op::kResult:
        return handle_result(conn, request);
      case Op::kCancel:
        respond(conn, handle_cancel(request));
        return true;
      case Op::kStats:
        respond(conn, handle_stats());
        return true;
      case Op::kShutdown: {
        const RegistryStats run_stats = registry.stats();
        respond(conn, ok_response(
                          uint_field("draining", run_stats.queued + run_stats.running)));
        begin_drain();
        return true;
      }
    }
    return true;
  }

  /// Consume every complete line buffered on `conn` (stopping at a parked
  /// wait).
  void process_buffer(Connection& conn) {
    while (!conn.closed && conn.waiting_id == 0) {
      const std::size_t pos = conn.inbuf.find('\n');
      if (pos == std::string::npos) {
        if (conn.inbuf.size() > kMaxRequestBytes) {
          respond(conn, error_response(kErrBadRequest,
                                       "request line exceeds " +
                                           std::to_string(kMaxRequestBytes) +
                                           " bytes"));
          conn.closed = true;
        }
        return;
      }
      std::string line = conn.inbuf.substr(0, pos);
      conn.inbuf.erase(0, pos + 1);
      if (!handle_line(conn, line)) return;
    }
  }

  /// Nonblocking read of whatever the peer has sent; then process it.
  void read_connection(Connection& conn) {
    char chunk[4096];
    for (;;) {
      const ssize_t got = ::recv(conn.stream.fd(), chunk, sizeof(chunk), 0);
      if (got > 0) {
        conn.inbuf.append(chunk, static_cast<std::size_t>(got));
        if (conn.inbuf.size() > kMaxRequestBytes + sizeof(chunk)) break;
        continue;
      }
      if (got == 0) {
        conn.closed = true;  // EOF; a parked wait dies with the peer
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      conn.closed = true;
      break;
    }
    if (!conn.closed) process_buffer(conn);
  }

  /// Answer every parked `result wait:true` whose run has turned terminal,
  /// then resume that connection's buffered requests.
  void answer_waiters() {
    for (auto& conn : connections) {
      if (conn->closed || conn->waiting_id == 0) continue;
      const auto snapshot = registry.get(conn->waiting_id);
      if (!snapshot || !is_terminal(snapshot->state)) continue;
      conn->waiting_id = 0;
      respond(*conn, result_response(*snapshot));
      process_buffer(*conn);
    }
  }

  void begin_drain() {
    if (!draining.exchange(true, std::memory_order_relaxed)) {
      MCSIM_LOG(kInfo) << "mcsim serve: draining (submissions closed)";
    }
  }

  void accept_pending() {
    for (;;) {
      UnixStream stream = listener.accept();
      if (!stream.valid()) return;
      auto conn = std::make_unique<Connection>();
      conn->stream = std::move(stream);
      connections.push_back(std::move(conn));
    }
  }

  int run_loop() {
    for (;;) {
      const bool drain_now = draining.load(std::memory_order_relaxed);
      if (drain_now && registry.idle()) {
        answer_waiters();  // every run is terminal; flush the last waiters
        return 0;
      }

      std::vector<pollfd> fds;
      fds.push_back({pipe.read_fd(), POLLIN, 0});
      if (!drain_now) fds.push_back({listener.fd(), POLLIN, 0});
      const std::size_t first_conn = fds.size();
      for (const auto& conn : connections) {
        fds.push_back({conn->stream.fd(), POLLIN, 0});
      }

      // 500 ms safety-net timeout: every state change also arrives through
      // the self-pipe, so this only bounds the cost of a lost wakeup.
      const int ready = ::poll(fds.data(), fds.size(), 500);
      if (ready < 0) {
        if (errno == EINTR) continue;
        throw std::system_error(errno, std::generic_category(), "poll");
      }

      if ((fds[0].revents & POLLIN) != 0) {
        pipe.drain();
        if (consume_shutdown_signal()) begin_drain();
      }
      if (!drain_now && (fds[1].revents & POLLIN) != 0) accept_pending();
      for (std::size_t i = first_conn; i < fds.size(); ++i) {
        Connection& conn = *connections[i - first_conn];
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
          read_connection(conn);
        }
      }
      answer_waiters();
      std::erase_if(connections,
                    [](const std::unique_ptr<Connection>& conn) { return conn->closed; });
    }
  }
};

// Impl is built here, not in serve(): request_shutdown() may run on another
// thread, and constructing the state before any thread exists keeps the
// impl_ pointer race-free without a lock.
Server::Server(ServerConfig config)
    : config_(std::move(config)), impl_(std::make_unique<Impl>(config_)) {}

Server::~Server() = default;

int Server::serve() {
  impl_->listener = UnixListener::bind(config_.socket_path);
  if (config_.handle_signals) install_shutdown_signals(&impl_->pipe);

  // Close the listener (which unlinks the socket file) before returning —
  // the drain contract is that a 0 from serve() means the rendezvous path
  // is gone. Impl itself stays alive for request_shutdown() callers. The
  // workers are joined on every path, including a failed start.
  int code = 0;
  try {
    impl_->start_workers();
    // The readiness line scripts wait for (flushed before the first accept).
    std::cout << "mcsim serve: listening on " << config_.socket_path << std::endl;
    code = impl_->run_loop();
  } catch (...) {
    impl_->stop_workers();
    impl_->listener.close();
    if (config_.handle_signals) install_shutdown_signals(nullptr);
    throw;
  }
  impl_->stop_workers();
  impl_->listener.close();
  if (config_.handle_signals) install_shutdown_signals(nullptr);
  return code;
}

void Server::request_shutdown() {
  if (!impl_) return;
  impl_->draining.store(true, std::memory_order_relaxed);
  impl_->pipe.notify();
}

}  // namespace mcsim::serve
