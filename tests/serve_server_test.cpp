// End-to-end tests of the experiment daemon: an in-process Server driven
// through ServeClient over a real Unix socket. The load-bearing contract
// is replayability — a served manifest's observation (config + result +
// scenario) must be byte-identical to an offline run of the same spec,
// warm cache or cold, one client or many. The drain lifecycle, the
// structured-error surface and the registry state machine are pinned here
// too.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "exp/golden.hpp"
#include "exp/manifest.hpp"
#include "exp/scenario_spec.hpp"
#include "obs/json_reader.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "util/socket.hpp"

#ifndef MCSIM_DATA_DIR
#define MCSIM_DATA_DIR "data"
#endif

namespace mcsim::serve {
namespace {

namespace fs = std::filesystem;

/// A per-test scratch directory (short name — sun_path is 108 bytes).
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("mcsim_srv_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A small synthetic GS point — fast, deterministic, no trace file.
exp::ScenarioSpec smoke_spec() {
  exp::ScenarioSpec spec;
  spec.mode = exp::RunMode::kPoint;
  spec.utilization = 0.4;
  spec.sim_jobs = 1500;
  spec.seed = 1;
  return spec;
}

/// The spec as the compact JSON object a submit request carries.
std::string spec_json(const exp::ScenarioSpec& spec) {
  std::ostringstream out;
  exp::write_scenario_file(out, spec);
  return compact_json(obs::parse_json(out.str()));
}

/// What `mcsim run` would produce offline for this spec, with the served
/// provenance ("mcsim serve: <label>") so the full manifests are
/// comparable, not just their observations.
std::string offline_manifest(const exp::ScenarioSpec& spec) {
  const SimulationConfig config = exp::to_simulation_config(spec);
  MulticlusterSimulation simulation(config);
  obs::MetricsRegistry metrics;
  simulation.set_metrics(&metrics);
  const SimulationResult result = simulation.run();
  std::ostringstream out;
  ManifestInfo info;
  info.command_line = "mcsim serve: " + spec.label();
  info.scenario = &spec;
  write_run_manifest(out, config, result, &metrics, info);
  return out.str();
}

std::string observation_of(const std::string& manifest_json) {
  return exp::manifest_observation(obs::parse_json(manifest_json));
}

std::string observation_of(const obs::JsonValue& manifest) {
  return exp::manifest_observation(manifest);
}

/// Connect with retry: the server thread needs a moment to bind (longer
/// under sanitizers).
std::unique_ptr<ServeClient> connect_to(const std::string& socket_path) {
  for (int attempt = 0; attempt < 1500; ++attempt) {
    try {
      return std::make_unique<ServeClient>(socket_path);
    } catch (const std::system_error&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  throw std::runtime_error("server never came up at " + socket_path);
}

/// Runs a Server on its own thread and reports serve()'s exit code.
class ServerHarness {
 public:
  explicit ServerHarness(ServerConfig config) : server_(std::move(config)) {
    thread_ = std::thread([this] {
      try {
        exit_code_ = server_.serve();
      } catch (const std::exception&) {
        exit_code_ = -1;
      }
    });
  }

  ~ServerHarness() {
    if (!joined_) {
      server_.request_shutdown();
      thread_.join();
    }
  }

  /// Wait for serve() to return and hand back its exit code.
  int join() {
    thread_.join();
    joined_ = true;
    return exit_code_;
  }

  Server& server() { return server_; }
  std::unique_ptr<ServeClient> client() {
    return connect_to(server_.socket_path());
  }

 private:
  Server server_;
  std::thread thread_;
  int exit_code_ = -2;
  bool joined_ = false;
};

ServerConfig make_config(const fs::path& dir, unsigned jobs = 1) {
  ServerConfig config;
  config.socket_path = (dir / "mcsim.sock").string();
  config.jobs = jobs;
  config.sandbox_root = dir.string();
  config.handle_signals = false;
  return config;
}

std::string record_line(std::uint64_t id, double submit, double run,
                        std::uint32_t procs) {
  std::ostringstream line;
  line << id << ' ' << submit << " 0 " << run << ' ' << procs << " -1 -1 "
       << procs << " -1 -1 1 0 -1 -1 -1 -1 -1 -1\n";
  return line.str();
}

void write_log(const fs::path& path, std::uint32_t jobs) {
  std::ofstream out(path);
  out << "; MaxNodes: 128\n";
  for (std::uint32_t i = 1; i <= jobs; ++i) {
    out << record_line(i, 60.0 * i, 300.0, 4);
  }
}

// -- the replayability contract ---------------------------------------------

TEST(ServeServer, ServedManifestMatchesOfflineRunBitExactly) {
  const fs::path dir = scratch_dir("bitexact");
  ServerHarness harness(make_config(dir));
  auto client = harness.client();

  const exp::ScenarioSpec spec = smoke_spec();
  const std::uint64_t id = client->submit(spec_json(spec), "probe");
  const obs::JsonValue response = client->await_result(id);
  EXPECT_EQ(response.at("state").as_string(), "done");

  EXPECT_EQ(observation_of(response.at("manifest")),
            observation_of(offline_manifest(spec)))
      << "a served run must be replayable bit-exactly offline";

  // status reflects the terminal state and echoes the client's label.
  const obs::JsonValue status =
      client->request("{\"op\":\"status\",\"id\":" + std::to_string(id) + "}");
  EXPECT_EQ(status.at("state").as_string(), "done");
  EXPECT_EQ(status.at("name").as_string(), "probe");

  client->shutdown();
  EXPECT_EQ(harness.join(), 0);
  EXPECT_FALSE(fs::exists(dir / "mcsim.sock"))
      << "a clean drain removes the socket file";
}

TEST(ServeServer, ConcurrentSubmissionsAreByteIdentical) {
  const fs::path dir = scratch_dir("concurrent");
  ServerHarness harness(make_config(dir, /*jobs=*/2));
  const exp::ScenarioSpec spec = smoke_spec();
  const std::string spec_line = spec_json(spec);

  constexpr int kClients = 4;
  std::vector<std::string> observations(kClients);
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      try {
        auto client = connect_to(harness.server().socket_path());
        const std::uint64_t id = client->submit(spec_line);
        observations[i] = observation_of(client->await_result(id).at("manifest"));
      } catch (const std::exception& error) {
        errors[i] = error.what();
      }
    });
  }
  for (auto& thread : clients) thread.join();

  const std::string reference = observation_of(offline_manifest(spec));
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(errors[i], "") << "client " << i;
    EXPECT_EQ(observations[i], reference)
        << "client " << i << " diverged from the cold offline run";
  }
}

TEST(ServeServer, WarmTraceRunsMatchTheColdFileResolver) {
  const fs::path dir = scratch_dir("trace");
  write_log(dir / "log.swf", 30);
  ServerHarness harness(make_config(dir));
  auto client = harness.client();

  exp::ScenarioSpec spec = smoke_spec();
  spec.trace_path = "log.swf";  // relative: the server joins it to the root
  spec.sim_jobs = 30;

  const std::uint64_t first = client->submit(spec_json(spec));
  const std::uint64_t second = client->submit(spec_json(spec));
  const std::string obs_first =
      observation_of(client->await_result(first).at("manifest"));
  const std::string obs_second =
      observation_of(client->await_result(second).at("manifest"));

  // The offline reference replays through the default file-backed resolver,
  // with the path spelled as the server's sandbox join produced it.
  exp::ScenarioSpec offline = spec;
  offline.trace_path = sandboxed_path(dir.string(), "log.swf");
  const std::string reference = observation_of(offline_manifest(offline));
  EXPECT_EQ(obs_first, reference) << "cold cache";
  EXPECT_EQ(obs_second, reference) << "warm cache";

  const obs::JsonValue stats = client->stats();
  const obs::JsonValue* cache = stats.find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_GE(cache->at("hits").as_uint(), 1u)
      << "the second run must be served from the warm cache";
  EXPECT_EQ(cache->at("misses").as_uint(), 1u);
}

TEST(ServeServer, ServedReplayHonoursTheLookaheadWindow) {
  // The archive sample is scrambled beyond a one-record window. A served
  // run must meet the same window as `mcsim run` and fail with its message,
  // cold cache or warm.
  const fs::path dir = scratch_dir("lookahead");
  fs::copy_file(std::string(MCSIM_DATA_DIR) + "/archive_samples/sdsc_sp2_style.swf",
                dir / "sdsc_sp2_style.swf");
  ServerHarness harness(make_config(dir));
  auto client = harness.client();

  exp::ScenarioSpec spec = smoke_spec();
  spec.trace_path = "sdsc_sp2_style.swf";
  spec.trace_lookahead = 1;

  exp::ScenarioSpec offline = spec;
  offline.trace_path = sandboxed_path(dir.string(), spec.trace_path);
  std::string offline_error;
  try {
    (void)offline_manifest(offline);
  } catch (const std::invalid_argument& error) {
    offline_error = error.what();
  }
  ASSERT_NE(offline_error.find("out of order beyond the lookahead window"),
            std::string::npos)
      << offline_error;

  for (const char* cache : {"cold", "warm"}) {
    SCOPED_TRACE(cache);
    const std::uint64_t id = client->submit(spec_json(spec));
    try {
      client->await_result(id);
      FAIL() << "a served run ignored the lookahead window";
    } catch (const ServeError& error) {
      EXPECT_EQ(error.code(), kErrRunFailed);
    }
    const obs::JsonValue status =
        client->request("{\"op\":\"status\",\"id\":" + std::to_string(id) + "}");
    EXPECT_EQ(status.at("state").as_string(), "failed");
    EXPECT_EQ(status.at("error").as_string(), offline_error);
  }
}

// -- the trust boundary over the wire ---------------------------------------

TEST(ServeServer, MalformedLinesGetStructuredErrorsAndTheConnectionSurvives) {
  const fs::path dir = scratch_dir("badjson");
  ServerHarness harness(make_config(dir));
  auto client = harness.client();

  try {
    client->request("{this is not json");
    FAIL() << "expected ServeError";
  } catch (const ServeError& error) {
    EXPECT_EQ(error.code(), kErrBadJson);
  }
  // The connection is still usable after a structured error.
  EXPECT_TRUE(client->stats().at("ok").as_bool());
}

TEST(ServeServer, SaturationPipelineOverridesAreInvalidScenarios) {
  const fs::path dir = scratch_dir("satbf");
  ServerHarness harness(make_config(dir));
  auto client = harness.client();

  try {
    client->request(
        "{\"op\":\"submit\",\"spec\":{\"policy\":{\"kind\":\"GS\","
        "\"backfill\":\"conservative\"},\"run\":{\"mode\":\"saturation\"}}}");
    FAIL() << "expected ServeError";
  } catch (const ServeError& error) {
    // The pipeline is valid in saturation mode; the daemon serves point
    // mode only.
    EXPECT_EQ(error.code(), kErrInvalidScenario);
    EXPECT_NE(std::string(error.what()).find("mode \"saturation\""), std::string::npos)
        << error.what();
  }
}

// `engine` is not a run key: a submit naming it, with any value, is an
// invalid scenario rather than a run that ignores it.
TEST(ServeServer, RemovedEngineSelectorIsAnInvalidScenario) {
  const fs::path dir = scratch_dir("engine");
  ServerHarness harness(make_config(dir));
  auto client = harness.client();

  for (const char* value : {"serial", "parallel"}) {
    try {
      client->request(std::string("{\"op\":\"submit\",\"spec\":{\"run\":{\"mode\":"
                                  "\"point\",\"sim_jobs\":100,\"engine\":\"") +
                      value + "\"}}}");
      FAIL() << "run.engine = " << value << " was accepted";
    } catch (const ServeError& error) {
      EXPECT_EQ(error.code(), kErrInvalidScenario);
      EXPECT_NE(std::string(error.what()).find("unknown run key \"engine\""),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(ServeServer, UnknownRunsAndLateCancelsAreStructuredErrors) {
  const fs::path dir = scratch_dir("unknown");
  ServerHarness harness(make_config(dir));
  auto client = harness.client();

  try {
    client->request("{\"op\":\"result\",\"id\":999,\"wait\":false}");
    FAIL() << "expected ServeError";
  } catch (const ServeError& error) {
    EXPECT_EQ(error.code(), kErrUnknownRun);
  }

  const std::uint64_t id = client->submit(spec_json(smoke_spec()));
  client->await_result(id);  // run to completion
  try {
    client->request("{\"op\":\"cancel\",\"id\":" + std::to_string(id) + "}");
    FAIL() << "expected ServeError";
  } catch (const ServeError& error) {
    EXPECT_EQ(error.code(), kErrNotCancellable);
    EXPECT_NE(std::string(error.what()).find("done"), std::string::npos);
  }
}

TEST(ServeServer, FailedRunsSurfaceAsRunFailed) {
  const fs::path dir = scratch_dir("failed");
  ServerHarness harness(make_config(dir));
  auto client = harness.client();

  exp::ScenarioSpec spec = smoke_spec();
  spec.trace_path = "missing.swf";  // sandbox-clean, but nothing is there
  const std::uint64_t id = client->submit(spec_json(spec));
  try {
    client->await_result(id);
    FAIL() << "expected ServeError";
  } catch (const ServeError& error) {
    EXPECT_EQ(error.code(), kErrRunFailed);
  }
  const obs::JsonValue status =
      client->request("{\"op\":\"status\",\"id\":" + std::to_string(id) + "}");
  EXPECT_EQ(status.at("state").as_string(), "failed");
  EXPECT_NE(status.at("error").as_string().find("missing.swf"),
            std::string::npos);
}

TEST(ServeServer, ResultWithoutWaitReportsTheCurrentState) {
  const fs::path dir = scratch_dir("nowait");
  ServerHarness harness(make_config(dir));
  auto client = harness.client();

  const std::uint64_t id = client->submit(spec_json(smoke_spec()));
  const obs::JsonValue response = client->request(
      "{\"op\":\"result\",\"id\":" + std::to_string(id) + ",\"wait\":false}");
  const std::string state = response.at("state").as_string();
  EXPECT_TRUE(state == "queued" || state == "running" || state == "done")
      << state;
  if (state != "done") {
    EXPECT_EQ(response.find("manifest"), nullptr)
        << "no manifest before the run is terminal";
  }
  client->await_result(id);
}

// -- work-conserving dispatch -----------------------------------------------

// With two workers, a run submitted while another runs starts at once on
// the free worker: it is not held until the longer run finishes.
TEST(ServeServer, ShortRunIsNotHeldBehindALongerOne) {
  const fs::path dir = scratch_dir("conserve");
  ServerHarness harness(make_config(dir, /*jobs=*/2));
  auto client = harness.client();

  exp::ScenarioSpec long_spec = smoke_spec();
  long_spec.sim_jobs = 100000;
  const std::uint64_t long_id = client->submit(spec_json(long_spec), "long");
  const std::string long_status =
      "{\"op\":\"status\",\"id\":" + std::to_string(long_id) + "}";
  std::string state = client->request(long_status).at("state").as_string();
  while (state == "queued") {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    state = client->request(long_status).at("state").as_string();
  }
  ASSERT_EQ(state, "running");

  const std::uint64_t short_id = client->submit(spec_json(smoke_spec()), "short");
  EXPECT_EQ(client->await_result(short_id).at("state").as_string(), "done");
  EXPECT_EQ(client->request(long_status).at("state").as_string(), "running")
      << "the short run waited for the long one while a worker sat idle";
}

// -- the drain lifecycle ----------------------------------------------------

TEST(ServeServer, ShutdownDrainsRunningWorkAndAnswersWaiters) {
  const fs::path dir = scratch_dir("drain");
  ServerHarness harness(make_config(dir));
  auto client = harness.client();

  exp::ScenarioSpec spec = smoke_spec();
  spec.sim_jobs = 30000;  // long enough that the drain overlaps the run
  const std::uint64_t id = client->submit(spec_json(spec));
  client->shutdown();

  // The parked result is still answered before the server exits.
  const obs::JsonValue response = client->await_result(id);
  EXPECT_EQ(response.at("state").as_string(), "done");
  EXPECT_EQ(harness.join(), 0);
  EXPECT_FALSE(fs::exists(dir / "mcsim.sock"));
}

TEST(ServeServer, ShutdownDrainsEveryQueuedRunAcrossWorkers) {
  const fs::path dir = scratch_dir("drainq");
  ServerHarness harness(make_config(dir, /*jobs=*/2));
  auto client = harness.client();

  exp::ScenarioSpec spec = smoke_spec();
  spec.sim_jobs = 30000;  // long enough that most runs are queued at the drain
  constexpr int kRuns = 5;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < kRuns; ++i) ids.push_back(client->submit(spec_json(spec)));

  // Every result request goes out before the drain starts, on a second
  // connection; the server answers them in order as the runs finish.
  UnixStream waiter = UnixStream::connect(harness.server().socket_path());
  std::string requests;
  for (const std::uint64_t id : ids) {
    requests += "{\"op\":\"result\",\"id\":" + std::to_string(id) + ",\"wait\":true}\n";
  }
  waiter.write_all(requests, 60'000);
  client->shutdown();

  for (const std::uint64_t id : ids) {
    std::string line;
    ASSERT_TRUE(waiter.read_line(line, 10 * 60 * 1000, 64u << 20)) << "run " << id;
    const obs::JsonValue response = obs::parse_json(line);
    EXPECT_EQ(response.at("id").as_uint(), id);
    EXPECT_EQ(response.at("state").as_string(), "done") << line.substr(0, 200);
  }
  EXPECT_EQ(harness.join(), 0);
  EXPECT_FALSE(fs::exists(dir / "mcsim.sock"));
}

TEST(ServeServer, SubmissionsAreRejectedWhileDraining) {
  const fs::path dir = scratch_dir("reject");
  ServerHarness harness(make_config(dir));
  auto client = harness.client();

  exp::ScenarioSpec spec = smoke_spec();
  spec.sim_jobs = 100000;  // keeps the server alive through the drain window
  client->submit(spec_json(spec));
  client->shutdown();
  try {
    client->submit(spec_json(smoke_spec()));
    FAIL() << "expected ServeError";
  } catch (const ServeError& error) {
    EXPECT_EQ(error.code(), kErrShuttingDown);
  }
  EXPECT_EQ(harness.join(), 0);
}

TEST(ServeServer, RequestShutdownDrainsAnIdleServer) {
  const fs::path dir = scratch_dir("idle");
  ServerHarness harness(make_config(dir));
  harness.client();  // wait until the server is up
  harness.server().request_shutdown();
  EXPECT_EQ(harness.join(), 0);
  EXPECT_FALSE(fs::exists(dir / "mcsim.sock"));
}

TEST(ServeServer, SigtermDrainsWhenSignalsAreHandled) {
  const fs::path dir = scratch_dir("sigterm");
  ServerConfig config = make_config(dir);
  config.handle_signals = true;
  ServerHarness harness(std::move(config));
  // A stats round-trip proves the I/O loop is live, which means the signal
  // handler is installed — only then is raise() safe.
  harness.client()->stats();
  ASSERT_EQ(::raise(SIGTERM), 0);
  EXPECT_EQ(harness.join(), 0);
  EXPECT_FALSE(fs::exists(dir / "mcsim.sock"));
}

TEST(ServeServer, StatsReportsPoolAndRunCounters) {
  const fs::path dir = scratch_dir("stats");
  ServerHarness harness(make_config(dir, /*jobs=*/3));
  auto client = harness.client();

  const std::uint64_t id = client->submit(spec_json(smoke_spec()));
  const obs::JsonValue result = client->await_result(id);
  const obs::JsonValue stats = client->stats();
  EXPECT_EQ(stats.at("jobs").as_uint(), 3u);
  EXPECT_FALSE(stats.at("draining").as_bool());
  const obs::JsonValue* runs = stats.find("runs");
  ASSERT_NE(runs, nullptr);
  EXPECT_EQ(runs->at("submitted").as_uint(), 1u);
  EXPECT_EQ(runs->at("done").as_uint(), 1u);
  EXPECT_EQ(runs->at("queued").as_uint(), 0u);
  EXPECT_EQ(runs->at("running").as_uint(), 0u);
  // The daemon keeps the compact manifest `result` sends, deflated, and
  // counts the stored bytes.
  const std::string compact = compact_json(result.at("manifest"));
  EXPECT_EQ(runs->at("manifest_bytes").as_uint(), deflate_text(compact).size());
  EXPECT_LT(runs->at("manifest_bytes").as_uint(), compact.size());
}

// -- the registry state machine (deterministic, no I/O) ---------------------

TEST(ServeRegistry, CancelWinsOnlyWhileQueued) {
  RunRegistry registry;
  const std::uint64_t id = registry.submit(smoke_spec(), "victim");
  EXPECT_EQ(registry.cancel(id), RunState::kCancelled);
  EXPECT_EQ(registry.get(id)->state, RunState::kCancelled);
  EXPECT_TRUE(registry.idle());

  const std::uint64_t late = registry.submit(smoke_spec(), "late");
  const auto run = registry.claim_next();
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(run->first, late);
  EXPECT_EQ(registry.cancel(late), RunState::kRunning)
      << "a claimed run is past the point of cancellation";
  registry.complete(late, "{}");
  EXPECT_EQ(registry.cancel(late), RunState::kDone);
}

TEST(ServeRegistry, ClaimTakesQueuedRunsOneAtATimeInSubmissionOrder) {
  RunRegistry registry;
  const std::uint64_t a = registry.submit(smoke_spec(), "a");
  const std::uint64_t b = registry.submit(smoke_spec(), "b");
  const std::uint64_t c = registry.submit(smoke_spec(), "c");
  const std::uint64_t d = registry.submit(smoke_spec(), "d");

  const auto first = registry.claim_next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->first, a);
  EXPECT_EQ(registry.get(b)->state, RunState::kQueued)
      << "a claim takes one run, not the whole queue";
  EXPECT_EQ(registry.cancel(b), RunState::kCancelled);

  const auto second = registry.claim_next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->first, c) << "a run cancelled mid-queue is skipped";
  const auto third = registry.claim_next();
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->first, d);
  EXPECT_FALSE(registry.idle());

  registry.complete(a, "{}");
  registry.fail(c, "boom");
  registry.complete(d, "{\"x\":1}");
  EXPECT_TRUE(registry.idle());

  const RegistryStats stats = registry.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.done, 2u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.running, 0u);
  EXPECT_EQ(stats.manifest_bytes,
            deflate_text("{}").size() + deflate_text("{\"x\":1}").size());
  EXPECT_EQ(registry.get(c)->error, "boom");
  EXPECT_EQ(registry.get(d)->manifest_json(), "{\"x\":1}");
}

TEST(ServeRegistry, StoredManifestsInflateByteForByte) {
  std::string text = "{\"result\":[";
  for (int i = 0; i < 200; ++i) text += std::to_string(i * 0.125) + ',';
  text += "0]}";
  const std::string deflated = deflate_text(text);
  EXPECT_LT(deflated.size(), text.size());
  EXPECT_EQ(inflate_text(deflated, text.size()), text);
  EXPECT_EQ(inflate_text(deflate_text(""), 0), "");
  // A wrong size or corrupt bytes fail loudly instead of truncating.
  EXPECT_THROW((void)inflate_text(deflated, text.size() - 1), std::runtime_error);
  EXPECT_THROW((void)inflate_text(deflated, text.size() + 1), std::runtime_error);
  EXPECT_THROW((void)inflate_text("not zlib", 8), std::runtime_error);
}

TEST(ServeRegistry, CompletionHookFiresPerTerminalTransition) {
  std::atomic<int> fired{0};
  RunRegistry registry([&fired] { ++fired; });
  const std::uint64_t a = registry.submit(smoke_spec(), "");
  const std::uint64_t b = registry.submit(smoke_spec(), "");
  const std::uint64_t c = registry.submit(smoke_spec(), "");
  registry.cancel(a);
  EXPECT_EQ(fired.load(), 1);
  ASSERT_EQ(registry.claim_next()->first, b);
  ASSERT_EQ(registry.claim_next()->first, c);
  EXPECT_EQ(fired.load(), 1) << "claiming is not a terminal transition";
  registry.complete(b, "{}");
  registry.fail(c, "boom");
  EXPECT_EQ(fired.load(), 3);
}

TEST(ServeRegistry, StopUnblocksClaimWithNothing) {
  RunRegistry registry;
  std::optional<std::pair<std::uint64_t, exp::ScenarioSpec>> run{
      std::in_place, 1, exp::ScenarioSpec{}};
  std::thread claimer([&] { run = registry.claim_next(); });
  registry.request_stop();
  claimer.join();
  EXPECT_FALSE(run.has_value());
}

// The drain contract: a stop ends the claim loops only once the queue is
// empty, so every run accepted before the drain still executes.
TEST(ServeRegistry, ClaimStillHandsOutQueuedRunsAfterStop) {
  RunRegistry registry;
  const std::uint64_t a = registry.submit(smoke_spec(), "a");
  const std::uint64_t b = registry.submit(smoke_spec(), "b");
  const std::uint64_t c = registry.submit(smoke_spec(), "c");
  registry.cancel(c);
  registry.request_stop();

  const auto first = registry.claim_next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->first, a);
  const auto second = registry.claim_next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->first, b);
  EXPECT_FALSE(registry.claim_next().has_value())
      << "the cancelled run is skipped and the stopped queue is empty";
  EXPECT_FALSE(registry.idle()) << "a and b are still running";
}

TEST(ServeRegistry, EmptyNameFallsBackToTheSpecLabel) {
  RunRegistry registry;
  const exp::ScenarioSpec spec = smoke_spec();
  const std::uint64_t id = registry.submit(spec, "");
  EXPECT_EQ(registry.get(id)->name, spec.label());
}

}  // namespace
}  // namespace mcsim::serve
