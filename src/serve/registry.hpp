/// \file
/// \brief The run registry: every submission the daemon has accepted, from
/// queued through its terminal state (docs/SERVING.md, "Run lifecycle").
///
/// The registry is the hand-off point between the server's I/O loop (which
/// submits, answers status/result/cancel, and decides when a drain is
/// complete) and the `--jobs` worker threads (each claims the oldest queued
/// run as soon as it is free and executes it). Both sides see one mutex;
/// idle workers sleep on a condition variable and the I/O loop is woken
/// through a completion callback (it cannot block here — it has a poll(2)
/// loop to run).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exp/scenario_spec.hpp"

namespace mcsim::serve {

/// Lifecycle of a served run. Queued runs can still be cancelled; the
/// other four states are reached exactly once. kRunning never goes back.
enum class RunState : std::uint8_t { kQueued, kRunning, kDone, kFailed, kCancelled };

const char* run_state_name(RunState state);

[[nodiscard]] constexpr bool is_terminal(RunState state) {
  return state == RunState::kDone || state == RunState::kFailed ||
         state == RunState::kCancelled;
}

/// Snapshot of one run (returned by value — the registry's internal record
/// keeps changing under its own lock).
struct RunSnapshot {
  std::uint64_t id = 0;
  std::string name;  ///< client label; spec.label() when omitted
  RunState state = RunState::kQueued;
  /// kDone: the full manifest as compact JSON, zlib-deflated
  /// (manifest_json() inflates it).
  std::string manifest_deflated;
  std::size_t manifest_size = 0;  ///< kDone: the inflated manifest's bytes
  std::string error;              ///< kFailed: what the run threw

  /// The manifest's compact JSON, byte for byte as the worker completed it.
  [[nodiscard]] std::string manifest_json() const;
};

/// zlib-deflate `text` at level 1 (fast; a served point manifest shrinks
/// to under half). Throws std::runtime_error if zlib fails.
[[nodiscard]] std::string deflate_text(std::string_view text);
/// Inverse of deflate_text, given the inflated size. Throws
/// std::runtime_error when `deflated` does not inflate to exactly `size`
/// bytes.
[[nodiscard]] std::string inflate_text(std::string_view deflated, std::size_t size);

/// Aggregate counters for the `stats` op.
struct RegistryStats {
  std::uint64_t submitted = 0;
  std::uint64_t queued = 0;
  std::uint64_t running = 0;
  std::uint64_t done = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t manifest_bytes = 0;  ///< stored (deflated) manifests of kDone runs
};

class RunRegistry {
 public:
  /// Called (with no registry lock held) every time a run reaches a
  /// terminal state — the server points this at its self-pipe so the poll
  /// loop wakes up and answers pending `result wait:true` requests.
  using CompletionHook = std::function<void()>;

  explicit RunRegistry(CompletionHook on_terminal = nullptr)
      : on_terminal_(std::move(on_terminal)) {}

  /// Queue a run; returns its id (ids are 1-based and dense).
  std::uint64_t submit(exp::ScenarioSpec spec, std::string name);

  /// Block until a run is queued or `stop` was signalled; then move the
  /// oldest queued run to kRunning and return its (id, spec). Runs
  /// cancelled while queued are skipped. Queued runs are still handed out
  /// after request_stop(); empty only once stop was requested and nothing
  /// is queued.
  std::optional<std::pair<std::uint64_t, exp::ScenarioSpec>> claim_next();

  /// Wake claim_next() for shutdown: once called, an empty claim means
  /// "no more work is coming, exit the claim loop".
  void request_stop();

  /// Store `manifest_json` deflated (on the calling worker, outside the
  /// lock) and mark the run done.
  void complete(std::uint64_t id, std::string_view manifest_json);
  void fail(std::uint64_t id, std::string error);

  /// Cancel a queued run. Returns the state the run was actually in:
  /// kCancelled on success, the unchanged state (kRunning or terminal)
  /// when it was too late.
  RunState cancel(std::uint64_t id);

  [[nodiscard]] std::optional<RunSnapshot> get(std::uint64_t id) const;

  [[nodiscard]] RegistryStats stats() const;

  /// True when nothing is queued or running (the drain condition).
  [[nodiscard]] bool idle() const;

 private:
  /// Whether `id` was ever submitted. Caller holds mutex_.
  [[nodiscard]] bool known(std::uint64_t id) const {
    return id >= 1 && id <= runs_.size();
  }

  void notify_terminal();

  CompletionHook on_terminal_;
  mutable std::mutex mutex_;
  std::condition_variable work_ready_;
  bool stop_ = false;
  std::vector<RunSnapshot> runs_;  ///< runs_[id - 1]
  /// Submission order; a spec moves out of here when its run is claimed.
  std::deque<std::pair<std::uint64_t, exp::ScenarioSpec>> queue_;
  RegistryStats counters_;
};

}  // namespace mcsim::serve
