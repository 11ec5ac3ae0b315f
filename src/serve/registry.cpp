#include "serve/registry.hpp"

#include "util/assert.hpp"

namespace mcsim::serve {

const char* run_state_name(RunState state) {
  switch (state) {
    case RunState::kQueued: return "queued";
    case RunState::kRunning: return "running";
    case RunState::kDone: return "done";
    case RunState::kFailed: return "failed";
    case RunState::kCancelled: return "cancelled";
  }
  return "?";
}

std::uint64_t RunRegistry::submit(exp::ScenarioSpec spec, std::string name) {
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = runs_.size() + 1;
    RunSnapshot& snapshot = runs_.emplace_back();
    snapshot.id = id;
    snapshot.name = name.empty() ? spec.label() : std::move(name);
    snapshot.state = RunState::kQueued;
    queue_.emplace_back(id, std::move(spec));
    ++counters_.submitted;
    ++counters_.queued;
  }
  work_ready_.notify_one();
  return id;
}

std::optional<std::pair<std::uint64_t, exp::ScenarioSpec>> RunRegistry::claim_next() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return std::nullopt;  // request_stop() and nothing left
    auto run = std::move(queue_.front());
    queue_.pop_front();
    RunSnapshot& snapshot = runs_[run.first - 1];
    if (snapshot.state != RunState::kQueued) continue;  // cancelled while queued
    snapshot.state = RunState::kRunning;
    --counters_.queued;
    ++counters_.running;
    return run;
  }
}

void RunRegistry::request_stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_ready_.notify_all();
}

void RunRegistry::complete(std::uint64_t id, std::string manifest_json) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    MCSIM_ASSERT(known(id));
    RunSnapshot& snapshot = runs_[id - 1];
    MCSIM_ASSERT(snapshot.state == RunState::kRunning);
    snapshot.state = RunState::kDone;
    snapshot.manifest_json = std::move(manifest_json);
    --counters_.running;
    ++counters_.done;
    counters_.manifest_bytes += snapshot.manifest_json.size();
  }
  notify_terminal();
}

void RunRegistry::fail(std::uint64_t id, std::string error) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    MCSIM_ASSERT(known(id));
    RunSnapshot& snapshot = runs_[id - 1];
    MCSIM_ASSERT(snapshot.state == RunState::kRunning);
    snapshot.state = RunState::kFailed;
    snapshot.error = std::move(error);
    --counters_.running;
    ++counters_.failed;
  }
  notify_terminal();
}

RunState RunRegistry::cancel(std::uint64_t id) {
  bool cancelled = false;
  RunState state = RunState::kQueued;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!known(id)) {
      // Never-submitted ids are the caller's problem (get() distinguishes).
      return RunState::kCancelled;
    }
    RunSnapshot& snapshot = runs_[id - 1];
    // The queue entry stays behind; claim_next() skips it.
    if (snapshot.state == RunState::kQueued) {
      snapshot.state = RunState::kCancelled;
      --counters_.queued;
      ++counters_.cancelled;
      cancelled = true;
    }
    state = snapshot.state;
  }
  if (cancelled) notify_terminal();
  return state;
}

std::optional<RunSnapshot> RunRegistry::get(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!known(id)) return std::nullopt;
  return runs_[id - 1];
}

RegistryStats RunRegistry::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

bool RunRegistry::idle() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_.queued == 0 && counters_.running == 0;
}

void RunRegistry::notify_terminal() {
  if (on_terminal_) on_terminal_();
}

}  // namespace mcsim::serve
