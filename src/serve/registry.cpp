#include "serve/registry.hpp"

#include <zlib.h>

#include <stdexcept>

#include "util/assert.hpp"

namespace mcsim::serve {

std::string deflate_text(std::string_view text) {
  uLongf size = compressBound(static_cast<uLong>(text.size()));
  std::string deflated(size, '\0');
  if (compress2(reinterpret_cast<Bytef*>(deflated.data()), &size,
                reinterpret_cast<const Bytef*>(text.data()), static_cast<uLong>(text.size()),
                Z_BEST_SPEED) != Z_OK) {
    throw std::runtime_error("mcsim: zlib could not deflate a manifest");
  }
  deflated.resize(size);
  deflated.shrink_to_fit();
  return deflated;
}

std::string inflate_text(std::string_view deflated, std::size_t size) {
  std::string text(size, '\0');
  uLongf inflated = static_cast<uLongf>(size);
  if (uncompress(reinterpret_cast<Bytef*>(text.data()), &inflated,
                 reinterpret_cast<const Bytef*>(deflated.data()),
                 static_cast<uLong>(deflated.size())) != Z_OK ||
      inflated != size) {
    throw std::runtime_error("mcsim: a stored manifest does not inflate");
  }
  return text;
}

std::string RunSnapshot::manifest_json() const {
  return inflate_text(manifest_deflated, manifest_size);
}

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

void RunRegistry::complete(std::uint64_t id, std::string_view manifest_json) {
  std::string deflated = deflate_text(manifest_json);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    MCSIM_ASSERT(known(id));
    RunSnapshot& snapshot = runs_[id - 1];
    MCSIM_ASSERT(snapshot.state == RunState::kRunning);
    snapshot.state = RunState::kDone;
    snapshot.manifest_deflated = std::move(deflated);
    snapshot.manifest_size = manifest_json.size();
    --counters_.running;
    ++counters_.done;
    counters_.manifest_bytes += snapshot.manifest_deflated.size();
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
