#include "workload/trace_workload.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"
#include "workload/job_splitter.hpp"

namespace mcsim {

namespace {

/// The replay order: (submit_time, job_id), ascending.
bool submits_before(const TraceRecord& a, const TraceRecord& b) {
  if (a.submit_time != b.submit_time) return a.submit_time < b.submit_time;
  return a.job_id < b.job_id;
}

}  // namespace

std::vector<TraceRecord> usable_trace_records(const std::vector<TraceRecord>& raw) {
  std::vector<TraceRecord> usable;
  usable.reserve(raw.size());
  for (const TraceRecord& rec : raw) {
    if (!trace_record_usable(rec)) continue;
    usable.push_back(rec);
  }
  std::stable_sort(usable.begin(), usable.end(), submits_before);
  return usable;
}

double trace_offered_gross_utilization(const TraceStreamSummary& summary,
                                       std::uint32_t total_processors) {
  MCSIM_REQUIRE(total_processors > 0, "trace utilization needs a non-empty system");
  if (summary.usable_records == 0) return 0.0;
  const double span = summary.last_submit - summary.first_submit;
  if (span <= 0.0) return 0.0;
  return summary.gross_work / (static_cast<double>(total_processors) * span);
}

namespace {
double scale_from_inherent(double inherent, double target) {
  MCSIM_REQUIRE(target > 0.0, "target utilization must be positive");
  MCSIM_REQUIRE(inherent > 0.0,
                "trace offers no load (empty, zero-span, or zero-work) -- "
                "cannot scale to a target utilization");
  return inherent / target;
}
}  // namespace

double trace_scale_for_utilization(const TraceStreamSummary& summary,
                                   std::uint32_t total_processors, double target) {
  return scale_from_inherent(trace_offered_gross_utilization(summary, total_processors),
                             target);
}

TraceWorkload::TraceWorkload(std::shared_ptr<const TraceWorkloadConfig> config)
    : config_(std::move(config)) {
  MCSIM_REQUIRE(config_ != nullptr, "trace workload needs a config");
  MCSIM_REQUIRE(config_->arrival_scale > 0.0, "trace arrival_scale must be positive");
  MCSIM_REQUIRE(config_->num_clusters > 0, "trace workload needs at least one cluster");
  MCSIM_REQUIRE(!config_->split_jobs || config_->component_limit > 0,
                "trace component_limit must be positive when splitting");
  MCSIM_REQUIRE(config_->extension_factor >= 1.0, "extension factor must be >= 1");
  MCSIM_REQUIRE(config_->lookahead_window > 0, "trace lookahead_window must be positive");
  MCSIM_REQUIRE(static_cast<bool>(config_->open_source),
                "trace workload config has no record source");
  stream_ = config_->open_source();
  MCSIM_REQUIRE(stream_ != nullptr, "trace open_source returned no stream");
}

void TraceWorkload::refill_lookahead() {
  TraceRecord rec;
  while (!stream_exhausted_ &&
         ring_count_ + stragglers_.size() < config_->lookahead_window) {
    if (!stream_->next(rec)) {
      stream_exhausted_ = true;
      break;
    }
    if (!trace_record_usable(rec)) continue;
    admit(rec);
  }
}

bool TraceWorkload::StragglerAfter::operator()(const Straggler& a,
                                               const Straggler& b) const {
  // Field by field, each compared once: composing submits_before twice
  // made an all-straggler log measurably slower than the old heap.
  if (a.record.submit_time != b.record.submit_time) {
    return a.record.submit_time > b.record.submit_time;
  }
  if (a.record.job_id != b.record.job_id) return a.record.job_id > b.record.job_id;
  return a.arrival > b.arrival;
}

void TraceWorkload::admit(const TraceRecord& rec) {
  const std::uint64_t arrival = admitted_++;
  if (ring_count_ > 0) {
    if (submits_before(rec, ring_[ring_slot(ring_count_ - 1)])) {
      stragglers_.push_back(Straggler{rec, arrival});
      std::push_heap(stragglers_.begin(), stragglers_.end(), StragglerAfter{});
      return;
    }
  }
  if (ring_count_ == ring_.size()) grow_ring();
  ring_[ring_slot(ring_count_)] = rec;
  ++ring_count_;
}

void TraceWorkload::grow_ring() {
  // Doubling from 16, capped by the window and by the usable records the
  // pre-scan counted: the window is user input, so it is never allocated
  // up front. The last clamp keeps room for the record being admitted
  // should the pre-scan's count be stale.
  std::size_t limit = config_->lookahead_window;
  if (config_->usable_records > 0 && config_->usable_records < limit) {
    limit = static_cast<std::size_t>(config_->usable_records);
  }
  const std::size_t capacity = std::max(
      std::min(ring_.empty() ? std::size_t{16} : 2 * ring_.size(), limit),
      ring_count_ + 1);
  std::vector<TraceRecord> grown(capacity);
  for (std::size_t i = 0; i < ring_count_; ++i) grown[i] = ring_[ring_slot(i)];
  ring_.swap(grown);
  ring_head_ = 0;
}

TraceRecord TraceWorkload::take_earliest() {
  // Equal keys go to the ring first: a straggler arrived after every ring
  // record that shares its key (later ring records sort strictly after it).
  if (!stragglers_.empty() && submits_before(stragglers_.front().record, ring_[ring_head_])) {
    std::pop_heap(stragglers_.begin(), stragglers_.end(), StragglerAfter{});
    const TraceRecord rec = stragglers_.back().record;
    stragglers_.pop_back();
    return rec;
  }
  const TraceRecord rec = ring_[ring_head_];
  if (++ring_head_ == ring_.size()) ring_head_ = 0;
  --ring_count_;
  return rec;
}

void TraceWorkload::emit(const TraceRecord& rec, JobSpec& out) {
  // Every field is written, and the component vectors are refilled in
  // place (the JobSource contract), so a recycled spec never carries a
  // stale field or reallocates.
  // Sequential ids (not the log's): replay ids must match what a synthetic
  // run would have assigned so an exported-then-replayed schedule lines up
  // job-for-job with its origin.
  out.id = emitted_;
  out.arrival_time = rec.submit_time * config_->arrival_scale;
  out.total_size = rec.processors;
  if (config_->split_jobs) {
    out.request_type = RequestType::kUnordered;
    split_job_into(rec.processors, config_->component_limit, config_->num_clusters,
                   out.components);
  } else {
    out.request_type = RequestType::kTotal;
    out.components.assign(1, rec.processors);
  }
  out.ordered_clusters.clear();
  out.wide_area = out.components.size() > 1;
  // The log records elapsed execution time, i.e. the *gross* (extended)
  // service time; the net time is only used for slowdown reporting.
  out.gross_service_time = rec.run_time;
  out.service_time =
      out.wide_area ? rec.run_time / config_->extension_factor : rec.run_time;
  out.origin_queue = rec.user_id % config_->num_clusters;
  ++emitted_;
}

bool TraceWorkload::next(JobSpec& out) {
  refill_lookahead();
  // Stragglers never outlast the ring (see stragglers_), so an empty ring
  // is an empty window.
  if (ring_count_ == 0) return false;
  const TraceRecord rec = take_earliest();
  // The bounded merge only reproduces the full sort when the log's
  // disorder fits the window; a record surfacing *behind* one we already
  // emitted means it does not. Fail loudly — a silently misordered replay
  // would produce subtly wrong (and non-reproducible-vs-baseline) numbers.
  const bool in_order =
      emitted_ == 0 || rec.submit_time > last_submit_ ||
      (rec.submit_time == last_submit_ && rec.job_id >= last_job_id_);
  MCSIM_REQUIRE(in_order,
                "trace " +
                    (config_->source_path.empty() ? std::string("<stream>")
                                                  : config_->source_path) +
                    ": record " + std::to_string(rec.job_id) + " (submit " +
                    std::to_string(rec.submit_time) +
                    ") is out of order beyond the lookahead window (" +
                    std::to_string(config_->lookahead_window) +
                    " records); raise --lookahead (workload.lookahead in a scenario) or "
                    "pre-sort the log");
  last_submit_ = rec.submit_time;
  last_job_id_ = rec.job_id;
  emit(rec, out);
  return true;
}

}  // namespace mcsim
