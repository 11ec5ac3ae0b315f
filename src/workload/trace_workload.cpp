#include "workload/trace_workload.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"
#include "workload/job_splitter.hpp"

namespace mcsim {

std::vector<TraceRecord> usable_trace_records(const std::vector<TraceRecord>& raw) {
  std::vector<TraceRecord> usable;
  usable.reserve(raw.size());
  for (const TraceRecord& rec : raw) {
    if (!trace_record_usable(rec)) continue;
    usable.push_back(rec);
  }
  std::sort(usable.begin(), usable.end(), [](const TraceRecord& a, const TraceRecord& b) {
    if (a.submit_time != b.submit_time) return a.submit_time < b.submit_time;
    return a.job_id < b.job_id;
  });
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
  while (!stream_exhausted_ && lookahead_.size() < config_->lookahead_window) {
    if (!stream_->next(rec)) {
      stream_exhausted_ = true;
      break;
    }
    if (!trace_record_usable(rec)) continue;
    lookahead_.push(rec);
  }
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
  if (lookahead_.empty()) return false;
  const TraceRecord rec = lookahead_.top();
  lookahead_.pop();
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
                    " records); raise lookahead_window or pre-sort the log");
  last_submit_ = rec.submit_time;
  last_job_id_ = rec.job_id;
  emit(rec, out);
  return true;
}

}  // namespace mcsim
