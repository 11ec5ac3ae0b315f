#include "workload/trace_source.hpp"

#include <algorithm>

namespace mcsim {

bool VectorRecordSource::next(TraceRecord& out) {
  if (next_ == records_->size()) return false;
  out = (*records_)[next_++];
  return true;
}

bool trace_record_usable(const TraceRecord& record) {
  return record.processors > 0 && record.run_time > 0.0 && record.submit_time >= 0.0;
}

void TraceStreamSummary::add(const TraceRecord& record) {
  ++total_records;
  if (!trace_record_usable(record)) return;
  if (usable_records == 0) {
    first_submit = record.submit_time;
    last_submit = record.submit_time;
  } else {
    first_submit = std::min(first_submit, record.submit_time);
    last_submit = std::max(last_submit, record.submit_time);
  }
  ++usable_records;
  gross_work += static_cast<double>(record.processors) * record.run_time;
  max_processors = std::max(max_processors, record.processors);
}

}  // namespace mcsim
