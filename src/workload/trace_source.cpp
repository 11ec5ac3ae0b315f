#include "workload/trace_source.hpp"

#include <algorithm>

namespace mcsim {

bool trace_record_usable(const TraceRecord& record) {
  return record.processors > 0 && record.run_time > 0.0 && record.submit_time >= 0.0;
}

TraceStreamSummary summarize_trace_source(TraceRecordSource& source) {
  TraceStreamSummary summary;
  TraceRecord record;
  while (source.next(record)) {
    ++summary.total_records;
    if (!trace_record_usable(record)) continue;
    if (summary.usable_records == 0) {
      summary.first_submit = record.submit_time;
      summary.last_submit = record.submit_time;
    } else {
      summary.first_submit = std::min(summary.first_submit, record.submit_time);
      summary.last_submit = std::max(summary.last_submit, record.submit_time);
    }
    ++summary.usable_records;
    summary.gross_work += static_cast<double>(record.processors) * record.run_time;
    summary.max_processors = std::max(summary.max_processors, record.processors);
  }
  return summary;
}

}  // namespace mcsim
