#include "exec/runtime_metrics.h"

#include <algorithm>

#include "common/str_util.h"

namespace ordopt {

namespace {

enum class CounterMerge { kSum, kMax, kNone };
enum class CounterUnit { kCount, kNanos };

void MergeCounter(CounterMerge rule, int64_t* into, int64_t worker) {
  switch (rule) {
    case CounterMerge::kSum:
      *into += worker;
      break;
    case CounterMerge::kMax:
      *into = std::max(*into, worker);
      break;
    case CounterMerge::kNone:
      break;
  }
}

void AppendLabeled(std::string* out, const char* label, int64_t value,
                   CounterUnit unit) {
  *out += label;
  *out += '=';
  *out += unit == CounterUnit::kNanos
              ? StrFormat("%.3fs", static_cast<double>(value) / 1e9)
              : std::to_string(value);
  *out += ' ';
}

}  // namespace

void RuntimeMetrics::MergeFrom(const RuntimeMetrics& worker) {
#define ORDOPT_MERGE_COUNTER(field, merge, label, unit) \
  MergeCounter(CounterMerge::merge, &field, worker.field);
  ORDOPT_RUNTIME_COUNTERS(ORDOPT_MERGE_COUNTER)
#undef ORDOPT_MERGE_COUNTER
}

std::string RuntimeMetrics::ToString() const {
  std::string out;
#define ORDOPT_LABEL_COUNTER(field, merge, label, unit) \
  AppendLabeled(&out, label, field, CounterUnit::unit);
  ORDOPT_RUNTIME_COUNTERS(ORDOPT_LABEL_COUNTER)
#undef ORDOPT_LABEL_COUNTER
  return out + StrFormat("sim_io=%.3fs sim_cpu=%.3fs", SimulatedIoSeconds(),
                         SimulatedCpuSeconds());
}

std::string RuntimeMetrics::ToJson() const {
  std::string out = "{";
#define ORDOPT_JSON_COUNTER(field, merge, label, unit) \
  out += "\"" #field "\":" + std::to_string(field) + ",";
  ORDOPT_RUNTIME_COUNTERS(ORDOPT_JSON_COUNTER)
#undef ORDOPT_JSON_COUNTER
  return out + StrFormat(
                   "\"sim_io_seconds\":%.6g,\"sim_cpu_seconds\":%.6g,"
                   "\"sim_elapsed_seconds\":%.6g}",
                   SimulatedIoSeconds(), SimulatedCpuSeconds(),
                   SimulatedElapsedSeconds());
}

}  // namespace ordopt
