#include "exec/analyze.h"

#include <algorithm>
#include <unordered_map>

#include "common/str_util.h"

namespace ordopt {

double QError(double est_rows, int64_t act_rows) {
  double e = est_rows + 1.0;
  double a = static_cast<double>(act_rows) + 1.0;
  return std::max(e / a, a / e);
}

namespace {

std::string FormatMs(int64_t ns) {
  return StrFormat("%.3fms", static_cast<double>(ns) / 1e6);
}

// Walks `node` in the same post-order as BuildOperatorTree (children
// first, left to right), consuming `profiles` sequentially so profile i
// pairs with the i-th constructed operator. Emits one pre-order line per
// node into `out`. Returns the node's inclusive wall time so parents can
// derive self time.
struct Renderer {
  const std::vector<OperatorProfile>& profiles;
  const ColumnNamer& namer;
  size_t next = 0;

  struct Visited {
    std::string text;            // this node's subtree, pre-order
    const OperatorStats* stats;  // null when no profile was collected
  };

  Visited Visit(const PlanNode* node, int indent) {
    std::vector<Visited> kids;
    kids.reserve(node->children.size());
    for (const auto& child : node->children) {
      kids.push_back(Visit(child.get(), indent + 1));
    }
    const OperatorStats* stats = nullptr;
    if (next < profiles.size()) stats = &profiles[next].stats;
    ++next;

    std::string line(static_cast<size_t>(indent) * 2, ' ');
    line += NodeLabel(*node, namer);
    line += StrFormat("  (est=%.0f", node->props.cardinality);
    if (stats != nullptr) {
      int64_t child_ns = 0;
      for (const Visited& k : kids) {
        if (k.stats != nullptr) child_ns += k.stats->total_ns();
      }
      // An exchange's children carry stats summed over all workers, so
      // "total minus children" says nothing; its self time is its own
      // consumer-thread time.
      int64_t self_ns =
          node->kind == OpKind::kExchange
              ? stats->total_ns()
              : std::max<int64_t>(0, stats->total_ns() - child_ns);
      line += StrFormat(" act=%lld time=%s self=%s next=%lld",
                        static_cast<long long>(stats->rows_out),
                        FormatMs(stats->total_ns()).c_str(),
                        FormatMs(self_ns).c_str(),
                        static_cast<long long>(stats->next_calls));
      if (node->kind == OpKind::kExchange) {
        // The part of self spent blocked on worker queues, not merging.
        line += " wait=" + FormatMs(stats->exchange_wait_ns);
      }
      if (stats->rows_scanned > 0) {
        line += StrFormat(" scanned=%lld",
                          static_cast<long long>(stats->rows_scanned));
      }
      if (stats->comparisons > 0) {
        line += StrFormat(" cmp=%lld",
                          static_cast<long long>(stats->comparisons));
      }
      if (stats->seq_pages > 0 || stats->random_pages > 0) {
        line += StrFormat(" pages=%lld+%lldr",
                          static_cast<long long>(stats->seq_pages),
                          static_cast<long long>(stats->random_pages));
      }
      if (stats->index_probes > 0) {
        line += StrFormat(" probes=%lld",
                          static_cast<long long>(stats->index_probes));
      }
      if (stats->spill_runs > 0) {
        line += StrFormat(" spills=%lld",
                          static_cast<long long>(stats->spill_runs));
      }
      if (stats->spill_retries > 0) {
        line += StrFormat(" spill_retries=%lld",
                          static_cast<long long>(stats->spill_retries));
      }
      if (stats->buffered_rows_peak > 0) {
        line += StrFormat(" buffered_peak=%lld",
                          static_cast<long long>(stats->buffered_rows_peak));
      }
    } else {
      line += " act=?";
    }
    line += ")\n";

    Visited v;
    v.stats = stats;
    v.text = std::move(line);
    for (Visited& k : kids) v.text += k.text;
    return v;
  }
};

// Same post-order consumption, collecting (label, est, act) rows; the
// result is reordered to pre-order by the caller-side recursion below.
struct Collector {
  const std::vector<OperatorProfile>& profiles;
  const ColumnNamer& namer;
  size_t next = 0;

  void Visit(const PlanNode* node, std::vector<EstActualRow>* out) {
    std::vector<EstActualRow> child_rows;
    for (const auto& child : node->children) {
      Visit(child.get(), &child_rows);
    }
    EstActualRow row;
    row.label = NodeLabel(*node, namer);
    row.est_rows = node->props.cardinality;
    if (next < profiles.size()) {
      row.act_rows = profiles[next].stats.rows_out;
      row.q_error = QError(row.est_rows, row.act_rows);
    }
    ++next;
    out->push_back(std::move(row));
    for (EstActualRow& r : child_rows) out->push_back(std::move(r));
  }
};

}  // namespace

std::string RenderAnalyzedPlan(const PlanRef& plan,
                               const std::vector<OperatorProfile>& profiles,
                               const ColumnNamer& namer) {
  if (plan == nullptr) return "";
  Renderer r{profiles, namer};
  return r.Visit(plan.get(), 0).text;
}

std::vector<EstActualRow> EstVsActualRows(
    const PlanRef& plan, const std::vector<OperatorProfile>& profiles,
    const ColumnNamer& namer) {
  std::vector<EstActualRow> rows;
  if (plan == nullptr) return rows;
  Collector c{profiles, namer};
  c.Visit(plan.get(), &rows);
  return rows;
}

std::string RenderDecisions(const TraceCollector& trace) {
  // The planner re-tests the same orders across join enumeration; print
  // each distinct line once, in first-seen order, with its repeat count.
  std::vector<std::string> lines;
  std::unordered_map<std::string, int64_t> counts;
  for (const TraceEvent& e : trace.events()) {
    if (e.phase() != "optimizer") continue;
    std::string line = e.ToShortString();
    if (counts[line]++ == 0) lines.push_back(std::move(line));
  }
  std::string out;
  for (const std::string& line : lines) {
    const int64_t n = counts[line];
    out += "  " + line +
           (n > 1 ? StrFormat(" x%lld", static_cast<long long>(n)) : "") +
           "\n";
  }
  return out;
}

}  // namespace ordopt
