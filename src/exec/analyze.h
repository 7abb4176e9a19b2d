#ifndef ORDOPT_EXEC_ANALYZE_H_
#define ORDOPT_EXEC_ANALYZE_H_

#include <string>
#include <vector>

#include "common/trace.h"
#include "exec/executor.h"
#include "optimizer/plan.h"

namespace ordopt {

/// EXPLAIN ANALYZE rendering: the plan tree annotated per operator with
/// estimated vs actual rows, inclusive and self wall time, and the nonzero
/// runtime counters. `profiles` must come from an ExecutePlan run over the
/// same `plan` (post-order aligned); missing profiles render estimates
/// only.
std::string RenderAnalyzedPlan(const PlanRef& plan,
                               const std::vector<OperatorProfile>& profiles,
                               const ColumnNamer& namer = nullptr);

/// One row of the estimate-quality summary.
struct EstActualRow {
  std::string label;    ///< operator label (NodeLabel)
  double est_rows = 0;  ///< cost model's cardinality estimate
  int64_t act_rows = 0; ///< rows the operator actually produced
  double q_error = 1;   ///< max((est+1)/(act+1), (act+1)/(est+1))
};

/// Per-operator estimated-vs-actual row counts, in plan pre-order (root
/// first) for readability.
std::vector<EstActualRow> EstVsActualRows(
    const PlanRef& plan, const std::vector<OperatorProfile>& profiles,
    const ColumnNamer& namer = nullptr);

/// The optimizer-phase trace events as a compact human-readable block, for
/// the EXPLAIN ANALYZE decisions section: each distinct ToShortString line
/// once, in first-seen order, suffixed " xN" when N events rendered to it.
/// Empty string when there are none.
std::string RenderDecisions(const TraceCollector& trace);

}  // namespace ordopt

#endif  // ORDOPT_EXEC_ANALYZE_H_
