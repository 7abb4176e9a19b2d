#ifndef ORDOPT_EXEC_EXECUTOR_H_
#define ORDOPT_EXEC_EXECUTOR_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "exec/runtime_metrics.h"
#include "exec/operators.h"
#include "exec/query_guard.h"
#include "exec/spill.h"
#include "optimizer/plan.h"

namespace ordopt {

/// Instantiates the Volcano operator tree for a physical plan. The metrics
/// and guard in `ctx` must outlive the returned operator. A plan whose
/// construction poisons the guard (planner bug surfaced at build time)
/// returns the poisoned Status instead of an operator. `required` seeds
/// build-time column pruning with the columns the caller needs of the
/// root's output (null = all): ExchangeOp passes the requirement computed
/// at the exchange node, so worker scans prune exactly as a serial build of
/// the same chain would.
Result<OperatorPtr> BuildOperatorTree(const PlanRef& plan, ExecContext ctx,
                                      const ColumnSet* required = nullptr);

/// One operator's runtime stats paired with the plan node it executed.
/// ExecutePlan emits profiles in the same post-order BuildOperatorTree
/// visits nodes (children before parent), so index i in a profile vector
/// corresponds to the i-th node of a post-order plan walk.
struct OperatorProfile {
  const PlanNode* node = nullptr;
  OperatorStats stats;
};

/// Convenience: builds, opens, drains, and closes the plan, returning every
/// produced row. When `guard` is non-null its limits are enforced during the
/// drain and a tripped guard's Status is returned (with consumption peaks
/// already merged into `metrics`); a null guard executes unlimited. When
/// `spill_config` is non-null a SpillManager scoped to this execution lets
/// sorts exceed the row budget by spilling runs to disk; a null config
/// keeps every sort in memory. When `profile` is non-null the run collects
/// per-operator stats (EXPLAIN ANALYZE): every Open()/NextBatch() is timed and
/// the profiles — one per plan node, post-order — are appended on the way
/// out, whether or not execution succeeded. With `verify_orders` set, every
/// operator whose plan node claims a non-empty order or key property runs
/// under an OrderCheckOp (see exec/order_check.h) and a violated claim
/// fails the query with kInternal. `batch_rows` sets the execution batch
/// size (ExecContext::batch_rows); 1 degenerates to single-row batches
/// through the same code path. `row_shim` must be false: true returns
/// InvalidArgument. `parallel_workers` is ignored: exchange worker counts
/// are baked into the plan. Both slots are kept only for positional
/// callers.
Result<std::vector<Row>> ExecutePlan(const PlanRef& plan,
                                     RuntimeMetrics* metrics,
                                     QueryGuard* guard = nullptr,
                                     const SpillConfig* spill_config = nullptr,
                                     std::vector<OperatorProfile>* profile =
                                         nullptr,
                                     bool verify_orders = false,
                                     int64_t batch_rows = kDefaultBatchRows,
                                     // Slots kept for positional callers.
                                     bool row_shim = false,
                                     int parallel_workers = 1);

}  // namespace ordopt

#endif  // ORDOPT_EXEC_EXECUTOR_H_
