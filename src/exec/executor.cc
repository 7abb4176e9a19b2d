#include "exec/executor.h"

#include "common/fault_injection.h"
#include "common/str_util.h"
#include "exec/order_check.h"
#include "exec/parallel/exchange.h"

namespace ordopt {

namespace {

/// What a node's parent requires of its output. `all` short-circuits
/// pruning: the root must surface every column, and UNION branches feed a
/// positional layout that must stay intact.
struct RequiredColumns {
  bool all = true;
  ColumnSet cols;
};

/// Columns a plan node itself reads from its inputs: predicates, sort
/// keys, join keys, grouping columns, aggregate arguments, projection
/// expressions. Under order verification, a node's asserted order/key
/// properties are checked against its own output, so those columns count
/// as consumed too — pruning must not weaken a check it could keep.
ColumnSet NodeOwnColumns(const PlanNode& plan, bool verify_orders) {
  ColumnSet own;
  for (const Predicate& p : plan.predicates) own = own.Union(p.referenced);
  for (const Predicate& p : plan.range_predicates) {
    own = own.Union(p.referenced);
  }
  for (const OrderElement& e : plan.sort_spec) own.Add(e.col);
  for (const auto& [o, i] : plan.join_pairs) {
    own.Add(o);
    own.Add(i);
  }
  for (const ColumnId& c : plan.group_columns) own.Add(c);
  for (const AggregateSpec& a : plan.aggregates) {
    // A final aggregation reads each aggregate's partial state, in the
    // column of the aggregate's output.
    if (plan.agg_phase == AggPhase::kFinal) {
      own.Add(a.output);
    } else if (!a.count_star) {
      a.arg.CollectColumns(&own);
    }
  }
  if (plan.agg_phase == AggPhase::kPartial) own.Add(ProvenanceColumnId());
  for (const ColumnId& c : plan.distinct_columns) own.Add(c);
  for (const OutputColumn& oc : plan.projections) {
    oc.expr.CollectColumns(&own);
  }
  if (verify_orders) {
    own = own.Union(plan.props.order.Columns());
    for (const ColumnSet& key : plan.props.keys.keys()) {
      own = own.Union(key);
    }
  }
  return own;
}

/// Whether a SortGroupBy aggregates in its child sort (DESIGN.md §14,
/// "In-sort aggregation"). Not over an exchange and not with a DISTINCT
/// aggregate, whose value sets every resident group would hold at once.
bool AggregatesInSort(const PlanNode& plan) {
  if (plan.kind != OpKind::kSortGroupBy || plan.group_columns.empty() ||
      plan.children[0]->kind != OpKind::kSort) {
    return false;
  }
  for (const AggregateSpec& a : plan.aggregates) {
    if (a.distinct) return false;
  }
  return true;
}

/// Builds `plan`'s operator; `*unwrapped` (when given) receives it before
/// any OrderCheckOp wrapping.
Result<OperatorPtr> BuildTree(const PlanRef& plan, ExecContext ctx,
                              const RequiredColumns& required,
                              Operator** unwrapped = nullptr) {
  // Effective requirement on this node's output: what the parent needs
  // plus what the node itself touches. Scans prune their emitted columns
  // down to it; everything else derives its layout from its children and
  // narrows automatically.
  RequiredColumns eff = required;
  if (!eff.all) {
    eff.cols = eff.cols.Union(NodeOwnColumns(*plan, ctx.verify_orders));
  }

  if (plan->kind == OpKind::kExchange) {
    // The child chain is NOT built through the loop below: ExchangeOp
    // constructs one copy of it per worker against worker-private contexts
    // (registering worker 0's copy with the registry first, preserving
    // post-order). The requirement computed here reaches the worker scans,
    // so pruning through an exchange matches the serial build.
    const ColumnSet* prune = eff.all ? nullptr : &eff.cols;
    OperatorPtr built(new ExchangeOp(*plan, ctx, prune));
    if (ctx.guard != nullptr && !ctx.guard->ok()) {
      return ctx.guard->status();
    }
    if (ctx.op_registry != nullptr) {
      ctx.op_registry->push_back({plan.get(), built.get()});
    }
    if (ctx.verify_orders &&
        (!plan->props.order.empty() || !plan->props.keys.empty())) {
      built = OperatorPtr(new OrderCheckOp(std::move(built), *plan, ctx));
    }
    return built;
  }

  // Requirement passed to the children.
  RequiredColumns child_req;
  switch (plan->kind) {
    case OpKind::kProject:
    case OpKind::kStreamGroupBy:
    case OpKind::kSortGroupBy:
    case OpKind::kHashGroupBy:
      // Output columns are fresh (expressions, aggregates): whatever the
      // parent wants maps below only through this node's own inputs.
      child_req.all = false;
      child_req.cols = NodeOwnColumns(*plan, ctx.verify_orders);
      break;
    case OpKind::kUnionAll:
    case OpKind::kMergeUnion:
      // Branch rows are consumed positionally against the union layout.
      child_req.all = true;
      break;
    default:
      child_req = eff;
      break;
  }

  std::vector<OperatorPtr> children;
  std::vector<Operator*> unwrapped_children(plan->children.size());
  for (size_t i = 0; i < plan->children.size(); ++i) {
    ORDOPT_ASSIGN_OR_RETURN(
        OperatorPtr op, BuildTree(plan->children[i], ctx, child_req,
                                  &unwrapped_children[i]));
    children.push_back(std::move(op));
  }
  const ColumnSet* prune = eff.all ? nullptr : &eff.cols;

  OperatorPtr built;
  switch (plan->kind) {
    case OpKind::kTableScan:
    case OpKind::kIndexScan:
      built = OperatorPtr(new ScanOp(
          *plan->table, plan->table_id,
          plan->kind == OpKind::kIndexScan ? plan->index_ordinal
                                           : ScanOp::kHeap,
          plan->reverse_scan, plan->range_predicates, ctx, prune,
          plan->morsel_driver, plan->emit_provenance));
      break;
    case OpKind::kExchange:
      // Handled by the early return above; unreachable here.
      return Status::Internal("exchange reached serial operator dispatch");
    case OpKind::kFilter:
      built = OperatorPtr(
          new FilterOp(std::move(children[0]), plan->predicates, ctx));
      break;
    case OpKind::kSort:
      built = OperatorPtr(
          new SortOp(std::move(children[0]), plan->sort_spec, ctx));
      break;
    case OpKind::kMergeJoin:
    case OpKind::kMergeLeftJoin:
      built = OperatorPtr(new MergeJoinOp(
          std::move(children[0]), std::move(children[1]), plan->join_pairs,
          plan->kind == OpKind::kMergeJoin ? JoinKind::kInner
                                           : JoinKind::kLeft,
          ctx));
      break;
    case OpKind::kHashJoin:
    case OpKind::kHashLeftJoin:
      built = OperatorPtr(new HashJoinOp(
          std::move(children[0]), std::move(children[1]), plan->join_pairs,
          plan->kind == OpKind::kHashJoin ? JoinKind::kInner
                                          : JoinKind::kLeft,
          ctx));
      break;
    case OpKind::kNaiveNLJoin:
      // Cartesian product: the join's residual predicates sit in a Filter
      // above it.
      built = OperatorPtr(new NaiveNLJoinOp(std::move(children[0]),
                                            std::move(children[1]), {},
                                            JoinKind::kInner, ctx));
      break;
    case OpKind::kNaiveLeftJoin:
      built = OperatorPtr(new NaiveNLJoinOp(std::move(children[0]),
                                            std::move(children[1]),
                                            plan->predicates,
                                            JoinKind::kLeft, ctx));
      break;
    case OpKind::kIndexNLJoin:
      built = OperatorPtr(new IndexNLJoinOp(std::move(children[0]),
                                            *plan->table, plan->table_id,
                                            plan->index_ordinal,
                                            plan->join_pairs, ctx, prune));
      break;
    case OpKind::kStreamGroupBy:
    case OpKind::kSortGroupBy: {
      auto* group_by = new StreamGroupByOp(
          std::move(children[0]), plan->group_columns, plan->aggregates, ctx);
      built = OperatorPtr(group_by);
      if (AggregatesInSort(*plan)) {
        group_by->AggregateInSort(
            static_cast<SortOp*>(unwrapped_children[0]));
      }
      break;
    }
    case OpKind::kHashGroupBy:
      built = OperatorPtr(new HashGroupByOp(std::move(children[0]),
                                            plan->group_columns,
                                            plan->aggregates, ctx,
                                            plan->agg_phase));
      break;
    case OpKind::kStreamDistinct:
      built = OperatorPtr(new StreamDistinctOp(std::move(children[0]),
                                               plan->distinct_columns, ctx));
      break;
    case OpKind::kHashDistinct:
      built = OperatorPtr(new HashDistinctOp(std::move(children[0]),
                                             plan->distinct_columns, ctx));
      break;
    case OpKind::kProject:
      built = OperatorPtr(
          new ProjectOp(std::move(children[0]), plan->projections, ctx));
      break;
    case OpKind::kLimit:
      built = OperatorPtr(
          new LimitOp(std::move(children[0]), plan->limit, ctx));
      break;
    case OpKind::kTopN:
      built = OperatorPtr(new TopNOp(std::move(children[0]), plan->sort_spec,
                                     plan->limit, ctx));
      break;
    case OpKind::kUnionAll:
    case OpKind::kMergeUnion: {
      std::vector<ColumnId> layout;
      for (const OutputColumn& oc : plan->projections) {
        layout.push_back(oc.id);
      }
      if (plan->kind == OpKind::kUnionAll) {
        built = OperatorPtr(
            new UnionAllOp(std::move(children), std::move(layout), ctx));
      } else {
        built = OperatorPtr(
            new MergeUnionOp(std::move(children), std::move(layout), ctx));
      }
      break;
    }
  }
  if (built == nullptr) {
    return Status::Internal(
        StrFormat("unknown operator kind %d", static_cast<int>(plan->kind)));
  }
  // Constructors report planner bugs (e.g. a column missing from a child
  // layout) by poisoning the guard; surface them before the tree can run.
  if (ctx.guard != nullptr && !ctx.guard->ok()) {
    return ctx.guard->status();
  }
  if (ctx.op_registry != nullptr) {
    ctx.op_registry->push_back({plan.get(), built.get()});
  }
  if (unwrapped != nullptr) *unwrapped = built.get();
  // Wrap after the registry push so EXPLAIN ANALYZE keeps pairing plan
  // nodes with the operators that actually execute them; the checker is a
  // pure pass-through observer of this node's asserted properties.
  if (ctx.verify_orders &&
      (!plan->props.order.empty() || !plan->props.keys.empty())) {
    built = OperatorPtr(new OrderCheckOp(std::move(built), *plan, ctx));
  }
  return built;
}

}  // namespace

Result<OperatorPtr> BuildOperatorTree(const PlanRef& plan, ExecContext ctx,
                                     const ColumnSet* required) {
  // Without a requirement the root surfaces every output column; pruning
  // starts below the first projection or aggregation, where the useful
  // column set narrows.
  RequiredColumns req;
  if (required != nullptr) {
    req.all = false;
    req.cols = *required;
  }
  return BuildTree(plan, ctx, req);
}

Result<std::vector<Row>> ExecutePlan(const PlanRef& plan,
                                     RuntimeMetrics* metrics,
                                     QueryGuard* guard,
                                     const SpillConfig* spill_config,
                                     std::vector<OperatorProfile>* profile,
                                     bool verify_orders, int64_t batch_rows,
                                     bool row_shim,
                                     int /*parallel_workers*/) {
  if (row_shim) {
    return Status::InvalidArgument(
        "row-at-a-time execution was removed; row_shim must be false");
  }
  // An unlimited local guard keeps the error channel available (poison,
  // fault injection) even for callers that configured no limits.
  QueryGuard local_guard;
  if (guard == nullptr) guard = &local_guard;
  guard->Arm();

  // Declared before the operator tree so operators close (releasing their
  // spill runs) before the manager goes away.
  std::unique_ptr<SpillManager> spill;
  if (spill_config != nullptr) {
    spill = std::make_unique<SpillManager>(*spill_config, metrics);
  }

  ExecContext ctx(metrics, guard, spill.get());
  ctx.verify_orders = verify_orders;
  ctx.batch_rows = batch_rows > 0 ? batch_rows : 1;
  std::vector<std::pair<const PlanNode*, Operator*>> registry;
  if (profile != nullptr) {
    ctx.collect_op_stats = true;
    ctx.op_registry = &registry;
  }
  ORDOPT_ASSIGN_OR_RETURN(OperatorPtr root, BuildOperatorTree(plan, ctx));
  root->Open();
  std::vector<Row> rows;
  RowBatch batch;
  bool tripped = false;
  while (!tripped && guard->ok()) {
    if (ctx.InjectFault("exec.operator.next")) break;
    if (!root->NextBatch(&batch)) break;
    for (int64_t i = 0; i < batch.size(); ++i) {
      // The site fires once per row pulled from the root, as in the
      // row-at-a-time drain; the outer probe covers each batch's first row.
      if (i > 0 && ctx.InjectFault("exec.operator.next")) {
        tripped = true;
        break;
      }
      ++metrics->rows_produced;
      // Guard semantics are per row: the row that trips the limit is
      // counted but not returned, exactly as in the row-at-a-time drain.
      if (!guard->OnRowProduced()) {
        tripped = true;
        break;
      }
      rows.push_back(batch.TakeRow(i));
    }
  }
  root->Close();
  // Harvest stats after Close so teardown work (spill cleanup) is final,
  // but before the tree is destroyed. The registry's pointers reference
  // operators owned (transitively) by `root`.
  if (profile != nullptr) {
    for (const auto& [node, op] : registry) {
      profile->push_back(OperatorProfile{node, op->stats()});
    }
  }
  // A query that finished under the periodic check interval still honors a
  // tiny deadline or a pending cancellation.
  guard->ForceCheck();
  guard->ReportTo(metrics);
  if (!guard->ok()) return guard->status();
  return rows;
}

}  // namespace ordopt
