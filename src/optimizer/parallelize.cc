#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "optimizer/planner.h"

namespace ordopt {

namespace {

bool IsLeafScan(OpKind kind) {
  return kind == OpKind::kTableScan || kind == OpKind::kIndexScan;
}

/// Chain-interior operators: single-child operators a morsel worker can run
/// over its partition with the partition's serial semantics intact. Filter
/// is trivially partitionable; IndexNLJoin probes a read-only base table per
/// outer row, so partitioning the outer stream partitions the join; in a
/// Sort the workers sort their partitions and the exchange merges the sorted
/// streams — parallel run formation, with the sorted order carried through
/// the exchange instead of re-established above it (§4.2 Test Order).
bool ChainInterior(OpKind kind) {
  return kind == OpKind::kFilter || kind == OpKind::kIndexNLJoin ||
         kind == OpKind::kSort;
}

/// True when `node` heads a parallelizable chain: a linear path of
/// chain-interior operators ending in a base-table leaf scan.
bool IsChain(const PlanNode* node) {
  while (ChainInterior(node->kind)) {
    node = node->children[0].get();
  }
  return IsLeafScan(node->kind);
}

/// The provenance order element every worker-side sort and merge key ends
/// in: ties on the user-visible key cannot span workers (each provenance
/// value — a rid or index-walk ordinal — belongs to exactly one morsel), so
/// the merged stream reproduces the serial row sequence exactly.
OrderElement ProvenanceElement() {
  return OrderElement(ProvenanceColumnId(), SortDirection::kAscending);
}

/// Deep-copies the chain for execution inside exchange workers: the leaf
/// scan becomes a morsel driver that emits the provenance column, and every
/// Sort's specification is extended with the provenance tie-break so the
/// worker-local sort equals the serial sort restricted to the partition
/// (the serial SortOp breaks ties by input order, which *is* provenance
/// order). `merge_spec` receives the topmost Sort's extended spec — the
/// order the chain's output stream actually has, hence the exchange's merge
/// key; it stays untouched for sortless chains.
PlanRef CloneChainForWorkers(const PlanNode* node, bool* saw_sort,
                             OrderSpec* merge_spec) {
  auto clone = std::make_shared<PlanNode>(*node);
  if (IsLeafScan(node->kind)) {
    clone->morsel_driver = true;
    clone->emit_provenance = true;
    return clone;
  }
  if (node->kind == OpKind::kSort) {
    OrderSpec extended = node->sort_spec;
    extended.Append(ProvenanceElement());
    clone->sort_spec = extended;
    if (!*saw_sort) {  // top-down walk: the first Sort seen is the topmost
      *saw_sort = true;
      *merge_spec = std::move(extended);
    }
  }
  clone->children = {
      CloneChainForWorkers(node->children[0].get(), saw_sort, merge_spec)};
  return clone;
}

/// Input rows per row the workers' partial group-bys are estimated to
/// emit (at most groups x workers), below which a group-by stays above the
/// exchange. A partial row carries its aggregates' states, and the final
/// merges it instead of folding a plain row, so the split pays only when
/// it shrinks the exchange's traffic enough. Measured on TPC-D SF 0.05 at
/// 4 workers (hash profile, 4-core host), splitting cost 38% at 0.8 input
/// rows per partial row, broke even at 2.5, and saved 21% at 4.5 and 39%
/// at 6.5.
constexpr double kMinInputRowsPerPartialRow = 4.0;

/// Why the hash group-by `group_by`, sitting directly over a chain, must
/// stay above the exchange of `workers` workers; nullptr when it
/// aggregates in the workers. The final merge reproduces serial results
/// only where merging partial states does: a DISTINCT aggregate would need
/// the value sets across workers; MIN/MAX keep the first-seen of equal
/// values, and across workers the first-seen partial is not always the one
/// holding it, so they are pushed only over columns whose equal values are
/// identical — int64, date and string (not double: -0.0 == 0.0, and NaN
/// compares equal to everything). A Sort in the chain makes first-seen
/// order the sort order, which the provenance merge does not reproduce.
const char* PartialAggregationBlocker(const PlanNode& group_by, int workers) {
  for (const PlanNode* n = group_by.children[0].get(); !IsLeafScan(n->kind);
       n = n->children[0].get()) {
    if (n->kind == OpKind::kSort) return "chain sorts";
  }
  for (const AggregateSpec& a : group_by.aggregates) {
    if (a.distinct) return "distinct aggregate";
    if (a.func != AggFunc::kMin && a.func != AggFunc::kMax) continue;
    const DataType type = a.arg.type();
    if (!a.arg.IsColumn() ||
        (type != DataType::kInt64 && type != DataType::kDate &&
         type != DataType::kString)) {
      return "min/max whose equal values can differ";
    }
  }
  if (group_by.children[0]->props.cardinality <
      kMinInputRowsPerPartialRow * group_by.props.cardinality * workers) {
    return "too many groups per input row";
  }
  return nullptr;
}

/// HashGroupBy(final) <- Exchange <- HashGroupBy(partial) <- the chain
/// under `group_by`, cloned for the workers (DESIGN.md §15).
PlanRef SplitAggregation(const PlanRef& group_by, int workers) {
  bool saw_sort = false;
  OrderSpec unused;
  // Neither half below the final claims an order or a key: the exchange
  // carries up to one row per group per worker.
  auto partial = std::make_shared<PlanNode>(*group_by);
  partial->agg_phase = AggPhase::kPartial;
  partial->props.order = OrderSpec();
  partial->props.keys = KeyProperty();
  partial->props.cardinality =
      std::min(group_by->props.cardinality * workers,
               group_by->children[0]->props.cardinality);
  partial->children = {CloneChainForWorkers(group_by->children[0].get(),
                                            &saw_sort, &unused)};
  auto exchange = std::make_shared<PlanNode>();
  exchange->kind = OpKind::kExchange;
  exchange->exchange_workers = workers;
  // Each worker emits its groups in first-seen order, i.e. ascending in
  // the provenance of their first rows, so the merge on provenance hands
  // the final each group's globally first-seen partial first.
  exchange->sort_spec = OrderSpec({ProvenanceElement()});
  exchange->props = partial->props;
  exchange->children = {std::move(partial)};
  auto final_agg = std::make_shared<PlanNode>(*group_by);
  final_agg->agg_phase = AggPhase::kFinal;
  final_agg->children = {std::move(exchange)};
  return final_agg;
}

}  // namespace

PlanRef Planner::Parallelize(PlanRef plan) const {
  const int workers = std::clamp(config_.parallel_workers, 1, 64);
  if (workers <= 1) return plan;

  // A hash group-by directly over a chain aggregates in the workers when
  // the final merge can reproduce the serial result.
  if (plan->kind == OpKind::kHashGroupBy && IsChain(plan->children[0].get())) {
    const char* blocker = PartialAggregationBlocker(*plan, workers);
    TracePartialAggregation(*plan, blocker);
    if (blocker == nullptr) return SplitAggregation(plan, workers);
  }

  // A maximal chain: `plan` heads one, and the caller (recursing only into
  // non-chain nodes) guarantees no eligible parent extends it upward.
  if (IsChain(plan.get())) {
    bool saw_sort = false;
    OrderSpec merge_spec;
    PlanRef worker_chain =
        CloneChainForWorkers(plan.get(), &saw_sort, &merge_spec);
    auto exchange = std::make_shared<PlanNode>();
    exchange->kind = OpKind::kExchange;
    exchange->exchange_workers = workers;
    // A sortless chain's worker streams are provenance-monotone (morsels
    // are claimed in ascending ranges), so merging on provenance alone
    // resequences them into the serial emission order, keeping parallel
    // execution deterministic and byte-identical to serial for every
    // consumer above the exchange — hence every property of the chain,
    // its order included, holds above the exchange too.
    exchange->sort_spec =
        saw_sort ? merge_spec : OrderSpec({ProvenanceElement()});
    exchange->props = plan->props;
    exchange->children = {std::move(worker_chain)};
    // The new decision site: the chain's order claim crosses the exchange
    // without a serial re-sort — the §4.2 sort-avoidance argument applied
    // to parallel recombination.
    if (!plan->props.order.empty()) {
      TraceSortDecision("exchange.merge", plan->props.order, *plan,
                        /*avoided=*/true, nullptr);
    }
    return exchange;
  }

  // Not a chain head: recurse into children, sharing untouched subtrees.
  bool changed = false;
  std::vector<PlanRef> children;
  children.reserve(plan->children.size());
  for (const PlanRef& child : plan->children) {
    PlanRef parallelized = Parallelize(child);
    changed = changed || parallelized.get() != child.get();
    children.push_back(std::move(parallelized));
  }
  if (!changed) return plan;
  auto clone = std::make_shared<PlanNode>(*plan);
  clone->children = std::move(children);
  return clone;
}

}  // namespace ordopt
