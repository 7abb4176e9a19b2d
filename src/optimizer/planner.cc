// Planner orchestration and the order enforcer (Test Order, then Sort only
// when it fails). The heavy lifting lives in sibling translation units:
// access_paths.cc (leaf access paths, node constructors),
// join_enumeration.cc (the System-R DP over quantifier masks, JoinStrategy
// implementations, outer-join folding), finishing.cc (DISTINCT / output
// order / projection, GROUP BY and UNION boxes), planner_trace.cc (decision
// tracing), and memo.{h,cc} (CandidateSet domination, memo groups).

#include "optimizer/planner.h"

#include <algorithm>

#include "common/fault_injection.h"
#include "common/macros.h"
#include "optimizer/join_enumeration.h"

namespace ordopt {

namespace {

// Naive order comparison used by the disabled baseline: exact column and
// direction prefix, no reduction, no equivalence classes.
bool NaiveSatisfied(const OrderSpec& interesting, const OrderSpec& property) {
  return interesting.IsPrefixOf(property);
}

}  // namespace

Planner::Planner(const Query& query, OptimizerConfig config,
                 TraceCollector* trace)
    : query_(query),
      config_(config),
      cost_model_(config.cost_params),
      order_scan_(query, config.enable_order_optimization),
      trace_(trace) {
  order_scan_.Run();
}

bool Planner::OrderSatisfied(const OrderSpec& interesting,
                             const PlanNode& plan) const {
  if (interesting.empty()) return true;
  // Mutation seam for the verification oracles: a deliberately wrong test
  // injected here corrupts every decision taken through this test
  // (domination, every EnforceOrder site, sort-ahead), and the oracles must
  // catch the fallout.
  if (config_.order_test_override != nullptr) {
    return config_.order_test_override->Satisfies(interesting, plan);
  }
  if (!config_.enable_order_optimization) {
    return NaiveSatisfied(interesting, plan.props.order);
  }
  OrderContext ctx = plan.props.Context(config_.transitive_fds);
  return reduce_cache_.Test(interesting, plan.props.order, ctx);
}

OrderSpec Planner::SortSpecFor(const OrderSpec& interesting,
                               const PlanNode& input) const {
  if (!config_.enable_order_optimization) return interesting;
  OrderContext ctx = input.props.Context(config_.transitive_fds);
  // The memoized reduction: when OrderSatisfied already reduced this
  // (interesting, context) pair at the same decision site, this lookup is
  // the hit that makes one reduction serve both the test and the sort key.
  OrderSpec reduced = reduce_cache_.Reduce(interesting, ctx);
  TraceReduce("sort.spec", interesting, reduced, ctx);
  // Reduction rewrites to equivalence-class heads, which need not be
  // visible in this stream (e.g. the head lives in a table the group-by
  // projected away). Substitute a visible class member for the executor.
  OrderSpec visible;
  for (const OrderElement& e : reduced) {
    std::optional<ColumnId> member = input.props.eq().VisibleMember(
        e.col,
        [&](const ColumnId& m) { return input.props.columns.Contains(m); });
    // An unsubstitutable column stays; the caller validates visibility.
    visible.Append(OrderElement(member.value_or(e.col), e.dir));
  }
  return visible;
}

PlanRef Planner::EnforceOrder(const char* site, const OrderSpec& interesting,
                              PlanRef input) {
  bool satisfied = OrderSatisfied(interesting, *input);
  TraceOrderTest(site, interesting, *input, satisfied);
  if (!satisfied) return SortFor(site, interesting, std::move(input));
  TraceSortDecision(site, interesting, *input, /*avoided=*/true, nullptr);
  return input;
}

PlanRef Planner::SortFor(const char* site, const OrderSpec& interesting,
                         PlanRef input) {
  OrderSpec spec = SortSpecFor(interesting, *input);
  if (spec.empty()) spec = interesting;
  if (site != nullptr) {
    TraceSortDecision(site, interesting, *input, /*avoided=*/false, &spec);
  }
  return MakeSort(std::move(input), std::move(spec));
}

bool Planner::Grouped(const GeneralOrderSpec& requirement,
                      const std::vector<ColumnId>& columns,
                      const PlanNode& input) const {
  if (!config_.enable_order_optimization) {
    return NaiveSatisfied(OrderSpec::Ascending(columns), input.props.order);
  }
  return requirement.Satisfies(input.props.order,
                               input.props.Context(config_.transitive_fds)) ||
         input.props.IsOneRecord();
}

bool Planner::InsertCandidate(CandidateSet* candidates, PlanRef plan) {
  ++plans_generated_;
  return candidates->Insert(std::move(plan), domination_);
}

void Planner::FinalInsert(CandidateSet* candidates, PlanRef plan) {
  if (enumerate_keep_all_) {
    ++plans_generated_;
    candidates->mutable_plans().push_back(std::move(plan));
    return;
  }
  InsertCandidate(candidates, std::move(plan));
}

// ---------------------------------------------------------------------------
// SELECT box: leaf seeding, DP join enumeration, outer joins, finishing
// ---------------------------------------------------------------------------

Result<std::vector<PlanRef>> Planner::PlanSelectBox(const QgmBox* box) {
  const BoxOrderInfo& info = order_scan_.info(box);
  const size_t n = box->quantifiers.size();
  if (n == 0) return Status::Unsupported("SELECT box without quantifiers");
  if (n > 16) return Status::Unsupported("joins of more than 16 tables");

  SelectContext sctx =
      SelectContext::Build(box, info, config_.max_sort_ahead_orders);
  Memo memo;

  // Seed the memo's single-quantifier groups with access paths, pinning
  // every candidate of a mask to the mask's deterministic cardinality so
  // pruning compares like with like.
  for (size_t i = 0; i < n; ++i) {
    const Quantifier& q = box->quantifiers[i];
    ORDOPT_ASSIGN_OR_RETURN(CandidateSet leafs,
                            AccessPaths(box, q, sctx.local_preds[i]));
    SortAhead(q.IsBase() ? "leaf" : "derived", sctx, sctx.qcols[i], &leafs);
    if (leafs.empty()) {
      return Status::Internal("no access path for quantifier " + q.alias);
    }
    sctx.mask_card[1u << i] = leafs.plans().front()->props.cardinality;
    CandidateSet& group = memo.Group(1u << i);
    for (const PlanRef& p : leafs.plans()) {
      // All candidates of one mask share the deterministic estimate. Leaf
      // seeding bypasses domination exactly as the historical DP did.
      auto fixed = std::make_shared<PlanNode>(*p);
      fixed->props.cardinality = sctx.mask_card[1u << i];
      group.mutable_plans().push_back(std::move(fixed));
    }
  }

  EnumerateJoins(&sctx, &memo);

  const uint32_t full = (1u << n) - 1;
  const CandidateSet* full_group = memo.FindGroup(full);
  if (full_group == nullptr || full_group->empty()) {
    return Status::Internal("join enumeration produced no plan");
  }

  // LEFT OUTER JOIN steps (applied in syntax order), with the predicates
  // deferred past each step filtered in right after it.
  std::vector<PlanRef> current = full_group->plans();
  for (size_t s = 0; s < box->outer_joins.size(); ++s) {
    ORDOPT_ASSIGN_OR_RETURN(
        current, FoldOuterJoin(box, box->outer_joins[s], std::move(current)));
    if (!sctx.deferred[s].empty()) {
      CandidateSet filtered;
      for (const PlanRef& p : current) {
        InsertCandidate(&filtered, MakeFilter(p, sctx.deferred[s]));
      }
      current = std::move(filtered.mutable_plans());
    }
  }

  return FinishSelectBox(box, current);
}

Result<std::vector<PlanRef>> Planner::PlanBox(const QgmBox* box) {
  // Models an allocation failure while the planner expands candidates.
  ORDOPT_FAULT_POINT("planner.alloc");
  if (box->kind == QgmBox::Kind::kGroupBy) return PlanGroupByBox(box);
  if (box->kind == QgmBox::Kind::kUnion) return PlanUnionBox(box);
  return PlanSelectBox(box);
}

// Finishes a root-group candidate the way the chosen plan is finished:
// anything that is not already the output Project gets wrapped in one, so
// every enumerated candidate produces the query's declared output columns.
PlanRef Planner::FinishRootCandidate(PlanRef candidate) const {
  if (candidate->kind == OpKind::kProject) return candidate;
  return MakeProject(std::move(candidate), query_.root, /*op_cost=*/0.0);
}

Result<PlanRef> Planner::BuildPlan() {
  ORDOPT_ASSIGN_OR_RETURN(std::vector<PlanRef> candidates,
                          PlanBox(query_.root));
  ORDOPT_CHECK(!candidates.empty());
  PlanRef best = *std::min_element(candidates.begin(), candidates.end(),
                                   [](const PlanRef& a, const PlanRef& b) {
                                     return a->props.cost < b->props.cost;
                                   });
  best = FinishRootCandidate(std::move(best));
  // Morsel-parallel post-pass on the chosen plan only. EnumerateAllPlans
  // stays serial: the oracle compares plan alternatives, not schedulers.
  // Degraded mode must not multiply the per-query memory footprint by the
  // worker count.
  if (config_.parallel_workers > 1 && !config_.degraded_mode) {
    best = Parallelize(std::move(best));
  }
  if (tracing()) {
    trace_->Add("optimizer", "plan.chosen")
        .SetDouble("est_cost", best->props.cost)
        .SetDouble("est_rows", best->props.cardinality)
        .SetInt("nodes", best->NodeCount())
        .SetInt("plans_generated", plans_generated_)
        .SetInt("plans_retained", plans_retained_)
        .SetInt("reduce_cache_hits", reduce_cache_.hits())
        .SetInt("reduce_cache_misses", reduce_cache_.misses());
  }
  return best;
}

Result<std::vector<PlanRef>> Planner::EnumerateAllPlans(size_t budget) {
  // Enumeration mode: the finishers' FinalInsert keeps every survivor of
  // the memo's interior domination instead of collapsing the finished set
  // (identical order after the output sort ⇒ cost-only domination would
  // leave exactly one plan).
  enumerate_keep_all_ = true;
  Result<std::vector<PlanRef>> enumerated = PlanBox(query_.root);
  enumerate_keep_all_ = false;
  if (!enumerated.ok()) return enumerated.status();
  std::vector<PlanRef> candidates = std::move(enumerated).value();
  ORDOPT_CHECK(!candidates.empty());
  // Winner first (ties break toward the earliest candidate, matching
  // min_element in BuildPlan), then the survivors in enumeration order.
  size_t best = 0;
  for (size_t i = 1; i < candidates.size(); ++i) {
    if (candidates[i]->props.cost < candidates[best]->props.cost) best = i;
  }
  std::swap(candidates[0], candidates[best]);
  if (candidates.size() > budget) candidates.resize(budget);
  for (PlanRef& plan : candidates) {
    plan = FinishRootCandidate(std::move(plan));
  }
  return candidates;
}

}  // namespace ordopt
