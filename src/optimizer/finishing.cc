// Box finishing: DISTINCT / required output order / projection / LIMIT on
// SELECT boxes, the GROUP BY and UNION box planners, and the grouping
// builder DISTINCT, GROUP BY and UNION DISTINCT share.

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "optimizer/planner.h"

namespace ordopt {

// ---------------------------------------------------------------------------
// Grouping: stream when adjacent, else Sort + stream, or hash
// ---------------------------------------------------------------------------

void Planner::AddGroupings(
    const Grouping& g, const PlanRef& input, bool adjacent,
    const std::function<std::vector<OrderSpec>()>& sort_specs,
    CandidateSet* out) {
  if (tracing()) {
    const std::string property = input->props.order.ToString(query_.namer());
    trace_->Add("optimizer", "order.test")
        .Set("site", g.site)
        .Set("interesting", g.requirement)
        .Set("property", property)
        .SetBool("satisfied", adjacent);
    if (adjacent) {
      trace_->Add("optimizer", "sort.avoided")
          .Set("site", g.site)
          .Set("property", property)
          .SetDouble("input_rows", input->props.cardinality);
    }
  }
  const double rows = input->props.cardinality;
  auto add = [&](OpKind kind, PlanRef child, bool preserves_order,
                 double op_cost) {
    auto node = std::make_shared<PlanNode>();
    node->kind = kind;
    g.shape(node.get(), child->props, preserves_order);
    node->props.cost = child->props.cost + op_cost;
    node->children = {std::move(child)};
    FinalInsert(out, std::move(node));
  };
  if (adjacent) {
    add(g.stream, input, true,
        cost_model_.StreamGroupByCost(rows, g.aggregates));
    if (!enumerate_keep_all_) return;
  }
  for (const OrderSpec& spec : sort_specs()) {
    TraceSortDecision(g.site, spec, *input, /*avoided=*/false, &spec);
    add(g.sorted, MakeSort(input, spec), true,
        cost_model_.StreamGroupByCost(rows, g.aggregates));
  }
  if (config_.enable_hash_grouping) {
    add(g.hash, input, false, cost_model_.HashGroupByCost(rows, g.aggregates));
  }
}

// ---------------------------------------------------------------------------
// SELECT box finishing: DISTINCT, required order, projection
// ---------------------------------------------------------------------------

std::vector<PlanRef> Planner::FinishSelectBox(
    const QgmBox* box, const std::vector<PlanRef>& bases) {
  const BoxOrderInfo& info = order_scan_.info(box);
  const OrderSpec& required = info.required_output;
  const ColumnSet out_cols = box->OutputColumns();
  std::vector<ColumnId> out_col_list;
  bool all_passthrough = true;
  for (const OutputColumn& oc : box->outputs) {
    out_col_list.push_back(oc.id);
    if (!oc.expr.IsColumn() || oc.expr.column() != oc.id) {
      all_passthrough = false;
    }
  }

  CandidateSet finished;
  // Projection and a pending LIMIT on top of an output-ordered plan.
  auto finish = [&](PlanRef v, bool limit_pending) {
    if (!all_passthrough) {
      const double rows = v->props.cardinality;
      v = MakeProject(v, box,
                      rows * cost_model_.params().cpu_eval_cost *
                          static_cast<double>(box->outputs.size()));
    }
    if (limit_pending) v = MakeLimit(v, box->limit);
    FinalInsert(&finished, std::move(v));
  };
  for (const PlanRef& base : bases) {
    std::vector<PlanRef> variants = {base};
    if (box->distinct) {
      const double dcard = std::max(1.0, base->props.cardinality * 0.5);
      const Grouping distinct{
          "distinct", "DISTINCT grouping", OpKind::kStreamDistinct,
          OpKind::kStreamDistinct, OpKind::kHashDistinct, 0,
          [&](PlanNode* node, const PlanProperties& input, bool preserves) {
            node->distinct_columns = out_cols;
            node->props =
                DistinctProperties(input, out_cols, preserves, dcard);
          }};
      bool adjacent =
          Grouped(info.distinct_requirement, out_col_list, *base) ||
          (config_.enable_order_optimization &&
           base->props.keys.IsUniqueOn(out_cols));
      CandidateSet next;
      AddGroupings(distinct, base, adjacent, [&]() -> std::vector<OrderSpec> {
        OrderSpec spec = OrderSpec::Ascending(out_col_list);
        if (config_.enable_order_optimization) {
          OrderContext ctx = base->props.Context(config_.transitive_fds);
          std::optional<OrderSpec> covered =
              info.distinct_requirement.CoverConcrete(required, ctx);
          if (tracing() && covered.has_value()) {
            const ColumnNamer namer = query_.namer();
            trace_->Add("optimizer", "order.cover")
                .Set("site", "distinct")
                .Set("i1", "DISTINCT grouping")
                .Set("i2", required.ToString(namer))
                .Set("cover", covered->ToString(namer));
          }
          spec = covered.has_value()
                     ? *covered
                     : info.distinct_requirement.DefaultSortSpec(ctx);
        }
        if (spec.empty()) return {};
        return {spec};
      }, &next);
      variants = std::move(next.mutable_plans());
    }

    const bool limited = box->limit >= 0;
    for (const PlanRef& variant : variants) {
      // Enumeration mode finishes one variant more than one way: the
      // avoided sort's explicit-sort sibling and the Top-N's sort+limit
      // sibling are the §4 alternatives the differential oracle
      // cross-checks against the optimized choice.
      PlanRef enforced = EnforceOrder("select.output", required, variant);
      if (enforced == variant) {
        finish(variant, limited);
        if (enumerate_keep_all_ && !required.empty()) {
          finish(SortFor(/*site=*/nullptr, required, variant), limited);
        }
      } else if (limited) {
        // ORDER BY + LIMIT fuse into a bounded-heap Top-N in place of the
        // Sort; the Top-N already enforces the limit.
        auto top = std::make_shared<PlanNode>(*enforced);
        top->kind = OpKind::kTopN;
        top->limit = box->limit;
        top->props.cardinality = std::min(variant->props.cardinality,
                                          static_cast<double>(box->limit));
        double n = std::max(2.0, variant->props.cardinality);
        double k = std::max(2.0, static_cast<double>(box->limit));
        top->props.cost =
            variant->props.cost +
            n * std::log2(std::min(n, k)) *
                cost_model_.params().cpu_compare_cost *
                (0.5 + 0.5 * static_cast<double>(top->sort_spec.size()));
        finish(std::move(top), false);
        if (enumerate_keep_all_) finish(enforced, true);
      } else {
        finish(enforced, false);
      }
    }
  }
  plans_retained_ += static_cast<int64_t>(finished.size());
  return std::move(finished.mutable_plans());
}

// ---------------------------------------------------------------------------
// GROUP BY box
// ---------------------------------------------------------------------------

Result<std::vector<PlanRef>> Planner::PlanGroupByBox(const QgmBox* box) {
  const BoxOrderInfo& info = order_scan_.info(box);
  ORDOPT_ASSIGN_OR_RETURN(std::vector<PlanRef> children,
                          PlanBox(box->quantifiers[0].input));

  ColumnSet agg_outputs;
  for (const AggregateSpec& a : box->aggregates) agg_outputs.Add(a.output);

  CandidateSet out;
  for (const PlanRef& child : children) {
    const double card = cost_model_.GroupCardinality(
        box->group_columns, child->props.cardinality, query_);
    const Grouping group_by{
        "groupby", "GROUP BY grouping", OpKind::kStreamGroupBy,
        OpKind::kSortGroupBy, OpKind::kHashGroupBy, box->aggregates.size(),
        [&](PlanNode* node, const PlanProperties& input, bool preserves) {
          node->group_columns = box->group_columns;
          node->aggregates = box->aggregates;
          node->props = GroupByProperties(input, box->group_columns,
                                          agg_outputs, preserves, card);
        }};
    bool adjacent = Grouped(info.grouping_requirement, box->group_columns,
                            *child);
    AddGroupings(group_by, child, adjacent, [&] {
      std::vector<OrderSpec> specs;
      if (!config_.enable_order_optimization) {
        specs.push_back(OrderSpec::Ascending(box->group_columns));
        return specs;
      }
      // The preferred sorts cover the grouping with orders wanted above,
      // so one sort can serve both.
      OrderContext ctx = child->props.Context(config_.transitive_fds);
      for (const OrderSpec& pref : info.preferred_sorts) {
        OrderSpec reduced = reduce_cache_.Reduce(pref, ctx);
        TraceReduce("groupby.preferred", pref, reduced, ctx);
        if (!reduced.empty() &&
            std::find(specs.begin(), specs.end(), reduced) == specs.end()) {
          specs.push_back(reduced);
        }
      }
      if (specs.empty()) {
        OrderSpec fallback = info.grouping_requirement.DefaultSortSpec(ctx);
        if (!fallback.empty()) specs.push_back(fallback);
      }
      return specs;
    }, &out);
  }
  plans_retained_ += static_cast<int64_t>(out.size());
  return std::move(out.mutable_plans());
}

// ---------------------------------------------------------------------------
// UNION box
// ---------------------------------------------------------------------------

Result<std::vector<PlanRef>> Planner::PlanUnionBox(const QgmBox* box) {
  const BoxOrderInfo& info = order_scan_.info(box);
  ColumnSet out_cols = box->OutputColumns();

  // Ensures a branch plan produces exactly its box outputs, in order.
  auto projected = [&](PlanRef plan, const QgmBox* branch) -> PlanRef {
    if (plan->kind == OpKind::kProject &&
        plan->projections.size() == branch->outputs.size()) {
      bool same = true;
      for (size_t i = 0; i < branch->outputs.size(); ++i) {
        if (!(plan->projections[i].id == branch->outputs[i].id)) same = false;
      }
      if (same) return plan;
    }
    return MakeProject(plan, branch,
                       plan->props.cardinality *
                           cost_model_.params().cpu_eval_cost);
  };

  // Per branch: the cheapest plan, and (order optimization only) the
  // cheapest plan delivering the all-columns ascending order that the
  // merge union needs.
  std::vector<PlanRef> cheapest;
  std::vector<PlanRef> ordered;
  double total_card = 0.0;
  for (const Quantifier& q : box->quantifiers) {
    const QgmBox* branch = q.input;
    ORDOPT_ASSIGN_OR_RETURN(std::vector<PlanRef> plans, PlanBox(branch));
    PlanRef best;
    for (const PlanRef& p : plans) {
      if (best == nullptr || p->props.cost < best->props.cost) best = p;
    }
    PlanRef best_proj = projected(best, branch);
    cheapest.push_back(best_proj);
    total_card += best_proj->props.cardinality;

    if (config_.enable_order_optimization && box->distinct) {
      std::vector<ColumnId> branch_cols;
      for (const OutputColumn& oc : branch->outputs) {
        branch_cols.push_back(oc.id);
      }
      OrderSpec want = OrderSpec::Ascending(branch_cols);
      PlanRef best_ordered;
      for (const PlanRef& p : plans) {
        if (!OrderSatisfied(want, *p)) continue;
        if (best_ordered == nullptr ||
            p->props.cost < best_ordered->props.cost) {
          best_ordered = p;
        }
      }
      if (best_ordered == nullptr) {
        // Sort the cheapest branch on (the reduced form of) the full list.
        best_ordered = SortFor("union.branch", want, best);
      }
      // A reduced branch sort still yields a fully lexicographically
      // sorted stream: reduction only drops columns that are constant or
      // FD-determined within the preceding prefix (§4.1's proof).
      ordered.push_back(projected(best_ordered, branch));
    }
  }
  CandidateSet candidates;

  // Plain concatenation.
  auto union_all = std::make_shared<PlanNode>();
  union_all->kind = OpKind::kUnionAll;
  union_all->projections = box->outputs;
  union_all->children = {cheapest.begin(), cheapest.end()};
  union_all->props.columns = out_cols;
  union_all->props.cardinality = std::max(1.0, total_card);
  union_all->props.cost = 0;
  for (const PlanRef& c : cheapest) union_all->props.cost += c->props.cost;
  union_all->props.cost += total_card * cost_model_.params().cpu_tuple_cost;

  if (!box->distinct) {
    candidates.mutable_plans().push_back(union_all);
  } else {
    std::vector<ColumnId> cols;
    for (const OutputColumn& oc : box->outputs) cols.push_back(oc.id);
    const double dcard = std::max(1.0, total_card * 0.7);
    const Grouping distinct{
        "union.distinct", "UNION DISTINCT grouping", OpKind::kStreamDistinct,
        OpKind::kStreamDistinct, OpKind::kHashDistinct, 0,
        [&](PlanNode* node, const PlanProperties& input, bool preserves) {
          node->distinct_columns = out_cols;
          node->props = DistinctProperties(input, out_cols, preserves, dcard);
        }};
    auto all_ascending = [&] {
      return std::vector<OrderSpec>{OrderSpec::Ascending(cols)};
    };
    // Over the concatenation: Sort + stream, or hash.
    AddGroupings(distinct, union_all, /*adjacent=*/false, all_ascending,
                 &candidates);
    // Order-optimized: merging the pre-sorted branches yields the output
    // sorted on all output columns, so the stream needs no sort.
    if (!ordered.empty()) {
      auto merge = std::make_shared<PlanNode>();
      merge->kind = OpKind::kMergeUnion;
      merge->projections = box->outputs;
      merge->children = {ordered.begin(), ordered.end()};
      merge->props.columns = out_cols;
      merge->props.cardinality = std::max(1.0, total_card);
      merge->props.order = OrderSpec::Ascending(cols);
      merge->props.cost = 0;
      for (const PlanRef& c : ordered) merge->props.cost += c->props.cost;
      merge->props.cost += total_card * cost_model_.params().cpu_compare_cost *
                           static_cast<double>(cols.size());
      AddGroupings(distinct, merge, /*adjacent=*/true, all_ascending,
                   &candidates);
    }
  }

  // Finishing: ORDER BY + LIMIT on the union.
  CandidateSet finished;
  for (PlanRef v : candidates.plans()) {
    v = EnforceOrder("union.output", info.required_output, std::move(v));
    if (box->limit >= 0) v = MakeLimit(v, box->limit);
    FinalInsert(&finished, std::move(v));
  }
  plans_retained_ += static_cast<int64_t>(finished.size());
  return std::move(finished.mutable_plans());
}

}  // namespace ordopt
