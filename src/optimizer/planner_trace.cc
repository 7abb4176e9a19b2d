// Trace emission for planner decision sites. Each helper is a no-op without
// a collector, so the untraced planning path costs one null check.

#include "optimizer/planner.h"

#include "common/str_util.h"

namespace ordopt {

namespace {

std::string ColName(const ColumnNamer& namer, const ColumnId& col) {
  return namer ? namer(col) : DefaultColumnName(col);
}

}  // namespace

void Planner::TraceReduce(const char* site, const OrderSpec& interesting,
                          const OrderSpec& reduced,
                          const OrderContext& octx) const {
  if (trace_ == nullptr || reduced == interesting) return;
  // Re-run the reduction with step reporting — only paid when tracing and
  // the spec actually changed.
  std::vector<ReduceStep> steps;
  ReduceOrder(interesting, octx, &steps);
  const ColumnNamer namer = query_.namer();
  TraceEvent& e = trace_->Add("optimizer", "order.reduce");
  e.Set("site", site);
  e.Set("requested", interesting.ToString(namer));
  e.Set("reduced", reduced.ToString(namer));
  std::vector<std::string> detail;
  for (const ReduceStep& s : steps) {
    switch (s.action) {
      case ReduceStep::Action::kKept:
        break;
      case ReduceStep::Action::kHeadSubstituted:
        detail.push_back(ColName(namer, s.original) + "->" +
                         ColName(namer, s.column) + " (eq-class head)");
        break;
      case ReduceStep::Action::kRemovedDetermined:
        detail.push_back(ColName(namer, s.original) +
                         " removed (constant/FD-determined)");
        break;
    }
  }
  if (!detail.empty()) e.Set("steps", Join(detail, "; "));
}

void Planner::TraceOrderTest(const char* site, const OrderSpec& interesting,
                             const PlanNode& plan, bool satisfied) const {
  if (trace_ == nullptr || interesting.empty()) return;
  const ColumnNamer namer = query_.namer();
  trace_->Add("optimizer", "order.test")
      .Set("site", site)
      .Set("interesting", interesting.ToString(namer))
      .Set("property", plan.props.order.ToString(namer))
      .SetBool("satisfied", satisfied);
}

void Planner::TraceSortDecision(const char* site, const OrderSpec& interesting,
                                const PlanNode& input, bool avoided,
                                const OrderSpec* sort_spec) const {
  if (trace_ == nullptr || interesting.empty()) return;
  const ColumnNamer namer = query_.namer();
  if (avoided) {
    // Surface the reduction that let the existing order satisfy the
    // requirement (Test Order reduces internally, so nothing else
    // reports it on this path).
    if (config_.enable_order_optimization) {
      OrderContext octx = input.props.Context(config_.transitive_fds);
      TraceReduce(site, interesting, reduce_cache_.Reduce(interesting, octx),
                  octx);
    }
    trace_->Add("optimizer", "sort.avoided")
        .Set("site", site)
        .Set("interesting", interesting.ToString(namer))
        .Set("property", input.props.order.ToString(namer))
        .SetDouble("input_rows", input.props.cardinality);
    return;
  }
  size_t width = sort_spec != nullptr ? sort_spec->size() : interesting.size();
  TraceEvent& e = trace_->Add("optimizer", "sort.placed");
  e.Set("site", site);
  e.Set("interesting", interesting.ToString(namer));
  if (sort_spec != nullptr) e.Set("spec", sort_spec->ToString(namer));
  e.SetDouble("input_rows", input.props.cardinality);
  e.SetDouble("est_cost", cost_model_.SortCost(input.props.cardinality, width));
}

void Planner::TraceSortAhead(const char* site, const OrderSpec& spec,
                             const PlanNode& plan, bool retained) const {
  if (trace_ == nullptr) return;
  trace_->Add("optimizer",
              retained ? "sortahead.candidate" : "sortahead.pruned")
      .Set("site", site)
      .Set("spec", spec.ToString(query_.namer()))
      .SetDouble("est_cost", plan.props.cost)
      .SetDouble("est_rows", plan.props.cardinality);
}

void Planner::TracePartialAggregation(const PlanNode& group_by,
                                      const char* blocker) const {
  if (trace_ == nullptr) return;
  TraceEvent& e = trace_->Add("optimizer", "agg.partial");
  e.Set("site", "exchange.partial_agg");
  e.SetBool("pushed", blocker == nullptr);
  if (blocker != nullptr) e.Set("reason", blocker);
  e.SetDouble("input_rows", group_by.children[0]->props.cardinality);
  e.SetDouble("groups", group_by.props.cardinality);
}

}  // namespace ordopt
