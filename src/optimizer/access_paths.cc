// Leaf access-path generation: heap scans, forward/reverse index scans with
// range-predicate absorption, derived-quantifier plans, and sort-ahead at
// the leaves (§5.2), plus the Sort/Filter node constructors they share with
// the rest of the planner.

#include <algorithm>

#include "common/macros.h"
#include "optimizer/join_enumeration.h"
#include "optimizer/planner.h"

namespace ordopt {

PlanRef Planner::MakeSort(PlanRef input, OrderSpec spec) {
  auto node = std::make_shared<PlanNode>();
  node->kind = OpKind::kSort;
  node->sort_spec = spec;
  node->props = SortProperties(input->props, spec);
  node->props.cost = input->props.cost +
                     cost_model_.SortCost(input->props.cardinality,
                                          spec.size());
  node->children.push_back(std::move(input));
  return node;
}

PlanRef Planner::MakeFilter(PlanRef input, std::vector<Predicate> preds,
                            const QgmBox* box) {
  (void)box;
  if (preds.empty()) return input;
  auto node = std::make_shared<PlanNode>();
  node->kind = OpKind::kFilter;
  node->props = input->props;
  double sel = 1.0;
  for (const Predicate& p : preds) {
    sel *= cost_model_.Selectivity(p, query_);
  }
  // Apply each predicate's equivalence/constant effects; cardinality is
  // scaled once below.
  for (const Predicate& p : preds) {
    ApplyPredicate(&node->props, p, 1.0);
  }
  node->props.cardinality = std::max(1.0, input->props.cardinality * sel);
  node->props.cost = input->props.cost +
                     cost_model_.FilterCost(input->props.cardinality,
                                            preds.size());
  node->predicates = std::move(preds);
  node->children.push_back(std::move(input));
  return node;
}

CandidateSet Planner::BaseAccessPaths(
    const QgmBox* box, const Quantifier& q,
    const std::vector<const Predicate*>& local_preds,
    const std::vector<OrderSpec>& sort_ahead) {
  CandidateSet out;
  const Table& table = *q.table;
  PlanProperties base_props = BaseTableProperties(table, q.id);

  auto apply_locals = [&](PlanRef scan,
                          const std::vector<const Predicate*>& remaining) {
    std::vector<Predicate> preds;
    for (const Predicate* p : remaining) preds.push_back(*p);
    return MakeFilter(std::move(scan), std::move(preds), box);
  };

  // Heap scan.
  {
    auto node = std::make_shared<PlanNode>();
    node->kind = OpKind::kTableScan;
    node->table = &table;
    node->table_id = q.id;
    node->props = base_props;
    node->props.cost = cost_model_.TableScanCost(table);
    InsertCandidate(&out, apply_locals(node, local_preds));
  }

  // Index scans.
  for (size_t i = 0; i < table.def().indexes.size(); ++i) {
    const IndexDef& idx = table.def().indexes[i];
    // The order an index scan provides.
    OrderSpec fwd_order;
    for (size_t k = 0; k < idx.column_ordinals.size(); ++k) {
      fwd_order.Append(OrderElement(ColumnId(q.id, idx.column_ordinals[k]),
                                    idx.directions[k]));
    }
    OrderSpec rev_order;
    for (const OrderElement& e : fwd_order) {
      rev_order.Append(OrderElement(e.col, Reverse(e.dir)));
    }

    // Split local predicates into those the index prefix can absorb as a
    // range (equality chain on leading columns plus at most one comparison
    // on the next) and the rest.
    std::vector<const Predicate*> range_preds;
    std::vector<const Predicate*> residual = local_preds;
    size_t prefix = 0;
    bool range_open = false;
    while (prefix < idx.column_ordinals.size() && !range_open) {
      ColumnId col(q.id, idx.column_ordinals[prefix]);
      const Predicate* taken = nullptr;
      for (const Predicate* p : residual) {
        if (p->kind == Predicate::Kind::kColEqConst && p->left_col == col) {
          taken = p;
          break;
        }
      }
      if (taken == nullptr) {
        for (const Predicate* p : residual) {
          if (p->kind == Predicate::Kind::kColCmpConst &&
              p->left_col == col && p->cmp != BinOp::kNe) {
            taken = p;
            range_open = true;
            break;
          }
        }
      }
      if (taken == nullptr) break;
      range_preds.push_back(taken);
      residual.erase(std::find(residual.begin(), residual.end(), taken));
      if (!range_open) ++prefix;
    }

    double sel = 1.0;
    for (const Predicate* p : range_preds) {
      sel *= cost_model_.Selectivity(*p, query_);
    }
    double range_rows =
        std::max(1.0, static_cast<double>(table.row_count()) * sel);

    for (bool reverse : {false, true}) {
      // Reverse scans are full scans only (the executor does not run range
      // bounds backwards), and only worth generating when some requirement
      // wants the reversed order.
      if (reverse && !range_preds.empty()) continue;
      if (reverse) {
        bool useful = false;
        const OrderSpec& probe = rev_order;
        const BoxOrderInfo& info = order_scan_.info(box);
        for (const OrderSpec& want : info.sort_ahead) {
          if (!want.empty() && !probe.empty() &&
              want.at(0).dir == probe.at(0).dir &&
              want.at(0).col == probe.at(0).col) {
            useful = true;
          }
        }
        if (!info.required_output.empty() && !probe.empty() &&
            info.required_output.at(0) == probe.at(0)) {
          useful = true;
        }
        if (!useful) continue;
      }
      auto node = std::make_shared<PlanNode>();
      node->kind = OpKind::kIndexScan;
      node->table = &table;
      node->table_id = q.id;
      node->index_ordinal = static_cast<int>(i);
      node->reverse_scan = reverse;
      node->props = base_props;
      node->props.order = reverse ? rev_order : fwd_order;
      if (range_preds.empty()) {
        node->props.cost = cost_model_.IndexFullScanCost(table, idx.clustered);
      } else {
        for (const Predicate* p : range_preds) {
          node->range_predicates.push_back(*p);
          ApplyPredicate(&node->props, *p, 1.0);
        }
        node->props.cardinality = range_rows;
        node->props.cost =
            cost_model_.IndexRangeScanCost(table, idx.clustered, range_rows);
      }
      InsertCandidate(&out, apply_locals(node, residual));
    }
  }

  // Sort-ahead at the leaf (§5.2): sort the access on each interesting
  // order homogenizable to this table's columns.
  if (config_.enable_order_optimization && config_.enable_sort_ahead &&
      !sort_ahead.empty() && !out.empty()) {
    PlanRef cheapest = out.Cheapest();
    const OrderContext& octx = order_scan_.info(box).optimistic_ctx;
    ColumnSet targets;
    for (size_t c = 0; c < table.def().columns.size(); ++c) {
      targets.Add(ColumnId(q.id, static_cast<int32_t>(c)));
    }
    for (const OrderSpec& want : sort_ahead) {
      OrderSpec homog = HomogenizeOrderPrefix(want, targets, *octx.eq, octx);
      if (homog.empty()) continue;
      if (tracing() && homog != want) {
        trace_->Add("optimizer", "order.homogenize")
            .Set("site", "leaf")
            .Set("requested", want.ToString(query_.namer()))
            .Set("translated", homog.ToString(query_.namer()));
      }
      if (OrderSatisfied(homog, *cheapest)) continue;
      PlanRef sorted = MakeSort(cheapest, SortSpecFor(homog, *cheapest));
      bool retained = InsertCandidate(&out, sorted);
      TraceSortAhead("leaf", homog, *sorted, retained);
    }
  }
  return out;
}

Result<CandidateSet> Planner::QuantifierAccessPaths(const QgmBox* box,
                                                    const SelectContext& sctx,
                                                    size_t index) {
  const Quantifier& q = box->quantifiers[index];
  if (q.IsBase()) {
    return BaseAccessPaths(box, q, sctx.local_preds[index], sctx.sort_ahead);
  }
  CandidateSet leafs;
  ORDOPT_ASSIGN_OR_RETURN(std::vector<PlanRef> child_plans, PlanBox(q.input));
  for (PlanRef& child : child_plans) {
    std::vector<Predicate> preds;
    for (const Predicate* p : sctx.local_preds[index]) preds.push_back(*p);
    InsertCandidate(&leafs, MakeFilter(std::move(child), preds, box));
  }
  // Sort-ahead over a derived quantifier.
  if (config_.enable_order_optimization && config_.enable_sort_ahead &&
      !leafs.empty()) {
    PlanRef cheapest = leafs.Cheapest();
    for (const OrderSpec& want : sctx.sort_ahead) {
      OrderSpec homog =
          HomogenizeOrderPrefix(want, sctx.qcols[index],
                                *sctx.info->optimistic_ctx.eq,
                                sctx.info->optimistic_ctx);
      if (homog.empty() || OrderSatisfied(homog, *cheapest)) continue;
      if (tracing() && homog != want) {
        trace_->Add("optimizer", "order.homogenize")
            .Set("site", "derived")
            .Set("requested", want.ToString(query_.namer()))
            .Set("translated", homog.ToString(query_.namer()));
      }
      PlanRef sorted = MakeSort(cheapest, SortSpecFor(homog, *cheapest));
      bool retained = InsertCandidate(&leafs, sorted);
      TraceSortAhead("derived", homog, *sorted, retained);
    }
  }
  return leafs;
}

}  // namespace ordopt
