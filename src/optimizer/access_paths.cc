// Leaf access-path generation: heap scans, forward/reverse index scans with
// range-predicate absorption, and derived-quantifier plans, plus the
// Sort/Filter/Project/Limit node constructors the rest of the planner
// shares.

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

PlanRef Planner::MakeFilter(PlanRef input, std::vector<Predicate> preds) {
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

PlanRef Planner::MakeProject(PlanRef input, const QgmBox* box,
                             double op_cost) const {
  auto node = std::make_shared<PlanNode>();
  node->kind = OpKind::kProject;
  node->projections = box->outputs;
  node->props = ProjectProperties(input->props, box->OutputColumns());
  node->props.cost = input->props.cost + op_cost;
  node->children.push_back(std::move(input));
  return node;
}

PlanRef Planner::MakeLimit(PlanRef input, int64_t limit) const {
  auto node = std::make_shared<PlanNode>();
  node->kind = OpKind::kLimit;
  node->limit = limit;
  node->props = input->props;
  node->props.cardinality =
      std::min(input->props.cardinality, static_cast<double>(limit));
  node->children.push_back(std::move(input));
  return node;
}

Result<CandidateSet> Planner::AccessPaths(
    const QgmBox* box, const Quantifier& q,
    const std::vector<const Predicate*>& local_preds) {
  if (q.IsBase()) return BaseAccessPaths(box, q, local_preds);
  ORDOPT_ASSIGN_OR_RETURN(std::vector<PlanRef> child_plans, PlanBox(q.input));
  std::vector<Predicate> preds;
  for (const Predicate* p : local_preds) preds.push_back(*p);
  CandidateSet paths;
  for (PlanRef& child : child_plans) {
    InsertCandidate(&paths, MakeFilter(std::move(child), preds));
  }
  return paths;
}

CandidateSet Planner::BaseAccessPaths(
    const QgmBox* box, const Quantifier& q,
    const std::vector<const Predicate*>& local_preds) {
  CandidateSet out;
  const Table& table = *q.table;
  PlanProperties base_props = BaseTableProperties(table, q.id);

  auto apply_locals = [&](PlanRef scan,
                          const std::vector<const Predicate*>& remaining) {
    std::vector<Predicate> preds;
    for (const Predicate* p : remaining) preds.push_back(*p);
    return MakeFilter(std::move(scan), std::move(preds));
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

  return out;
}

}  // namespace ordopt
