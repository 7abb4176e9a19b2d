#include "optimizer/order_scan.h"

#include <algorithm>

#include "common/macros.h"
#include "properties/plan_properties.h"

namespace ordopt {

OrderScan::OrderScan(const Query& query, bool enable_order_optimization)
    : query_(query), enabled_(enable_order_optimization) {}

const OrderFacts& OrderScan::FactsOf(const QgmBox* box) {
  auto it = contexts_.find(box);
  if (it != contexts_.end()) return it->second;

  OrderFacts ctx;
  if (box->kind == QgmBox::Kind::kUnion) {
    // Nothing survives a union: branch equivalences/FDs apply to branch
    // rows only, and outputs are fresh columns.
    return contexts_.emplace(box, std::move(ctx)).first->second;
  }
  if (box->kind == QgmBox::Kind::kGroupBy) {
    const QgmBox* child = box->quantifiers[0].input;
    ORDOPT_CHECK(child != nullptr);
    ctx = FactsOf(child);
    // {group columns} functionally determine every box output, and the
    // grouping columns are a key of the grouped stream.
    ColumnSet group_set;
    for (const ColumnId& c : box->group_columns) group_set.Add(c);
    ctx.fds.Add(group_set, box->OutputColumns());
  } else {
    for (const Quantifier& q : box->quantifiers) {
      if (q.IsBase()) {
        PlanProperties base = BaseTableProperties(*q.table, q.id);
        ctx.fds.MergeFrom(base.fds());
      } else {
        const OrderFacts& child = FactsOf(q.input);
        ctx.fds.MergeFrom(child.fds);
        ctx.eq.MergeFrom(child.eq);
      }
    }
    // Optimistically assume every predicate of this box will be applied.
    for (const Predicate& p : box->predicates) {
      if (p.kind == Predicate::Kind::kColEqCol) {
        ctx.eq.AddEquivalence(p.left_col, p.right_col);
      } else if (p.kind == Predicate::Kind::kColEqConst) {
        ctx.eq.AddConstant(p.left_col, p.constant);
      }
    }
    // LEFT OUTER JOIN steps: the null-supplying side contributes its FDs
    // and (per §4.1) a one-way FD per equality ON predicate — never an
    // equivalence class, and never its constants.
    for (const OuterJoinStep& step : box->outer_joins) {
      const Quantifier& q = step.quantifier;
      ColumnSet null_side;
      if (q.IsBase()) {
        PlanProperties base = BaseTableProperties(*q.table, q.id);
        ctx.fds.MergeFrom(base.fds());
        null_side = base.columns;
      } else {
        const OrderFacts& child = FactsOf(q.input);
        ctx.fds.MergeFrom(child.fds);
        null_side = q.input->OutputColumns();
      }
      for (const Predicate& p : step.on_predicates) {
        if (p.kind != Predicate::Kind::kColEqCol) continue;
        bool l_inner = null_side.Contains(p.left_col);
        bool r_inner = null_side.Contains(p.right_col);
        if (l_inner == r_inner) continue;
        if (l_inner) {
          ctx.fds.Add(ColumnSet{p.right_col}, ColumnSet{p.left_col});
        } else {
          ctx.fds.Add(ColumnSet{p.left_col}, ColumnSet{p.right_col});
        }
      }
    }
  }
  return contexts_.emplace(box, std::move(ctx)).first->second;
}

void OrderScan::AddInterestingOrder(BoxOrderInfo* info, const OrderSpec& spec,
                                    const OrderContext& ctx) {
  OrderSpec reduced = ReduceOrder(spec, ctx);
  if (reduced.empty()) return;
  for (const OrderSpec& existing : info->sort_ahead) {
    if (existing == reduced) return;
  }
  info->sort_ahead.push_back(std::move(reduced));
}

void OrderScan::Visit(const QgmBox* box, std::vector<OrderSpec> pushed) {
  BoxOrderInfo& info = info_[box];
  OrderContext ctx = FactsOf(box).Context();
  info.optimistic_ctx = ctx;

  if (box->kind == QgmBox::Kind::kUnion) {
    // A union's outputs are fresh columns; nothing from above survives
    // except positionally. The union's own requirements (ORDER BY on the
    // union, the distinct requirement of UNION) become per-branch
    // interesting orders by output position.
    info.required_output = box->output_order_requirement;
    if (enabled_) {
      if (!info.required_output.empty()) {
        AddInterestingOrder(&info, info.required_output, ctx);
      }
      if (box->distinct) {
        std::vector<ColumnId> cols;
        for (const OutputColumn& oc : box->outputs) cols.push_back(oc.id);
        info.distinct_requirement = GeneralOrderSpec::ForGrouping(cols);
        std::optional<OrderSpec> covered =
            info.distinct_requirement.CoverConcrete(info.required_output,
                                                    ctx);
        if (covered.has_value()) AddInterestingOrder(&info, *covered, ctx);
      }
    } else if (box->distinct) {
      std::vector<ColumnId> cols;
      for (const OutputColumn& oc : box->outputs) cols.push_back(oc.id);
      info.distinct_requirement = GeneralOrderSpec::ForGrouping(cols);
    }
    for (const Quantifier& q : box->quantifiers) {
      std::vector<OrderSpec> down;
      if (enabled_) {
        // Positional remap: union output i -> branch output i.
        for (const OrderSpec& spec : info.sort_ahead) {
          OrderSpec mapped;
          bool ok = true;
          for (const OrderElement& e : spec) {
            int ordinal = box->FindOutput(e.col);
            if (ordinal < 0) {
              ok = false;
              break;
            }
            mapped.Append(OrderElement(
                q.input->outputs[static_cast<size_t>(ordinal)].id, e.dir));
          }
          if (ok && !mapped.empty()) down.push_back(std::move(mapped));
        }
      }
      Visit(q.input, std::move(down));
    }
    return;
  }

  if (box->kind == QgmBox::Kind::kGroupBy) {
    // Input order requirement: the general grouping order (§5.1, §7).
    info.grouping_requirement =
        GeneralOrderSpec::ForGrouping(box->group_columns);

    std::vector<OrderSpec> down;
    if (enabled_) {
      // Cover each pushed-down interesting order with the grouping
      // requirement so one sort below can serve both (§4.3, §7).
      for (const OrderSpec& p : pushed) {
        std::optional<OrderSpec> covered =
            info.grouping_requirement.CoverConcrete(p, ctx);
        if (covered.has_value() && !covered->empty()) {
          down.push_back(*covered);
        }
      }
      OrderSpec fallback = info.grouping_requirement.DefaultSortSpec(ctx);
      if (!fallback.empty()) down.push_back(fallback);
      info.preferred_sorts = down;
    } else {
      // Disabled baseline: the grouping order is taken verbatim, ascending,
      // in the declared column order; nothing is combined or pushed.
      down.clear();
    }
    Visit(box->quantifiers[0].input, std::move(down));
    return;
  }

  // SELECT box.
  info.required_output = box->output_order_requirement;
  if (enabled_) {
    if (!info.required_output.empty()) {
      AddInterestingOrder(&info, info.required_output, ctx);
    }
    if (box->distinct) {
      std::vector<ColumnId> cols;
      for (const OutputColumn& oc : box->outputs) cols.push_back(oc.id);
      info.distinct_requirement = GeneralOrderSpec::ForGrouping(cols);
      // A sort that serves both DISTINCT and ORDER BY, when one exists.
      std::optional<OrderSpec> covered =
          info.distinct_requirement.CoverConcrete(info.required_output, ctx);
      if (covered.has_value()) AddInterestingOrder(&info, *covered, ctx);
    }
    for (const OrderSpec& p : pushed) AddInterestingOrder(&info, p, ctx);
  } else if (box->distinct) {
    std::vector<ColumnId> cols;
    for (const OutputColumn& oc : box->outputs) cols.push_back(oc.id);
    info.distinct_requirement = GeneralOrderSpec::ForGrouping(cols);
  }

  // Push down along quantifier arcs into child boxes, homogenizing to each
  // child's output columns (largest homogenizable prefix, §5.1).
  for (const Quantifier& q : box->quantifiers) {
    if (q.IsBase()) continue;
    std::vector<OrderSpec> down;
    if (enabled_) {
      ColumnSet targets = q.input->OutputColumns();
      for (const OrderSpec& spec : info.sort_ahead) {
        OrderSpec prefix = HomogenizeOrderPrefix(spec, targets, *ctx.eq, ctx);
        if (prefix.empty()) continue;
        bool dup = false;
        for (const OrderSpec& existing : down) {
          if (existing == prefix) dup = true;
        }
        if (!dup) down.push_back(std::move(prefix));
      }
    }
    Visit(q.input, std::move(down));
  }
}

void OrderScan::Run() { Visit(query_.root, {}); }

const BoxOrderInfo& OrderScan::info(const QgmBox* box) const {
  auto it = info_.find(box);
  ORDOPT_CHECK_MSG(it != info_.end(), "order scan did not visit box");
  return it->second;
}

}  // namespace ordopt
