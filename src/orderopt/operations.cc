#include "orderopt/operations.h"

#include <algorithm>

namespace ordopt {

OrderSpec ReduceOrder(const OrderSpec& spec, const OrderContext& ctx) {
  return ReduceOrder(spec, ctx, nullptr);
}

OrderSpec ReduceOrder(const OrderSpec& spec, const OrderContext& ctx,
                      std::vector<ReduceStep>* steps) {
  if (steps != nullptr) {
    steps->clear();
    steps->reserve(spec.size());
  }
  // Figure 2: rewrite every column as its equivalence-class head, keeping
  // the requested direction (line 1), and remove c_i when the columns that
  // precede it functionally determine it (lines 2-8). The paper scans
  // backwards so that B holds columns still present; B is every earlier
  // head whether or not it was itself removed, so a forward scan growing B
  // one column at a time decides exactly the same removals.
  OrderSpec out;
  ColumnSet preceding;
  for (const OrderElement& e : spec) {
    ColumnId head = ctx.eq->Head(e.col);
    bool removed = ctx.Determines(preceding, head);
    preceding.Add(head);
    if (!removed) out.Append(OrderElement(head, e.dir));
    if (steps != nullptr) {
      ReduceStep step;
      step.original = e.col;
      step.column = head;
      if (removed) {
        step.action = ReduceStep::Action::kRemovedDetermined;
      } else if (head != e.col) {
        step.action = ReduceStep::Action::kHeadSubstituted;
      } else {
        step.action = ReduceStep::Action::kKept;
      }
      steps->push_back(step);
    }
  }
  return out;
}

bool TestOrder(const OrderSpec& interesting, const OrderSpec& property,
               const OrderContext& ctx) {
  OrderSpec i = ReduceOrder(interesting, ctx);
  if (i.empty()) return true;  // trivially satisfied (§4.1 end)
  OrderSpec op = ReduceOrder(property, ctx);
  return i.IsPrefixOf(op);
}

std::optional<OrderSpec> CoverOrder(const OrderSpec& i1, const OrderSpec& i2,
                                    const OrderContext& ctx) {
  OrderSpec r1 = ReduceOrder(i1, ctx);
  OrderSpec r2 = ReduceOrder(i2, ctx);
  // W.l.o.g. make r1 the shorter one (Figure 4, line 2).
  if (r1.size() > r2.size()) std::swap(r1, r2);
  if (r1.IsPrefixOf(r2)) return r2;
  return std::nullopt;
}

namespace {

// Finds a substitute for `col` among `targets` via `eq`: `col` itself if it
// is already a target, otherwise the smallest equivalent target column.
std::optional<ColumnId> SubstituteColumn(const ColumnId& col,
                                         const ColumnSet& targets,
                                         const EquivalenceClasses& eq) {
  return eq.VisibleMember(
      col, [&](const ColumnId& m) { return targets.Contains(m); });
}

const EquivalenceClasses& NoClasses() {
  static const EquivalenceClasses empty;
  return empty;
}

const FDSet& NoFds() {
  static const FDSet empty;
  return empty;
}

}  // namespace

OrderContext::OrderContext() : eq(&NoClasses()), fds(&NoFds()) {}

std::optional<OrderSpec> HomogenizeOrder(
    const OrderSpec& spec, const ColumnSet& target_columns,
    const EquivalenceClasses& substitution_eq, const OrderContext& ctx) {
  OrderSpec reduced = ReduceOrder(spec, ctx);  // Figure 5, line 1
  OrderSpec out;
  for (const OrderElement& e : reduced) {
    std::optional<ColumnId> sub =
        SubstituteColumn(e.col, target_columns, substitution_eq);
    if (!sub.has_value()) return std::nullopt;
    out.Append(OrderElement(*sub, e.dir));
  }
  return out;
}

OrderSpec HomogenizeOrderPrefix(const OrderSpec& spec,
                                const ColumnSet& target_columns,
                                const EquivalenceClasses& substitution_eq,
                                const OrderContext& ctx) {
  OrderSpec reduced = ReduceOrder(spec, ctx);
  OrderSpec out;
  for (const OrderElement& e : reduced) {
    std::optional<ColumnId> sub =
        SubstituteColumn(e.col, target_columns, substitution_eq);
    if (!sub.has_value()) break;
    out.Append(OrderElement(*sub, e.dir));
  }
  return out;
}

}  // namespace ordopt
