#ifndef ORDOPT_OPTIMIZER_ORDER_SCAN_H_
#define ORDOPT_OPTIMIZER_ORDER_SCAN_H_

#include <unordered_map>
#include <vector>

#include "orderopt/general_order.h"
#include "orderopt/operations.h"
#include "qgm/qgm.h"

namespace ordopt {

/// Per-box results of the order scan (§5.1): the box's own order
/// requirements plus the interesting orders pushed down into it, ready to
/// be used as sort-ahead orders during join enumeration.
struct BoxOrderInfo {
  /// Hard output requirement (ORDER BY): the finished box must deliver it.
  OrderSpec required_output;

  /// GROUP BY boxes: the degrees-of-freedom input requirement (§7). The
  /// planner may still choose hash grouping — this is a requirement only
  /// for the order-based implementation.
  GeneralOrderSpec grouping_requirement;

  /// SELECT boxes with DISTINCT: the general order that makes duplicates
  /// adjacent.
  GeneralOrderSpec distinct_requirement;

  /// GROUP BY boxes: concrete sort specifications worth using when an
  /// explicit grouping sort is needed — covers of the grouping requirement
  /// with orders pushed down from above (so one sort serves both), plus the
  /// canonical fallback.
  std::vector<OrderSpec> preferred_sorts;

  /// Interesting orders usable as sort-ahead orders in this box's join
  /// enumeration: reduced, concrete, deduplicated.
  std::vector<OrderSpec> sort_ahead;

  /// The optimistic reduction context (§5.1): equivalences/constants from
  /// *all* predicates at or below this box and FDs from every base-table
  /// key below it, assuming everything will have been applied. Borrows the
  /// OrderScan's per-box OrderFacts, so it lives as long as the scan.
  OrderContext optimistic_ctx;
};

/// The top-down order scan over the QGM (§5.1). Runs before planning:
/// interesting orders arise from ORDER BY, GROUP BY, DISTINCT (and merge
/// joins, which the planner generates in situ); they are pushed down along
/// quantifier arcs, covered with each box's requirements, and homogenized
/// to each box's columns. Proceeds optimistically: all predicates below a
/// box are assumed applied, and when an order cannot be fully homogenized
/// its largest homogenizable prefix is pushed instead.
class OrderScan {
 public:
  /// `enable_order_optimization=false` reproduces the paper's disabled
  /// baseline: no reduction, no covering, no homogenization, no sort-ahead
  /// orders — requirements are taken verbatim.
  OrderScan(const Query& query, bool enable_order_optimization);

  /// Runs the scan; results via info().
  void Run();

  const BoxOrderInfo& info(const QgmBox* box) const;

 private:
  const OrderFacts& FactsOf(const QgmBox* box);
  void Visit(const QgmBox* box, std::vector<OrderSpec> pushed);
  static void AddInterestingOrder(BoxOrderInfo* info, const OrderSpec& spec,
                                  const OrderContext& ctx);

  const Query& query_;
  bool enabled_;
  std::unordered_map<const QgmBox*, BoxOrderInfo> info_;
  // Owner of every box's optimistic classes and FDs; node-based, so the
  // optimistic_ctx views into it stay valid as boxes are added.
  std::unordered_map<const QgmBox*, OrderFacts> contexts_;
};

}  // namespace ordopt

#endif  // ORDOPT_OPTIMIZER_ORDER_SCAN_H_
