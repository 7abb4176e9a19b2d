#ifndef ORDOPT_OPTIMIZER_JOIN_ENUMERATION_H_
#define ORDOPT_OPTIMIZER_JOIN_ENUMERATION_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "optimizer/planner.h"

namespace ordopt {

/// Per-SELECT-box state shared by leaf seeding and join enumeration:
/// quantifier column sets, predicate classification (local / multi-
/// quantifier / deferred past an outer join), the capped sort-ahead list,
/// and the deterministic per-mask cardinality memo.
struct SelectContext {
  const QgmBox* box = nullptr;
  const BoxOrderInfo* info = nullptr;
  /// info->sort_ahead capped at config.max_sort_ahead_orders.
  std::vector<OrderSpec> sort_ahead;
  /// Per-quantifier output column sets.
  std::vector<ColumnSet> qcols;
  /// ColumnId.table -> quantifier position.
  std::unordered_map<int32_t, size_t> owner;
  /// Predicates referencing exactly one quantifier (position-indexed).
  std::vector<std::vector<const Predicate*>> local_preds;
  /// Multi-quantifier predicates eligible for the join DP, with the mask of
  /// quantifiers each references.
  std::vector<const Predicate*> multi_preds;
  std::vector<uint32_t> multi_masks;
  /// Predicates touching an outer join's null-supplying side, deferred to
  /// the last step they reference (index = outer-join step).
  std::vector<std::vector<Predicate>> deferred;
  /// Memoized cardinality per quantifier mask; -1 = not yet computed.
  std::vector<double> mask_card;

  static SelectContext Build(const QgmBox* box, const BoxOrderInfo& info,
                             int max_sort_ahead_orders);

  /// Union of the column sets of the quantifiers in `mask`.
  ColumnSet MaskColumns(uint32_t mask) const;
  /// Mask of quantifiers owning any column in `referenced`.
  uint32_t QuantifierMask(const ColumnSet& referenced) const;
  /// Indexes into multi_preds of predicates fully contained in `mask`.
  std::vector<size_t> ApplicablePreds(uint32_t mask) const;
};

/// One (outer, inner) split of a quantifier mask, with the join predicates
/// classified for this split: `pairs` are the equality pairs crossing it
/// (outer column, inner column), `residual` the other newly applicable
/// predicates, and merge_outer/merge_inner the merge-join sort requirements
/// derived from `pairs`.
struct JoinSplit {
  const SelectContext* ctx = nullptr;
  uint32_t mask = 0;
  uint32_t outer_mask = 0;
  uint32_t inner_mask = 0;
  /// The mask's deterministic output cardinality.
  double out_card = 0.0;
  std::vector<std::pair<ColumnId, ColumnId>> pairs;
  std::vector<Predicate> residual;
  OrderSpec merge_outer;
  OrderSpec merge_inner;
};

/// One physical join flavor (hash, merge, cartesian nested-loop, index
/// nested-loop). EnumerateJoins runs every registered strategy, in
/// registration order, for every (outer, inner) candidate pair of every
/// split; each strategy self-guards on its applicability and inserts the
/// plans it builds into the mask's candidate group.
///
/// Strategy order is part of the plan-preservation contract: candidate
/// insertion order drives the equal-cost tie-breaks behind the golden plan
/// fingerprints.
class JoinStrategy {
 public:
  virtual ~JoinStrategy() = default;

  virtual const char* name() const = 0;

  /// Builds this strategy's join plans for one (outer, inner) pair and
  /// inserts them into `out` (the candidate group of `split.mask`). A
  /// strategy that does not apply to the split emits nothing.
  virtual void Emit(Planner& planner, const JoinSplit& split,
                    const PlanRef& outer, const PlanRef& inner,
                    CandidateSet* out) const = 0;

 protected:
  // Bridges into the planner for derived strategies: JoinStrategy is a
  // friend of Planner, but friendship is not inherited.
  static const OptimizerConfig& Config(const Planner& p) { return p.config_; }
  static const CostModel& Cost(const Planner& p) { return p.cost_model_; }
  static const Query& GetQuery(const Planner& p) { return p.query_; }
  static bool Tracing(const Planner& p) { return p.tracing(); }
  static TraceCollector* Trace(const Planner& p) { return p.trace_; }
  static PlanRef EnforceOrder(Planner& p, const char* site,
                              const OrderSpec& interesting, PlanRef input) {
    return p.EnforceOrder(site, interesting, std::move(input));
  }
  static PlanRef SortFor(Planner& p, const char* site,
                         const OrderSpec& interesting, PlanRef input) {
    return p.SortFor(site, interesting, std::move(input));
  }

  /// Shared tail of every join emission: derives the join's properties
  /// from its inputs' (preserving the cost the strategy already priced
  /// into `node`), adds the join-pair equivalences, applies `residual`
  /// (the split's residual predicates, or more for an index join), re-pins
  /// the mask's deterministic cardinality, and inserts the result.
  void FinishJoin(Planner& planner, const JoinSplit& split,
                  std::shared_ptr<PlanNode> node, const PlanProperties& outer,
                  const PlanProperties& inner, bool preserves_outer_order,
                  const std::vector<Predicate>& residual,
                  CandidateSet* out) const;
};

/// The built-in strategies — hash, merge, cartesian nested-loop, index
/// nested-loop — in the fixed generation order described above.
const std::vector<std::unique_ptr<JoinStrategy>>& DefaultJoinStrategies();

}  // namespace ordopt

#endif  // ORDOPT_OPTIMIZER_JOIN_ENUMERATION_H_
