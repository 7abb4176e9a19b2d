#ifndef ORDOPT_OPTIMIZER_PLAN_H_
#define ORDOPT_OPTIMIZER_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "properties/plan_properties.h"
#include "qgm/qgm.h"

namespace ordopt {

/// Physical operator kinds of the execution engine.
enum class OpKind {
  kTableScan,      ///< heap scan of a base table
  kIndexScan,      ///< ordered (optionally range-bounded) index scan
  kFilter,         ///< predicate application
  kSort,           ///< in-memory sort on an OrderSpec
  kMergeJoin,      ///< both inputs sorted on the join key
  kIndexNLJoin,    ///< outer stream drives index probes into a base table
  kNaiveNLJoin,    ///< inner fully rescanned per outer row
  kHashJoin,       ///< build inner, probe outer
  kMergeLeftJoin,  ///< LEFT OUTER merge join (preserves outer order)
  kHashLeftJoin,   ///< LEFT OUTER hash join
  kNaiveLeftJoin,  ///< LEFT OUTER nested loop with arbitrary ON condition
  kStreamGroupBy,  ///< input already grouped (order satisfies grouping)
  kSortGroupBy,    ///< sort below is explicit; this node only aggregates
  kHashGroupBy,
  kStreamDistinct,  ///< input order makes duplicates adjacent
  kHashDistinct,
  kProject,    ///< final projection to output expressions
  kLimit,      ///< emit at most N rows
  kUnionAll,   ///< concatenation of branch streams (positional columns)
  kMergeUnion, ///< order-preserving merge of sorted branch streams
  kTopN,       ///< bounded-heap sort: ORDER BY + LIMIT in one operator
  kExchange,   ///< morsel-parallel workers each run the child subtree;
               ///< their ordered streams merge back losslessly
};

const char* OpKindName(OpKind kind);

inline bool IsHashJoin(OpKind kind) {
  return kind == OpKind::kHashJoin || kind == OpKind::kHashLeftJoin;
}

struct PlanNode;

/// One-line label for a plan node: the operator kind plus its defining
/// arguments — "IndexScan(emp.emp_pk clustered)", "Sort(a ASC, b DESC)",
/// "MergeJoin[x = y]" — without costs, properties, or children. Shared by
/// PlanNode::ToString and the EXPLAIN ANALYZE renderer.
std::string NodeLabel(const PlanNode& node, const ColumnNamer& namer = nullptr);

/// Canonical single-line serialization of a whole plan tree, used by the
/// golden plan-stability tests: every node's label plus its estimated cost,
/// cardinality, and physical order property, with children nested in
/// parentheses. Columns render via the default "t<i>.c<j>" form so the
/// result is independent of any ColumnNamer, and floats use %.6g so the
/// string is byte-stable for identical estimates.
std::string PlanFingerprint(const PlanNode& node);

/// One node of a physical plan. Immutable after construction; subtrees are
/// shared between the dynamic-programming table's candidate plans.
struct PlanNode {
  OpKind kind;
  std::vector<std::shared_ptr<const PlanNode>> children;

  // -- scans ---------------------------------------------------------------
  const Table* table = nullptr;
  int table_id = -1;      ///< table-instance id (quantifier)
  int index_ordinal = -1; ///< into table->def().indexes
  bool reverse_scan = false;
  /// Range bounds for index scans: predicates over the index's leading
  /// column(s), already reflected in props.cardinality.
  std::vector<Predicate> range_predicates;

  // -- filter / residual ----------------------------------------------------
  std::vector<Predicate> predicates;

  // -- sort -----------------------------------------------------------------
  OrderSpec sort_spec;

  // -- joins ----------------------------------------------------------------
  /// Equality pairs (outer column, inner column).
  std::vector<std::pair<ColumnId, ColumnId>> join_pairs;
  /// True when probes of an index nested-loop join arrive in index order
  /// (the paper's ordered nested-loop join, §8.1).
  bool ordered_probes = false;

  // -- grouping / distinct ---------------------------------------------------
  std::vector<ColumnId> group_columns;
  std::vector<AggregateSpec> aggregates;
  /// kHashGroupBy: complete, or one half of an aggregation split around an
  /// exchange by the Parallelize post-pass.
  AggPhase agg_phase = AggPhase::kComplete;
  ColumnSet distinct_columns;

  // -- projection -----------------------------------------------------------
  std::vector<OutputColumn> projections;

  // -- limit ------------------------------------------------------------------
  int64_t limit = -1;

  // -- parallel (Parallelize post-pass; see optimizer/parallelize.cc) --------
  /// kExchange: worker count. The exchange merges the per-worker streams on
  /// `sort_spec`, which always ends in the hidden provenance column.
  int exchange_workers = 0;
  /// Scans: true when this scan is the chain's morsel driver inside an
  /// exchange worker — it pulls rid/ordinal ranges from the shared
  /// MorselScheduler instead of scanning its full range.
  bool morsel_driver = false;
  /// Scans: append the hidden provenance column (the row's serial emission
  /// ordinal) so downstream sorts and the exchange merge can reproduce the
  /// serial row sequence byte-identically.
  bool emit_provenance = false;

  // -- derived --------------------------------------------------------------
  /// Unified property bundle: columns, order, eq/FD context, keys,
  /// cardinality, and the subtree's estimated cost (props.cost).
  PlanProperties props;

  /// Multi-line indented plan rendering (Figure 7/8-style).
  std::string ToString(const ColumnNamer& namer = nullptr) const;

  /// Number of nodes in this subtree.
  int NodeCount() const;

  /// Depth-first search for an operator kind.
  bool ContainsKind(OpKind k) const;

  /// Collects nodes of kind `k` in preorder.
  void CollectKind(OpKind k, std::vector<const PlanNode*>* out) const;
};

using PlanRef = std::shared_ptr<const PlanNode>;

/// The plan `plan` runs as for a request whose literal values are `values`
/// (indexed by parser slot): every slotted literal in predicates (the
/// expression and the classified constant), index range predicates,
/// projections and aggregate arguments takes the request's value,
/// exchange worker chains included. Nodes whose subtree holds no slot are
/// shared with `plan`, which is never modified. An aggregate whose
/// argument changed takes its display name from `namer` (the name spells
/// the literal). Estimates and properties stay those of planning time:
/// every order, key and FD property holds for any literal value (§4.1).
PlanRef BindPlanSlots(const PlanRef& plan, const std::vector<Value>& values,
                      const ColumnNamer& namer);

}  // namespace ordopt

#endif  // ORDOPT_OPTIMIZER_PLAN_H_
