#ifndef ORDOPT_OPTIMIZER_PLANNER_H_
#define ORDOPT_OPTIMIZER_PLANNER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/retry.h"
#include "common/trace.h"
#include "exec/query_guard.h"
#include "optimizer/cost_model.h"
#include "optimizer/memo.h"
#include "optimizer/order_scan.h"
#include "optimizer/plan.h"
#include "orderopt/reduce_cache.h"
#include "qgm/qgm.h"

namespace ordopt {

struct SelectContext;
class JoinStrategy;
class MetricsRegistry;

/// Optimizer switches. `enable_order_optimization=false` reproduces the
/// paper's §8 baseline ("a modified version of DB2 with order optimization
/// disabled"): order specifications are compared naively column-by-column
/// with no reduction, no equivalence classes, no covers, no homogenization,
/// and no sort-ahead; sorts use the full requested column lists. Index
/// orders are still recognized syntactically, as in System R.
struct OptimizerConfig {
  bool enable_order_optimization = true;
  /// Sort-ahead can be ablated independently (§5.2).
  bool enable_sort_ahead = true;
  /// Use transitive FD closure in reductions instead of the paper's simple
  /// single-FD subset test (§4.1).
  bool transitive_fds = false;
  /// Cap on sort-ahead orders per box (the paper observes n < 3 in
  /// practice, §5.2).
  int max_sort_ahead_orders = 8;
  /// Hash-based alternatives. The library supports them (§1: "always
  /// consider both hash- and order-based operations"), but DB2/CS in 1996
  /// had neither hash join nor hash aggregation — Figures 7/8 and Table 1
  /// are reproduced with both disabled ("DB2/CS engine profile").
  bool enable_hash_join = true;
  bool enable_hash_grouping = true;
  CostParams cost_params;
  /// Execution guardrails: QueryEngine::Run enforces these per query
  /// (deadline, scan/output caps, buffered-row/byte caps). Default:
  /// unlimited.
  QueryLimits limits;
  /// Directory for external-sort run files. Empty resolves to
  /// $ORDOPT_TMPDIR, then the system temp directory. The row budget that
  /// triggers spilling is cost_params.sort_memory_rows — one knob for
  /// the cost model and the executor.
  std::string spill_temp_dir;
  /// Retry policy for spill-file I/O (bounded attempts, deterministic
  /// backoff) before a flaky write/read degrades to a clean error.
  RetryPolicy spill_retry;
  /// Observability. kOff records nothing; kOptimizer records planner
  /// decision events (order reduced, sort avoided/placed, covers,
  /// homogenizations, sort-ahead candidates); kFull additionally collects
  /// per-operator execution stats. EXPLAIN ANALYZE and a set trace path
  /// both force kFull for that query.
  TraceLevel trace_level = TraceLevel::kOff;
  /// When non-empty, the engine writes the query's event stream (plus
  /// per-operator stats and final metrics) to this path as line-delimited
  /// JSON after execution. The ORDOPT_TRACE environment variable supplies
  /// a default when this is empty.
  std::string trace_path;
  /// Runtime order verification: execute every query with an OrderCheckOp
  /// above each operator whose plan properties claim a non-empty order or
  /// key property, failing the query with kInternal on the first violated
  /// claim (see exec/order_check.h). The ORDOPT_VERIFY_ORDERS environment
  /// variable (any non-empty value except "0") supplies a default when
  /// this is false.
  bool verify_orders = false;
  /// Rows per execution batch (ExecContext::batch_rows). 1 degenerates to
  /// single-row batches through the same columnar code path. <= 0 is
  /// clamped to 1.
  int64_t batch_rows = kDefaultBatchRows;
  /// Set by the QueryService when it admits a query in degraded mode
  /// (shared-memory-budget occupancy over the high-water mark): the
  /// service has already reduced cost_params.sort_memory_rows so sorts
  /// spill earlier; the engine only *reports* the mode — the result's
  /// `degraded` flag, a `service.degraded` trace event, and an EXPLAIN
  /// ANALYZE summary line — so operators can see which runs were squeezed.
  bool degraded_mode = false;
  /// When non-null, the engine records per-query series here after every
  /// run: planning/execution time histograms (`engine.plan_us`,
  /// `engine.exec_us`), spill activity (`engine.spill_runs`,
  /// `engine.spill_bytes`), and guard consumption high-water histograms
  /// (`engine.buffered_rows_peak`, `engine.buffered_bytes_peak`). The
  /// registry must outlive every query run under this config; null (the
  /// default) records nothing and costs nothing.
  MetricsRegistry* metrics = nullptr;
  /// Morsel-parallel execution (src/exec/parallel/): number of worker
  /// threads per exchange. 1 (the default) plans and executes exactly as
  /// before — the Parallelize post-pass never runs and plan fingerprints
  /// are byte-identical. >1 wraps each parallelizable scan chain of the
  /// chosen plan in an Exchange operator whose workers split the leaf scan
  /// into morsels. Clamped to [1, 64].
  int parallel_workers = 1;
  /// Testing-only seam for the plan-space oracle's mutation check: when
  /// non-null, replaces the planner's order-satisfaction test (Test Order /
  /// naive prefix, Planner::OrderSatisfied) in candidate domination, in
  /// every EnforceOrder site (merge-join and merge-left-join inputs, SELECT
  /// and UNION output order), in sort-ahead's skip test, and in the choice
  /// of a UNION branch's pre-ordered plan. DISTINCT and GROUP BY adjacency
  /// (stream vs sort grouping) test the general order directly and are out
  /// of its reach. Deliberately wrong implementations let tests prove the
  /// differential and runtime oracles catch the resulting plans. Must
  /// outlive the planner. Never set in production configs.
  const OrderDomination* order_test_override = nullptr;
};

/// Cost-based bottom-up planner (§5.2): walks the QGM box tree, runs
/// System-R dynamic programming over each SELECT box's quantifiers, prunes
/// costlier subplans with comparable properties, tries sort-ahead orders at
/// every level, and finishes each box with distinct / order-requirement /
/// projection operators.
class Planner {
 public:
  /// `trace`, when non-null, receives structured decision events while
  /// planning; it must outlive the planner.
  Planner(const Query& query, OptimizerConfig config = OptimizerConfig(),
          TraceCollector* trace = nullptr);

  /// Plans the whole query; the returned plan's root is a Project with the
  /// query's output columns.
  Result<PlanRef> BuildPlan();

  /// Plan-space enumeration for the differential oracle: every candidate
  /// that survived (cost, order) domination at the root group, each
  /// finished with the query's output projection exactly as BuildPlan
  /// finishes its winner. The winner comes first; the rest follow in
  /// enumeration order, truncated to `budget` plans. Every returned plan
  /// must produce the same rows (modulo order the query didn't request) —
  /// the oracle executes them all and fails on any divergence.
  Result<std::vector<PlanRef>> EnumerateAllPlans(size_t budget = 64);

  /// Join-enumeration effort counters (for the §5.2 complexity study).
  int64_t plans_generated() const { return plans_generated_; }
  int64_t plans_retained() const { return plans_retained_; }

  /// Reduce-cache statistics for this planner's optimization run: how many
  /// Reduce/Test Order reductions were served from the memo vs computed.
  int64_t reduce_cache_hits() const { return reduce_cache_.hits(); }
  int64_t reduce_cache_misses() const { return reduce_cache_.misses(); }

 private:
  // Derived strategies reach planner internals through JoinStrategy's
  // protected bridges (friendship is not inherited).
  friend class JoinStrategy;

  /// Adapts this planner's OrderSatisfied (Test Order when order
  /// optimization is enabled, the naive prefix baseline otherwise) to the
  /// CandidateSet domination interface.
  class PlannerDomination : public OrderDomination {
   public:
    explicit PlannerDomination(const Planner* planner) : planner_(planner) {}
    bool Satisfies(const OrderSpec& interesting,
                   const PlanNode& plan) const override {
      return planner_->OrderSatisfied(interesting, plan);
    }

   private:
    const Planner* planner_;
  };

  /// One grouping operator family for AddGroupings: DISTINCT, GROUP BY or
  /// UNION DISTINCT.
  struct Grouping {
    const char* site;         // trace site, e.g. "distinct" / "groupby"
    const char* requirement;  // trace label of the grouping requirement
    OpKind stream;            // over an input that is already grouped
    OpKind sorted;            // over a Sort of the input
    OpKind hash;
    size_t aggregates;        // aggregate count, priced per input row
    // Sets the operator's arguments and its properties over `input`.
    std::function<void(PlanNode* node, const PlanProperties& input,
                       bool preserves_order)>
        shape;
  };

  Result<std::vector<PlanRef>> PlanBox(const QgmBox* box);

  // Wraps a root-group candidate in the query's output Project when it is
  // not one already; shared by BuildPlan and EnumerateAllPlans so every
  // candidate the oracle executes has the chosen plan's output shape.
  PlanRef FinishRootCandidate(PlanRef candidate) const;

  // --- planner.cc: orchestration ------------------------------------------
  Result<std::vector<PlanRef>> PlanSelectBox(const QgmBox* box);

  // --- parallelize.cc ------------------------------------------------------
  // Post-pass over the chosen plan (BuildPlan only — never the enumeration
  // oracle): wraps every maximal parallelizable scan chain in an Exchange
  // (a chain runs through hash joins' probe sides; their build sides are
  // parallelized as regions of their own), choosing the order-preserving
  // merge variant when the chain's top claims an order and tracing the
  // sort decision at the new site; a hash group-by
  // directly over a chain splits into a partial group-by in the workers and
  // a final one above the exchange where that reproduces serial results and
  // its estimated groups are few against its input rows (DESIGN.md §15).
  // Identity when config_.parallel_workers <= 1.
  PlanRef Parallelize(PlanRef plan) const;

  // --- finishing.cc --------------------------------------------------------
  Result<std::vector<PlanRef>> PlanGroupByBox(const QgmBox* box);
  Result<std::vector<PlanRef>> PlanUnionBox(const QgmBox* box);
  // DISTINCT, required output order (Sort / Top-N), projection and LIMIT on
  // top of the join-enumeration candidates of a SELECT box.
  std::vector<PlanRef> FinishSelectBox(const QgmBox* box,
                                       const std::vector<PlanRef>& bases);
  // The grouping alternatives over `input`, DISTINCT, GROUP BY and UNION
  // DISTINCT alike: a stream operator when `adjacent` (the input already
  // groups equal rows, so the sort is avoided); otherwise, and in
  // enumeration mode as well, a Sort + stream operator per spec of
  // `sort_specs()` and, when hash grouping is enabled, a hash operator.
  // Reports order.test at `g.site`, then sort.avoided or one sort.placed
  // per spec.
  void AddGroupings(const Grouping& g, const PlanRef& input, bool adjacent,
                    const std::function<std::vector<OrderSpec>()>& sort_specs,
                    CandidateSet* out);

  // --- join_enumeration.cc -------------------------------------------------
  // System-R DP over quantifier subsets: for every mask (by population
  // count) and every (outer, inner) split, runs each registered
  // JoinStrategy, then tries sort-ahead on the mask's candidate group.
  void EnumerateJoins(SelectContext* sctx, Memo* memo);
  // Deterministic cardinality for a quantifier mask, memoized in
  // `sctx->mask_card` so every plan of the mask prices against the same
  // estimate.
  double MaskCardinality(SelectContext* sctx, uint32_t mask) const;
  // Applies one LEFT OUTER JOIN step on top of the candidate plans for the
  // preserved side, generating merge-left / hash-left / nested-loop-left
  // alternatives with §4.1 outer-join property propagation.
  Result<std::vector<PlanRef>> FoldOuterJoin(const QgmBox* box,
                                             const OuterJoinStep& step,
                                             std::vector<PlanRef> outers);

  // Sort-ahead (§5.2) on one candidate group of a SELECT box: for each of
  // the box's sort-ahead orders, homogenized onto `targets`, that the
  // group's cheapest plan does not satisfy yet, offers that plan sorted.
  // `site` ("leaf", "derived", "intermediate") names the level in trace
  // events; the leaf reports every homogenization it makes, the others
  // only the ones they sort on.
  void SortAhead(const char* site, const SelectContext& sctx,
                 const ColumnSet& targets, CandidateSet* group);

  // --- access_paths.cc -----------------------------------------------------
  // Access paths for one quantifier with its local predicates applied: the
  // heap, index and range scans of a base table, or the recursively
  // planned derived box under a Filter.
  Result<CandidateSet> AccessPaths(
      const QgmBox* box, const Quantifier& q,
      const std::vector<const Predicate*>& local_preds);
  CandidateSet BaseAccessPaths(
      const QgmBox* box, const Quantifier& q,
      const std::vector<const Predicate*>& local_preds);

  // --- planner.cc: the order enforcer (§4.2) --------------------------------
  // True when `property` (a plan's physical order) satisfies `interesting`
  // under this config: the paper's Test Order when enabled, a naive exact
  // prefix comparison when disabled.
  bool OrderSatisfied(const OrderSpec& interesting, const PlanNode& plan) const;

  // The sort specification actually used to enforce `interesting`:
  // minimal (reduced) when enabled, verbatim when disabled (§4.2).
  OrderSpec SortSpecFor(const OrderSpec& interesting,
                        const PlanNode& input) const;

  // Every site that needs an order calls this: `input` itself when it
  // satisfies `interesting` (OrderSatisfied), else SortFor. Reports
  // order.test, then sort.avoided or sort.placed, at `site`.
  PlanRef EnforceOrder(const char* site, const OrderSpec& interesting,
                       PlanRef input);
  // A Sort of `input` on SortSpecFor(interesting), or on `interesting`
  // itself when that reduces away; reported as sort.placed at `site`
  // unless `site` is null.
  PlanRef SortFor(const char* site, const OrderSpec& interesting,
                  PlanRef input);
  // True when `input` already groups equal values together for
  // `requirement` (DISTINCT / GROUP BY): the general order's Satisfies, or
  // a one-record input, when order optimization is on; the naive prefix on
  // `columns` when off.
  bool Grouped(const GeneralOrderSpec& requirement,
               const std::vector<ColumnId>& columns,
               const PlanNode& input) const;

  // Adds `plan` to `candidates` under the (cost, order) domination rule —
  // CandidateSet::Insert with this planner's order test — and counts the
  // attempt in plans_generated_. Returns false when the plan was pruned on
  // arrival (dominated by a retained candidate), true when it joined the
  // candidate set.
  bool InsertCandidate(CandidateSet* candidates, PlanRef plan);

  // Insertion used at the *final* (root-facing) candidate sets of the box
  // finishers. Normally identical to InsertCandidate; in enumeration mode
  // (EnumerateAllPlans) it keeps every plan, because after the output
  // order is enforced all finished plans carry the same order property and
  // cost-only domination would collapse the plan space to one winner —
  // exactly the alternatives the differential oracle needs to execute.
  void FinalInsert(CandidateSet* candidates, PlanRef plan);

  // Node constructors (access_paths.cc). MakeProject projects to `box`'s
  // outputs and adds `op_cost`, the caller's price of the projection.
  PlanRef MakeSort(PlanRef input, OrderSpec spec);
  PlanRef MakeFilter(PlanRef input, std::vector<Predicate> preds);
  PlanRef MakeProject(PlanRef input, const QgmBox* box, double op_cost) const;
  PlanRef MakeLimit(PlanRef input, int64_t limit) const;

  // --- planner_trace.cc: trace helpers (no-ops when trace_ is null) --------
  bool tracing() const { return trace_ != nullptr; }
  // Emits order.reduce when reduction changed `interesting`, detailing
  // which elements were head-substituted or removed and why.
  void TraceReduce(const char* site, const OrderSpec& interesting,
                   const OrderSpec& reduced, const OrderContext& octx) const;
  // Emits order.test with the verdict of testing `interesting` against a
  // plan's order property.
  void TraceOrderTest(const char* site, const OrderSpec& interesting,
                      const PlanNode& plan, bool satisfied) const;
  // Emits sort.avoided / sort.placed for an order requirement at `site`.
  void TraceSortDecision(const char* site, const OrderSpec& interesting,
                         const PlanNode& input, bool avoided,
                         const OrderSpec* sort_spec) const;
  // Emits agg.partial at exchange.partial_agg: whether a hash group-by
  // over a chain aggregates in the workers, and `blocker` when it stays
  // above the exchange.
  void TracePartialAggregation(const PlanNode& group_by,
                               const char* blocker) const;
  // Emits sortahead.candidate (considered) or sortahead.pruned.
  void TraceSortAhead(const char* site, const OrderSpec& spec,
                      const PlanNode& plan, bool retained) const;

  const Query& query_;
  OptimizerConfig config_;
  CostModel cost_model_;
  OrderScan order_scan_;
  TraceCollector* trace_ = nullptr;
  int64_t plans_generated_ = 0;
  int64_t plans_retained_ = 0;
  /// Memoized Reduce/Test Order results keyed by context epoch; mutable
  /// because the const decision helpers (OrderSatisfied, SortSpecFor) are
  /// where memoization pays off.
  mutable ReduceCache reduce_cache_;
  PlannerDomination domination_{this};
  /// True only inside EnumerateAllPlans: FinalInsert keeps every finished
  /// candidate instead of letting cost domination pick one winner.
  bool enumerate_keep_all_ = false;
};

}  // namespace ordopt

#endif  // ORDOPT_OPTIMIZER_PLANNER_H_
