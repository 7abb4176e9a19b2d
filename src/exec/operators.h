#ifndef ORDOPT_EXEC_OPERATORS_H_
#define ORDOPT_EXEC_OPERATORS_H_

#include <chrono>
#include <memory>
#include <vector>

#include "exec/expr_eval.h"
#include "exec/group_table.h"
#include "exec/runtime_metrics.h"
#include "exec/query_guard.h"
#include "exec/row_batch.h"
#include "exec/spill.h"
#include "optimizer/plan.h"
#include "storage/table.h"

namespace ordopt {

/// Volcano-style iterator over column-oriented batches. Each operator
/// declares its row layout (the ColumnId at each position) so parents can
/// bind expressions by identity. Every operator reads its children and
/// writes its output through NextBatch; there is no row-at-a-time path.
///
/// Open()/NextBatch() are non-virtual wrappers around the
/// OpenImpl()/NextBatchImpl() hooks subclasses implement. When
/// ExecContext::collect_op_stats is set (EXPLAIN ANALYZE / full tracing),
/// the wrappers time each call and attribute the query-level RuntimeMetrics
/// delta across it to this operator's OperatorStats. The delta spans the
/// whole call — including nested child pulls — so stats are inclusive of
/// the subtree and a parent's self cost is its value minus the sum over its
/// children. When stats collection is off the wrappers cost one branch.
/// At batch granularity next_calls counts NextBatch invocations and
/// rows_out accumulates emitted batch sizes.
class Operator {
 public:
  Operator() = default;
  explicit Operator(ExecContext ctx) : ctx_(ctx) {}
  virtual ~Operator() = default;

  void Open() {
    BufferAccount::FlushPending();
    if (!ctx_.collect_op_stats) {
      OpenImpl();
    } else {
      MetricsSnapshot before = Snapshot();
      auto start = std::chrono::steady_clock::now();
      OpenImpl();
      stats_.open_ns += ElapsedNs(start);
      AccumulateDelta(before);
    }
    BufferAccount::FlushPending();
  }

  /// Produces the next batch of rows; false at end of stream, with the
  /// batch left empty (enforced here, so NextBatchImpl may return false
  /// over a stale batch). Producers Reset `out` to their own width, so a
  /// scratch batch can be reused across calls and across operators. The
  /// thread's pending buffer charges reach the guard on entry and exit (a
  /// charge that trips a limit ends the stream), and the emitted rows
  /// count toward the guard's deadline and cancel checks.
  bool NextBatch(RowBatch* out) {
    if (!BufferAccount::FlushPending()) return EndOfStream(out);
    bool produced = false;
    if (!ctx_.collect_op_stats) {
      produced = NextBatchImpl(out) || EndOfStream(out);
    } else {
      MetricsSnapshot before = Snapshot();
      auto start = std::chrono::steady_clock::now();
      produced = NextBatchImpl(out) || EndOfStream(out);
      stats_.next_ns += ElapsedNs(start);
      AccumulateDelta(before);
      ++stats_.next_calls;
      if (produced) stats_.rows_out += out->size();
    }
    if (!BufferAccount::FlushPending()) return EndOfStream(out);
    if (produced) ctx_.OnRowsEmitted(out->size());
    return produced;
  }

  virtual void Close() {}

  const std::vector<ColumnId>& layout() const { return layout_; }
  const OperatorStats& stats() const { return stats_; }

  /// Folds another operator's stats into this one. Used by ExchangeOp at
  /// Close: workers 1..N-1 ran identical copies of the chain, and their
  /// per-operator stats aggregate into worker 0's registered operators so
  /// EXPLAIN ANALYZE reports the chain's total work.
  void AccumulateStats(const OperatorStats& other) { stats_.MergeFrom(other); }

 protected:
  virtual void OpenImpl() = 0;
  virtual bool NextBatchImpl(RowBatch* out) = 0;

  /// Rows per emitted batch for this query (ExecContext::batch_rows,
  /// clamped to at least 1).
  int64_t BatchCapacity() const {
    return ctx_.batch_rows > 0 ? ctx_.batch_rows : 1;
  }

  /// Steady-clock nanoseconds since `start`.
  static int64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  }

  ExecContext ctx_;
  std::vector<ColumnId> layout_;
  OperatorStats stats_;

 private:
  /// The RuntimeMetrics counters attributed per-operator; rows_produced /
  /// sorts / buffered peaks are tracked elsewhere (rows_out counts this
  /// operator's own emissions, buffered_rows_peak via BufferAccount).
  struct MetricsSnapshot {
    ORDOPT_OPERATOR_DELTA_COUNTERS(ORDOPT_DECLARE_COUNTER)
  };

  /// Empties `out` at end of stream; always false.
  static bool EndOfStream(RowBatch* out) {
    out->Truncate(0);
    return false;
  }

  MetricsSnapshot Snapshot() const {
    MetricsSnapshot s;
    if (ctx_.metrics != nullptr) {
#define ORDOPT_SNAPSHOT_COUNTER(field) s.field = ctx_.metrics->field;
      ORDOPT_OPERATOR_DELTA_COUNTERS(ORDOPT_SNAPSHOT_COUNTER)
#undef ORDOPT_SNAPSHOT_COUNTER
    }
    return s;
  }

  void AccumulateDelta(const MetricsSnapshot& before) {
    if (ctx_.metrics == nullptr) return;
#define ORDOPT_DELTA_COUNTER(field) \
  stats_.field += ctx_.metrics->field - before.field;
    ORDOPT_OPERATOR_DELTA_COUNTERS(ORDOPT_DELTA_COUNTER)
#undef ORDOPT_DELTA_COUNTER
  }
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Base-table scan: a heap scan (`index_ordinal` kHeap, sequential pages)
/// or an ordered index scan, optionally range-bounded by equality
/// constants on a key prefix plus at most one comparison on the next key
/// column, and optionally reversed (full scans only). When
/// `required_columns` is given, the scan emits only the table columns in
/// that set (build-time column pruning): pages and guard accounting still
/// cover every row, but unreferenced cells are never copied out.
///
/// A heap scan and a forward, predicate-free walk of the clustered index
/// read the identity domain: rids 0..N-1 in order (BuildIndexes
/// stable-sorts the heap by the clustered key and the B-tree breaks key
/// ties by rid), so neither touches the B-tree. Serially the scan takes
/// the whole domain as one range; inside an exchange worker
/// (`morsel_driver` with a MorselScheduler in the context) it claims rid
/// ranges from the shared scheduler. Every other index walk streams from
/// its cursor serially, and in morsel mode materializes its qualifying
/// rids once into the scheduler's shared vector (the first worker walks,
/// the rest reuse) and claims position ranges of it. Batches never cross a
/// morsel boundary. With `emit_provenance` the scan appends the hidden
/// provenance column, the walk position (the serial emission ordinal),
/// after the pruned table columns.
class ScanOp : public Operator {
 public:
  static constexpr int kHeap = -1;  ///< `index_ordinal` of a heap scan

  ScanOp(const Table& table, int table_id, int index_ordinal, bool reverse,
         std::vector<Predicate> range_predicates, ExecContext ctx,
         const ColumnSet* required_columns = nullptr,
         bool morsel_driver = false, bool emit_provenance = false);
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch* out) override;

 private:
  /// Index-scan Open: decomposes the range predicates and, unless the walk
  /// is the identity domain, seeks the cursor; false after poisoning.
  bool OpenIndex();
  bool EntryQualifies() const;
  /// The cursor's next qualifying rid; false once the walk ends (keys are
  /// monotone, so the first non-qualifying entry ends it).
  bool CursorNext(int64_t* rid);
  /// Morsel mode: claims the next position range of the scan domain.
  bool ClaimMorsel();

  const Table& table_;
  int index_ordinal_;
  bool reverse_;
  std::vector<Predicate> range_predicates_;
  PageTracker pages_;
  /// Table-column ordinal backing each emitted column (identity without
  /// pruning).
  std::vector<int32_t> src_ordinals_;
  BTreeIndex::Cursor cursor_;
  // Range bounds in index-key positions.
  IndexKey eq_prefix_;
  int cmp_position_ = -1;
  BinOp cmp_op_ = BinOp::kEq;
  Value cmp_bound_;
  bool morsel_driver_ = false;
  bool emit_provenance_ = false;
  /// The walk is rids 0..N-1: a heap scan or a full forward clustered walk.
  bool identity_ = false;
  /// Set when Open failed or a batch tripped the guard: the stream is over.
  bool done_ = false;
  /// Walk position of the next row, and the end of the current range (a
  /// morsel, or [0, row_count) for a serial identity scan).
  int64_t pos_ = 0;
  int64_t limit_ = 0;
  /// Morsel mode, non-identity walks: the shared qualifying rids.
  const std::vector<int64_t>* rids_ = nullptr;
  std::vector<int64_t> scratch_rids_;  ///< rids gathered for one batch
};

/// Predicate application.
class FilterOp : public Operator {
 public:
  FilterOp(OperatorPtr child, std::vector<Predicate> predicates,
           ExecContext ctx = ExecContext());
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch* out) override;
  void Close() override;

 private:
  OperatorPtr child_;
  std::vector<Predicate> predicates_;
  std::unique_ptr<ExprEvaluator> eval_;
  RowBatch input_;       ///< scratch batch pulled from the child
  SelectionVector sel_;  ///< surviving row indices within input_
};

class StreamGroupByOp;

/// ORDER BY via bounded-memory external-merge sort. Rows are buffered up
/// to the spill budget (SpillConfig::sort_memory_rows); each full buffer
/// is stable-sorted and written as a run file through the context's
/// SpillManager, and NextBatch k-way merges the runs with the in-memory
/// tail. Ties resolve to the earliest run in input order (the tail last),
/// so the merge is exactly as stable as the in-memory sort. Without a
/// SpillManager — or with the budget disabled — this degenerates to the
/// classic full in-memory sort.
///
/// Under a SortGroupBy the sort can have an absorber (in-sort aggregation,
/// DESIGN.md §14): every input row is first offered to the parent
/// group-by, which folds the rows of its resident groups in place; only
/// the other rows are buffered, sorted, spilled and emitted, and the
/// buffer spills at the budget minus the resident group count.
/// rows_sorted and rows_out count those overflow rows only.
class SortOp : public Operator {
 public:
  SortOp(OperatorPtr child, OrderSpec spec, ExecContext ctx);
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch* out) override;
  void Close() override;

  const OrderSpec& spec() const { return spec_; }
  void set_absorber(StreamGroupByOp* absorber) { absorber_ = absorber; }

 private:
  /// Strict-weak ordering under the spec; counts comparisons. Used by the
  /// k-way merge over run heads; the buffer sort itself goes through
  /// normalized keys (see SortBuffer).
  bool HeadLess(const Row& a, const Row& b) const;
  /// Stable-sorts rows_ under the spec: encodes each row's sort key into a
  /// memcmp-comparable normalized byte string (Graefe), sorts an index
  /// vector with a branch-light memcmp comparator, then permutes rows_.
  void SortBuffer();
  /// Fills `out` from the spilled-run k-way merge (NextBatchImpl when
  /// merging_).
  void MergeInto(RowBatch* out);
  /// Stable-sorts the current buffer and writes it out as one run;
  /// poisons and returns false on spill failure.
  bool SpillCurrentRun();
  /// Winds the operator down after a mid-sort failure: drops buffered
  /// rows and releases every run.
  void Abandon();
  void ReleaseRuns();

  OperatorPtr child_;
  OrderSpec spec_;
  StreamGroupByOp* absorber_ = nullptr;
  BufferAccount buffer_;
  std::vector<int> positions_;
  std::vector<bool> descending_;
  std::vector<Row> rows_;  ///< in-memory rows (the merge's final run)
  size_t pos_ = 0;
  std::vector<std::unique_ptr<SpillRun>> runs_;  ///< spilled, input order
  std::vector<Row> heads_;       ///< current head row per run
  std::vector<bool> head_valid_;
  bool merging_ = false;
};

/// Which rows a binary join emits. kInner: the matching pairs. kLeft
/// (LEFT OUTER JOIN): the matching pairs, plus every outer row that ends
/// with no match — including outer rows with a NULL join key — emitted
/// once, padded with NULLs on the inner width. The plan's OpKind picks the
/// kind (kMergeLeftJoin, kHashLeftJoin, kNaiveLeftJoin are kLeft).
enum class JoinKind { kInner, kLeft };

/// Shared shape of the binary joins: outer columns then inner columns, the
/// equality key positions on either side, one buffer account for whatever
/// the algorithm holds of the inner, the outer batch cursor, and one emit
/// step. Subclasses gather output rows as (outer row of the current outer
/// batch, held inner row or the LEFT pad) pairs, and EmitGathered writes
/// them column at a time — outer columns, then the inner row's emitted
/// columns or NULLs. The stream joins (merge, hash, nested loop) read the
/// inner from an operator; the index join reads base-table rows. NULL join
/// keys never match.
class JoinOp : public Operator {
 public:
  void Close() override;

 protected:
  /// With a null `inner` (the index join) the subclass appends the inner
  /// columns to layout_ and fills inner_ordinals_ itself.
  JoinOp(OperatorPtr outer, OperatorPtr inner,
         const std::vector<std::pair<ColumnId, ColumnId>>& pairs,
         JoinKind kind, ExecContext ctx);

  /// Resets the outer cursor to before the first outer row.
  void ResetOuter();
  /// Moves the outer cursor to the next outer row, emitting the gathered
  /// rows into `out` first when that needs a new outer batch. False at
  /// the end of the outer stream.
  bool AdvanceOuter(RowBatch* out);
  bool OuterKeyHasNull() const;
  /// Queues output row outer_pos_ + `inner` (null: the LEFT NULL pad).
  void Gather(const Row* inner) {
    match_outer_.push_back(outer_pos_);
    match_inner_.push_back(inner);
  }
  /// Drops the gathered rows after the first `n`.
  void TruncateGathered(int64_t n) {
    match_outer_.resize(static_cast<size_t>(n));
    match_inner_.resize(static_cast<size_t>(n));
  }
  /// Rows `out` will hold once the gathered rows are emitted.
  int64_t Pending(const RowBatch& out) const {
    return out.size() + static_cast<int64_t>(match_inner_.size());
  }
  /// The emit step: appends the gathered rows to `out` column at a time
  /// and clears them. Outer values are copied per row, except at an outer
  /// row's last use once the cursor has passed it, where they are moved.
  void EmitGathered(RowBatch* out);

  OperatorPtr outer_;
  OperatorPtr inner_;  ///< null for the index join
  JoinKind kind_;
  std::vector<int> outer_positions_;
  std::vector<int> inner_positions_;
  /// Ordinal in a held inner row of each emitted inner column.
  std::vector<int32_t> inner_ordinals_;
  BufferAccount buffer_;
  RowBatch outer_batch_;    ///< current outer batch
  int64_t outer_pos_ = -1;  ///< cursor into outer_batch_

 private:
  std::vector<int64_t> match_outer_;
  std::vector<const Row*> match_inner_;
};

/// Merge join of two streams sorted on the join keys (ascending). Handles
/// many-to-many groups by buffering the inner group. Preserves outer order.
class MergeJoinOp : public JoinOp {
 public:
  MergeJoinOp(OperatorPtr outer, OperatorPtr inner,
              std::vector<std::pair<ColumnId, ColumnId>> pairs, JoinKind kind,
              ExecContext ctx);
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch* out) override;
  void Close() override;

 private:
  /// Compares the outer row's key with the inner row's; counts
  /// comparisons.
  int CompareKeys() const;
  bool InnerKeyHasNull() const;
  void AdvanceInner();
  void LoadInnerGroup();

  bool outer_valid_ = false;
  RowBatch inner_batch_;  ///< current inner batch
  int64_t inner_pos_ = 0;
  bool inner_valid_ = false;
  std::vector<Row> group_;  ///< buffered inner rows with equal key
  std::vector<Value> group_key_;
  bool group_valid_ = false;
  size_t group_pos_ = 0;
};

/// Index nested-loop join: for each outer row, probe a base-table index on
/// the matched key prefix and emit concatenated matches. When the outer
/// stream is sorted on the probe key, page accesses arrive in order and the
/// tracker records them as (mostly) sequential — the paper's ordered
/// nested-loop join. A batch ends early where an outer batch does, so the
/// next outer batch is pulled only when a row of it is needed.
class IndexNLJoinOp : public JoinOp {
 public:
  /// `required_columns`, when given, prunes the inner-table half of the
  /// output layout to the columns ancestors reference; probing reads the
  /// index key, so the join itself needs none of the inner cells.
  IndexNLJoinOp(OperatorPtr outer, const Table& table, int table_id,
                int index_ordinal,
                std::vector<std::pair<ColumnId, ColumnId>> pairs,
                ExecContext ctx, const ColumnSet* required_columns = nullptr);
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch* out) override;

 private:
  const Table& table_;
  int index_ordinal_;
  PageTracker pages_;
  IndexKey probe_key_;
  BTreeIndex::Cursor cursor_;
  bool probing_ = false;  ///< the cursor sits on a match of probe_key_
  std::vector<int64_t> probe_rids_;  ///< rids of the gathered matches
};

/// Naive nested-loop join: the inner is materialized once and rescanned
/// per outer row; a pair matches when it passes every ON predicate. The
/// candidate pairs of one outer row are evaluated a batch at a time over a
/// scratch batch of concatenated rows. With no predicates this is the
/// cartesian product. Preserves outer order.
class NaiveNLJoinOp : public JoinOp {
 public:
  NaiveNLJoinOp(OperatorPtr outer, OperatorPtr inner,
                std::vector<Predicate> on_predicates, JoinKind kind,
                ExecContext ctx = ExecContext());
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch* out) override;
  void Close() override;

 private:
  /// Evaluates the next chunk of the current outer row's candidates into
  /// survivors_.
  void EvaluateCandidates(RowBatch* out);

  std::vector<Predicate> on_predicates_;
  std::unique_ptr<ExprEvaluator> eval_;
  std::vector<Row> inner_rows_;
  bool outer_valid_ = false;
  bool matched_current_ = false;
  size_t inner_pos_ = 0;  ///< next candidate of the current outer row
  std::vector<size_t> survivors_;  ///< matching inner rows, in inner order
  size_t survivor_pos_ = 0;
  RowBatch candidates_;  ///< scratch: concatenated candidate rows
  SelectionVector sel_;
};

/// Hash join on the grouping kernel: the inner's rows are grouped by their
/// key's GroupTable group (NULL keys are skipped, as GroupTable puts all
/// NULLs in one group), and each outer row probes with the same encoding.
/// Outer order is NOT preserved by contract, although probing happens in
/// outer order. Shares GroupTable's key-encoding caveat (sort_key.h).
class HashJoinOp : public JoinOp {
 public:
  HashJoinOp(OperatorPtr outer, OperatorPtr inner,
             std::vector<std::pair<ColumnId, ColumnId>> pairs, JoinKind kind,
             ExecContext ctx = ExecContext());
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch* out) override;
  void Close() override;

 private:
  GroupTable table_;
  /// The inner rows, grouped: group g's rows are
  /// rows_[starts_[g], starts_[g + 1]), in inner order.
  std::vector<Row> rows_;
  std::vector<size_t> starts_;
  size_t match_pos_ = 0;  ///< the current outer row's matches left:
  size_t match_end_ = 0;  ///< rows_[match_pos_, match_end_)
};

/// Shared shape of the grouping operators, both on the grouping kernel:
/// output layout (group columns then aggregate outputs; in the partial
/// phase the provenance column sits between them), the key positions in
/// the child layout, the accumulator, and one buffer account for what the
/// operator retains.
class GroupByOp : public Operator {
 public:
  void Close() override;

 protected:
  GroupByOp(OperatorPtr child, const std::vector<ColumnId>& group_columns,
            std::vector<AggregateSpec> aggregates, ExecContext ctx,
            AggPhase phase = AggPhase::kComplete);
  /// Finalizes `group` of `acc` into `out`; false (the guard poisoned) on
  /// an aggregate overflow.
  bool Emit(AggAccumulator* acc, int64_t group, RowBatch* out);

  OperatorPtr child_;
  std::vector<int> group_positions_;
  /// The accumulator's key columns: the group columns, then in the partial
  /// phase the provenance column.
  std::vector<int> key_positions_;
  BufferAccount buffer_;
  AggAccumulator acc_;
  RowBatch input_;  ///< scratch batch pulled from the child
};

/// Streaming aggregation over an input whose order makes groups adjacent
/// (also used above an explicit Sort). With no group columns, emits exactly
/// one row (the SQL global-aggregate contract), even for empty input.
/// Batch-native: one group is open at a time, as the accumulator's group
/// 0; each input row's key is compared column by column with the open
/// group's (one `comparisons` tick per column compared, plus one per group
/// emitted). Only DISTINCT-aggregate values are buffered, released as each
/// group closes.
///
/// Over a SortOp it can also hold resident groups (in-sort aggregation,
/// DESIGN.md §14; AggregateInSort): the sort offers it every input row
/// (Absorb), and a group becomes resident when its first row arrives while
/// fewer than sort_memory_rows / 2 groups are (all groups without a
/// budget). A resident group folds all of its rows in arrival order and is
/// charged as one buffered row; the rest of the input reaches this
/// operator through the sort, in spec order, and is stream-aggregated as
/// above. The two streams merge on the sort-spec bytes of each group's
/// first row, a resident group first on a tie.
class StreamGroupByOp : public GroupByOp {
 public:
  StreamGroupByOp(OperatorPtr child, std::vector<ColumnId> group_columns,
                  std::vector<AggregateSpec> aggregates, ExecContext ctx)
      : GroupByOp(std::move(child), group_columns, std::move(aggregates),
                  ctx) {}
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch* out) override;
  void Close() override;

  /// Turns on in-sort aggregation with `sort` — this operator's child, or
  /// the child of the order checker in between — as the absorbing sort.
  /// Needs group columns and no DISTINCT aggregate.
  void AggregateInSort(SortOp* sort);
  /// Called by the absorbing sort for each row of its input, each batch's
  /// rows in order from row 0: folds the row into its resident group,
  /// admitting the group if there is room. `*absorbed` false leaves the row
  /// to the sort. False once the buffer limit trips.
  bool Absorb(const RowBatch& batch, int64_t row, bool* absorbed);
  int64_t resident_groups() const {
    return resident_ != nullptr ? resident_->table.size() : 0;
  }

 private:
  /// In-sort aggregation state. Group i of `table` is group i of `acc`,
  /// and its first row's sort-spec bytes are spec_keys[spec_offsets[i],
  /// spec_offsets[i + 1]).
  struct Resident {
    Resident(QueryGuard* guard, OperatorStats* stats, size_t key_width,
             std::vector<AggregateSpec> specs,
             const std::vector<ColumnId>& input_layout)
        : buffer(guard, stats),
          acc(key_width, std::move(specs), input_layout, guard, &buffer) {}
    std::string_view spec_key(int64_t group) const {
      const size_t g = static_cast<size_t>(group);
      return std::string_view(spec_keys).substr(
          spec_offsets[g], spec_offsets[g + 1] - spec_offsets[g]);
    }
    void Clear();

    std::vector<int> spec_positions;  ///< in the input layout
    std::vector<bool> spec_descending;
    int64_t max_groups = 0;
    BufferAccount buffer;  ///< one row per resident group
    GroupTable table;
    AggAccumulator acc;
    std::string spec_keys;
    std::vector<size_t> spec_offsets{0};
    std::vector<int64_t> order;  ///< groups in spec-byte order
    size_t next = 0;  ///< next entry of order to emit
    size_t due = 0;   ///< entries of order that precede the open group
    std::string open_key;  ///< the open stream group's spec bytes
  };

  /// Opens a group keyed by row pos_ of input_ (the global group has no
  /// key).
  void StartGroup();
  /// Whether row pos_ of input_ belongs to the open group.
  bool SameGroup();
  /// Appends the open group's result row to `out` and closes the group.
  void EmitGroup(RowBatch* out);
  /// Appends the next resident group's row to `out` if it is due: it
  /// precedes the open group, or the input is done.
  bool EmitResident(RowBatch* out);

  int64_t pos_ = 0;  ///< next unconsumed row of input_
  bool has_group_ = false;
  bool done_ = false;
  std::unique_ptr<Resident> resident_;  ///< null unless AggregateInSort
};

/// Hash aggregation on the grouping kernel: the first row of each key
/// inserts a GroupTable entry and an accumulator group, and every row
/// updates its group in place. At end of input the groups are emitted in
/// ascending key order (Value::Compare order; not claimed as an order
/// property, just reproducible). Buffers one row per group (its key) and
/// per retained DISTINCT-aggregate value, never one per input row.
///
/// Split around an exchange (DESIGN.md §15), the partial phase runs in
/// each worker and emits one row per group — key, partial states, and the
/// provenance of the group's first row — in first-seen order, which is
/// provenance order; a global aggregate emits no row for an empty input.
/// The final phase merges those states, and since the exchange hands it
/// each group's globally first-seen partial first, it keeps the key values
/// a serial run keeps.
class HashGroupByOp : public GroupByOp {
 public:
  HashGroupByOp(OperatorPtr child, std::vector<ColumnId> group_columns,
                std::vector<AggregateSpec> aggregates, ExecContext ctx,
                AggPhase phase = AggPhase::kComplete)
      : GroupByOp(std::move(child), group_columns, std::move(aggregates),
                  ctx, phase) {}
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch* out) override;
  void Close() override;

 private:
  GroupTable table_;            ///< group i is the accumulator's group i
  std::vector<int64_t> order_;  ///< groups in emission order
  size_t pos_ = 0;              ///< next entry of order_ to emit
};

/// Duplicate elimination on a column subset for inputs where duplicates are
/// adjacent (sorted or grouped); preserves order. Each input row's key is
/// compared with the last passed row's, which may sit in an earlier batch;
/// the passing rows move into the output a contiguous run at a time, and
/// output batches fill to capacity before they are emitted.
class StreamDistinctOp : public Operator {
 public:
  StreamDistinctOp(OperatorPtr child, ColumnSet distinct_columns,
                   ExecContext ctx = ExecContext());
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch* out) override;
  void Close() override;

 private:
  /// Moves the passing rows of input_ (sel_) into `out`.
  void MovePassed(RowBatch* out);

  OperatorPtr child_;
  std::vector<int> positions_;
  std::vector<size_t> columns_;  ///< every column, for MoveRangeFrom
  std::vector<Value> last_key_;  ///< key of the last row passed through
  bool has_last_ = false;
  RowBatch input_;       ///< scratch batch pulled from the child
  int64_t pos_ = 0;      ///< next unread row of input_
  SelectionVector sel_;  ///< passing rows of input_ not yet moved
};

/// Hash-based duplicate elimination on the grouping kernel's GroupTable
/// (no aggregates). Streaming: each key's first row passes through in
/// input order. Buffers one row per distinct key.
class HashDistinctOp : public Operator {
 public:
  HashDistinctOp(OperatorPtr child, ColumnSet distinct_columns,
                 ExecContext ctx = ExecContext());
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch* out) override;
  void Close() override;

 private:
  OperatorPtr child_;
  std::vector<int> positions_;
  BufferAccount buffer_;
  GroupTable seen_;
  SelectionVector sel_;  ///< first-seen rows of the current batch
};

/// Concatenates branch streams. Columns are positional: every child's row
/// has the same width; the operator's layout carries the union's fresh
/// output ColumnIds.
class UnionAllOp : public Operator {
 public:
  UnionAllOp(std::vector<OperatorPtr> children, std::vector<ColumnId> layout,
             ExecContext ctx = ExecContext());
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch* out) override;
  void Close() override;

 private:
  std::vector<OperatorPtr> children_;
  size_t current_ = 0;
};

/// K-way merge of branch streams, each sorted ascending on all columns
/// (position-major); emits rows in that global order, enabling streaming
/// duplicate elimination for UNION and satisfying an ORDER BY for free.
class MergeUnionOp : public Operator {
 public:
  MergeUnionOp(std::vector<OperatorPtr> children,
               std::vector<ColumnId> layout, ExecContext ctx);
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch* out) override;
  void Close() override;

 private:
  /// One child stream: its current batch and the head row's position.
  struct Head {
    RowBatch batch;
    int64_t pos = 0;
    bool valid = false;
  };
  /// Pulls child `i`'s next non-empty batch.
  void Refill(size_t i);
  /// Compares the head rows of children `a` and `b` column by column;
  /// counts comparisons.
  int CompareHeads(size_t a, size_t b) const;

  std::vector<OperatorPtr> children_;
  std::vector<Head> heads_;
};

/// Bounded-heap Top-N: keeps only the `limit` smallest rows under the
/// order specification while consuming the child, then emits them in
/// order. O(n log k) comparisons and O(k) memory instead of a full sort —
/// the classic ORDER BY + LIMIT fusion.
class TopNOp : public Operator {
 public:
  TopNOp(OperatorPtr child, OrderSpec spec, int64_t limit, ExecContext ctx);
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch* out) override;
  void Close() override;

 private:
  OperatorPtr child_;
  OrderSpec spec_;
  int64_t limit_;
  BufferAccount buffer_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

/// Emits at most `limit` rows, then ends the stream.
class LimitOp : public Operator {
 public:
  LimitOp(OperatorPtr child, int64_t limit, ExecContext ctx = ExecContext());
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch* out) override;
  void Close() override;

 private:
  OperatorPtr child_;
  int64_t limit_;
  int64_t emitted_ = 0;
};

/// Final projection: evaluates the output expressions.
class ProjectOp : public Operator {
 public:
  ProjectOp(OperatorPtr child, std::vector<OutputColumn> projections,
            ExecContext ctx = ExecContext());
  void OpenImpl() override;
  bool NextBatchImpl(RowBatch* out) override;
  void Close() override;

 private:
  OperatorPtr child_;
  std::vector<OutputColumn> projections_;
  std::unique_ptr<ExprEvaluator> eval_;
  RowBatch input_;  ///< scratch batch pulled from the child
};

}  // namespace ordopt

#endif  // ORDOPT_EXEC_OPERATORS_H_
