#ifndef ORDOPT_EXEC_GROUP_TABLE_H_
#define ORDOPT_EXEC_GROUP_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/status.h"
#include "exec/exact_sum.h"
#include "exec/expr_eval.h"
#include "exec/query_guard.h"
#include "exec/row_batch.h"
#include "qgm/qgm.h"

namespace ordopt {

/// The grouping kernel behind hash group-by, hash distinct and stream
/// group-by (DESIGN.md §14, "Aggregation kernel").
///
/// GroupTable maps a key's normalized bytes (sort_key.h, every column
/// ascending) to a dense group index 0, 1, 2, ... in first-seen order.
/// memcmp over the encoding agrees with Value::Compare, so byte equality is
/// Compare equality — int 3 and double 3.0 share a group, as do all NULLs —
/// and SortedGroups() lists the groups in ascending Compare order of their
/// keys. Layout: open addressing with linear probing over a power-of-two
/// slot array kept at most half full; a slot holds the key's full hash and
/// its group index, and the key bytes of all groups sit back to back in
/// one arena, so a probe reads the slot array and, on a hash match, one
/// arena range.
class GroupTable {
 public:
  /// The group whose key bytes equal `key`. When there is none a new group
  /// (index size()) is appended — or, with `may_insert` false, -1 is
  /// returned; `*inserted` says whether a group was appended.
  int64_t FindOrInsert(std::string_view key, bool* inserted,
                       bool may_insert = true);
  /// Encodes the key of row `row` of `batch` (the columns at `positions`)
  /// and finds or inserts its group.
  int64_t FindOrInsert(const RowBatch& batch, int64_t row,
                       const std::vector<int>& positions, bool* inserted,
                       bool may_insert = true);

  int64_t size() const { return static_cast<int64_t>(offsets_.size()) - 1; }

  /// Every group index, ordered by ascending key bytes.
  std::vector<int64_t> SortedGroups() const;

  void Clear();

 private:
  struct Slot {
    uint64_t hash = 0;
    int64_t group = -1;  ///< -1: empty
  };

  std::string_view key(int64_t group) const {
    const size_t g = static_cast<size_t>(group);
    return std::string_view(arena_).substr(offsets_[g],
                                           offsets_[g + 1] - offsets_[g]);
  }
  void Grow();

  std::vector<Slot> slots_;
  std::string arena_;
  std::vector<size_t> offsets_{0};  ///< group g: [offsets_[g], offsets_[g+1])
  std::string scratch_;             ///< key encoding of the row variant
};

/// The groups of one aggregate list: per group its key values and one block
/// of aggregate states — init (AddGroup), update (Update) and finalize
/// (Finalize). Arguments are evaluated column-at-a-time once per input
/// batch. A DISTINCT aggregate's values are collected first — deduplicated
/// by normalized bytes, the first-seen Value kept, each new one charged to
/// the buffer account as one row — and FoldDistinct folds them in ascending
/// key order.
///
/// SUM and AVG are exact (DESIGN.md §14, "Exact sums"): int64 arguments
/// add into a 128-bit integer, which no count of int64s can overflow, and
/// doubles into a FixedSum, or from the first double it cannot hold on
/// into an ExactSum; Finalize rounds the total once. So every sum is the
/// same for any arrival order and any partitioning: the correctly rounded
/// total once a double took part, else the exact integer total — or an
/// OutOfRange error when that does not fit an int64. An ExactSum is
/// allocated per group and aggregate only when needed, and charged to the
/// buffer account like a buffered row's bytes, so the byte limits see it.
///
/// The phase splits one aggregation in two around an exchange. A partial
/// accumulator's key is the group key plus one more column, the provenance
/// of the group's first row, and Finalize emits states instead of results:
/// COUNT as an int64, MIN/MAX as the extreme, SUM/AVG as an opaque string
/// (the count, the integer sum and, when doubles took part, the FixedSum
/// or the ExactSum). A final accumulator reads each aggregate's state from
/// the input column named by its output and merges it into its group.
class AggAccumulator {
 public:
  AggAccumulator(size_t key_width, std::vector<AggregateSpec> specs,
                 const std::vector<ColumnId>& input_layout, QueryGuard* guard,
                 BufferAccount* buffer, AggPhase phase = AggPhase::kComplete);

  const std::vector<AggregateSpec>& specs() const { return specs_; }
  AggPhase phase() const { return phase_; }

  /// Appends the next group index, keyed by `key`, with initialized
  /// states.
  void AddGroup(Row key);
  const Value& key(int64_t group, size_t column) const {
    return keys_[static_cast<size_t>(group) * key_width_ + column];
  }
  /// Drops every group and every collected DISTINCT value.
  void Clear();
  /// Evaluates the aggregate arguments over `batch` for Update to read.
  void EvaluateArgs(const RowBatch& batch);
  /// Folds row `row` of the last evaluated batch into `group`. False once
  /// an exact sum's allocation trips the buffer limit. DISTINCT values are
  /// charged at the next flush (BufferAccount).
  bool Update(int64_t group, int64_t row);
  /// Folds the collected DISTINCT values into their groups, each group's in
  /// ascending key order, then drops them. False once an exact sum trips
  /// the buffer limit.
  bool FoldDistinct();
  /// Appends `group`'s row — key values, then aggregate results (partial
  /// states in the partial phase) — to `out`, consuming the group's key
  /// values and sums. OutOfRange, appending nothing, when an int64 SUM's
  /// total does not fit.
  Status Finalize(int64_t group, RowBatch* out);

 private:
  struct State {
    /// The sum of the int64 values: below 2^63 * 2^63 in magnitude for any
    /// count, so it cannot overflow.
    __int128 sum_i = 0;
    /// The sum of the doubles while a FixedSum holds it, ...
    FixedSum sum_f;
    /// ... and from the first double it cannot on; in exact_blocks_.
    ExactSum* exact = nullptr;
    int64_t count = 0;  ///< rows (count(*)) or non-NULL values folded
    Value extreme;  ///< running min (kMin) or max (kMax)

    /// Whether a double took part, making the result a double.
    bool doubles() const { return exact != nullptr || sum_f.added; }
  };

  /// Folds `v` into `st`; false once an exact sum trips the buffer limit.
  bool Fold(AggFunc func, const Value& v, State* st);
  /// Merges a partial state read from the input into `st`; false as Fold.
  bool Merge(AggFunc func, const Value& v, State* st);
  /// `st`'s exact sum, allocated and charged on first use, when it takes
  /// over sum_f's total; nullptr when that trips the buffer limit.
  ExactSum* Exact(State* st);
  /// The value Finalize emits for aggregate `i` of state `st`, consuming
  /// its sums.
  Status Result(size_t i, State* st, Value* out) const;

  std::vector<AggregateSpec> specs_;
  size_t key_width_;
  AggPhase phase_;
  ExprEvaluator eval_;
  BufferAccount* buffer_;  ///< DISTINCT values and exact sums
  /// What EvaluateArgs evaluates per aggregate: its argument, or in the
  /// final phase its state column.
  std::vector<BoundExpr> inputs_;
  RowBatch args_;  ///< column i: inputs_[i] over the last batch
  std::vector<Value> keys_;    ///< group-major, key_width_ per group
  std::vector<State> states_;  ///< group-major, specs_.size() per group
  /// The states' exact sums, in blocks of kExactBlock; Clear keeps the
  /// blocks for reuse.
  static constexpr size_t kExactBlock = 64;
  std::vector<std::unique_ptr<ExactSum[]>> exact_blocks_;
  size_t exact_used_ = 0;
  Row results_;  ///< Finalize scratch
  /// Every DISTINCT aggregate's values, keyed by the normalized aggregate
  /// index, group index and value, so key order is aggregate-major, then
  /// group-major. distinct_values_[i] is distinct_'s entry i: its
  /// aggregate, group and first-seen value.
  GroupTable distinct_;
  std::vector<std::tuple<size_t, int64_t, Value>> distinct_values_;
  std::string key_;  ///< DISTINCT key scratch
};

}  // namespace ordopt

#endif  // ORDOPT_EXEC_GROUP_TABLE_H_
