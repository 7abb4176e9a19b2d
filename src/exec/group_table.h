#ifndef ORDOPT_EXEC_GROUP_TABLE_H_
#define ORDOPT_EXEC_GROUP_TABLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

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
/// batch, and each group folds its values in input arrival order, so
/// double sums are reproducible. A DISTINCT aggregate's values are
/// collected first — deduplicated by normalized bytes, the first-seen Value
/// kept, each new one charged to the buffer account as one row — and
/// FoldDistinct folds them in ascending key order.
class AggAccumulator {
 public:
  AggAccumulator(size_t key_width, std::vector<AggregateSpec> specs,
                 const std::vector<ColumnId>& input_layout, QueryGuard* guard,
                 BufferAccount* distinct_buffer);

  const std::vector<AggregateSpec>& specs() const { return specs_; }

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
  /// a DISTINCT value trips the buffer limit.
  bool Update(int64_t group, int64_t row);
  /// Folds the collected DISTINCT values into their groups, each group's in
  /// ascending key order, then drops them.
  void FoldDistinct();
  /// Appends `group`'s row — key values, then aggregate results — to
  /// `out`, moving the key values out.
  void Finalize(int64_t group, RowBatch* out);

 private:
  struct State {
    double sum_d = 0.0;
    int64_t sum_i = 0;
    bool sum_is_int = true;
    int64_t count = 0;  ///< rows (count(*)) or non-NULL values folded
    Value extreme;      ///< running min (kMin) or max (kMax)
  };

  static void Fold(AggFunc func, const Value& v, State* st);

  std::vector<AggregateSpec> specs_;
  size_t key_width_;
  ExprEvaluator eval_;
  BufferAccount* distinct_buffer_;
  RowBatch args_;  ///< column i: spec i's argument over the last batch
  std::vector<Value> keys_;    ///< group-major, key_width_ per group
  std::vector<State> states_;  ///< group-major, specs_.size() per group
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
