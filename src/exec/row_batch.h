#ifndef ORDOPT_EXEC_ROW_BATCH_H_
#define ORDOPT_EXEC_ROW_BATCH_H_

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/value.h"

namespace ordopt {

/// Default number of rows per execution batch. Chosen so a batch of narrow
/// rows stays comfortably inside L2 while still amortizing per-batch virtual
/// dispatch and guard bookkeeping over ~1K rows. Overridable per query via
/// OptimizerConfig::batch_rows / ExecContext::batch_rows.
inline constexpr int64_t kDefaultBatchRows = 1024;

/// A selection vector: indices of surviving rows within a RowBatch, in
/// ascending order. Predicates evaluate batch-at-a-time into one of these;
/// FilterOp compacts the batch through it.
using SelectionVector = std::vector<int32_t>;

/// Column-oriented batch of rows flowing between operators.
///
/// Layout: one std::vector<Value> per column plus a per-column null bitmap
/// (1 bit per row, packed into uint64 words). The bitmap duplicates
/// Value::is_null() so batch kernels (predicate evaluation, normalized key
/// encoding, order checks) can test NULL-ness without touching the variant;
/// the invariant `bit set <=> value.is_null()` is maintained by every
/// mutating method.
///
/// A batch is produced by exactly one operator per NextBatch call: the
/// producer Resets it to its own width and fills it, so consumers never see
/// stale columns. Capacity is a soft bound — producers emit at most
/// `capacity()` rows, but short batches (stream tails, selective filters)
/// are normal and consumers must not assume fullness.
class RowBatch {
 public:
  RowBatch() = default;

  /// Drops all rows and re-shapes the batch to `num_columns` columns with
  /// room for `capacity` rows. Keeps per-column heap allocations when the
  /// shape is unchanged, so a scratch batch reused across NextBatch calls
  /// settles into zero-allocation steady state.
  void Reset(size_t num_columns, int64_t capacity);

  size_t num_columns() const { return cols_.size(); }
  int64_t size() const { return rows_; }
  int64_t capacity() const { return capacity_; }
  bool empty() const { return rows_ == 0; }
  bool full() const { return rows_ >= capacity_; }

  const Value& At(size_t col, int64_t row) const {
    return cols_[col].values[static_cast<size_t>(row)];
  }
  /// Mutable access for owners that move individual values out (same
  /// caveats as TakeRow: the slot becomes unspecified and the bitmap stale
  /// until the next Reset).
  Value* MutableAt(size_t col, int64_t row) {
    return &cols_[col].values[static_cast<size_t>(row)];
  }
  bool IsNull(size_t col, int64_t row) const {
    const auto& words = cols_[col].nulls;
    return (words[static_cast<size_t>(row) >> 6] >>
            (static_cast<size_t>(row) & 63)) &
           1u;
  }

  /// Appends one row (row-major entry point for operators that hold rows:
  /// the sort's buffer and run merge, Top-N's heap).
  void AppendRow(const Row& row);
  void AppendRow(Row&& row);

  /// Columnar fill: appends `v` to column `col` without touching the row
  /// count. Producers that build column-by-column (scans, ProjectOp, the
  /// joins' emit steps) append the same number of values to every column
  /// and then call SetRowCount with the new total. Inline: this is the
  /// hottest call in the executor (~once per value crossing an operator
  /// boundary).
  void AppendColumnValue(size_t col, Value v) {
    ColumnData& column = cols_[col];
    // Appends stay within the Reset capacity (producers respect full()),
    // so the pre-zeroed null words cover every row and only NULLs need a
    // bitmap write.
    assert(static_cast<int64_t>(column.values.size()) < capacity_);
    if (v.is_null()) {
      const size_t row = column.values.size();
      SetNullBit(col, static_cast<int64_t>(row), true);
    }
    column.values.push_back(std::move(v));
  }

  /// Declares the row count after columnar fills. Every column must hold
  /// exactly `rows` values.
  void SetRowCount(int64_t rows);

  /// Compacts this batch in place to the selected rows: survivors are
  /// moved down within each column and the null bitmap is rebuilt, so no
  /// Value is copied. Indices in `sel` must be ascending and in-range.
  void Compact(const SelectionVector& sel);

  /// Keeps only the first `n` rows (no-op when n >= size). LimitOp's cut.
  void Truncate(int64_t n);

  /// Appends rows [begin, end) of `src` column-wise: column c of this
  /// batch receives src column `src_cols[c]`; src columns not listed are
  /// dropped. Values move out (TakeRow caveats apply to `src`). When this
  /// batch is empty and the range is all of `src`, the listed columns'
  /// storage is handed over by swap and no value moves at all. The rows
  /// must fit within this batch's capacity.
  void MoveRangeFrom(RowBatch* src, const std::vector<size_t>& src_cols,
                     int64_t begin, int64_t end);

  /// Moves row `row`'s values out into an owned Row. The moved-from slots
  /// become valid-but-unspecified and the null bitmap no longer reflects
  /// them, so this is only for consumers that read each row once and never
  /// again (buffering operators' input, the executor's result loop). The
  /// batch must be Reset before it is filled again, which every producer
  /// does.
  Row TakeRow(int64_t row);
  void TakeRowInto(int64_t row, Row* out);

  friend void swap(RowBatch& a, RowBatch& b) noexcept {
    std::swap(a.cols_, b.cols_);
    std::swap(a.rows_, b.rows_);
    std::swap(a.capacity_, b.capacity_);
  }

 private:
  struct ColumnData {
    std::vector<Value> values;
    std::vector<uint64_t> nulls;  ///< 1 bit per row; bit set = NULL
  };

  void SetNullBit(size_t col, int64_t row, bool is_null);

  std::vector<ColumnData> cols_;
  int64_t rows_ = 0;
  int64_t capacity_ = 0;
};

}  // namespace ordopt

#endif  // ORDOPT_EXEC_ROW_BATCH_H_
