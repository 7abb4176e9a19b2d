#include "exec/row_batch.h"

#include <cassert>
#include <iterator>
#include <utility>

namespace ordopt {

namespace {
size_t NullWordsFor(int64_t capacity) {
  return static_cast<size_t>((capacity + 63) / 64);
}
}  // namespace

void RowBatch::Reset(size_t num_columns, int64_t capacity) {
  if (capacity < 1) capacity = 1;
  capacity_ = capacity;
  rows_ = 0;
  cols_.resize(num_columns);
  const size_t words = NullWordsFor(capacity);
  for (ColumnData& col : cols_) {
    col.values.clear();
    col.nulls.assign(words, 0);
  }
}

void RowBatch::SetNullBit(size_t col, int64_t row, bool is_null) {
  auto& words = cols_[col].nulls;
  const size_t word = static_cast<size_t>(row) >> 6;
  if (word >= words.size()) words.resize(word + 1, 0);
  if (is_null) {
    words[word] |= uint64_t{1} << (static_cast<size_t>(row) & 63);
  }
}

void RowBatch::AppendRow(const Row& row) {
  assert(row.size() == cols_.size());
  for (size_t c = 0; c < cols_.size(); ++c) {
    SetNullBit(c, rows_, row[c].is_null());
    cols_[c].values.push_back(row[c]);
  }
  ++rows_;
}

void RowBatch::AppendRow(Row&& row) {
  assert(row.size() == cols_.size());
  for (size_t c = 0; c < cols_.size(); ++c) {
    SetNullBit(c, rows_, row[c].is_null());
    cols_[c].values.push_back(std::move(row[c]));
  }
  ++rows_;
}

void RowBatch::SetRowCount(int64_t rows) {
#ifndef NDEBUG
  for (const ColumnData& col : cols_) {
    assert(static_cast<int64_t>(col.values.size()) == rows);
  }
#endif
  rows_ = rows;
}

void RowBatch::Compact(const SelectionVector& sel) {
  const size_t n = sel.size();
  for (ColumnData& col : cols_) {
    for (size_t i = 0; i < n; ++i) {
      const size_t src = static_cast<size_t>(sel[i]);
      if (src != i) col.values[i] = std::move(col.values[src]);
    }
    col.values.resize(n);
    // Rebuild the null bits in place: `sel` is ascending, so the read at
    // sel[i] is always at a position >= the write at i and is never
    // clobbered by an earlier write.
    for (size_t i = 0; i < n; ++i) {
      const size_t src = static_cast<size_t>(sel[i]);
      const bool is_null = (col.nulls[src >> 6] >> (src & 63)) & 1u;
      const uint64_t mask = uint64_t{1} << (i & 63);
      if (is_null) {
        col.nulls[i >> 6] |= mask;
      } else {
        col.nulls[i >> 6] &= ~mask;
      }
    }
    // Clear the dropped tail so later appends start from zeroed bits.
    for (int64_t r = static_cast<int64_t>(n); r < rows_; ++r) {
      col.nulls[static_cast<size_t>(r) >> 6] &=
          ~(uint64_t{1} << (static_cast<size_t>(r) & 63));
    }
  }
  rows_ = static_cast<int64_t>(n);
}

void RowBatch::Truncate(int64_t n) {
  if (n >= rows_) return;
  if (n < 0) n = 0;
  for (ColumnData& col : cols_) {
    col.values.resize(static_cast<size_t>(n));
    // Clear the null bits of the dropped tail so a later append at these
    // positions starts from zeroed words.
    for (int64_t r = n; r < rows_; ++r) {
      col.nulls[static_cast<size_t>(r) >> 6] &=
          ~(uint64_t{1} << (static_cast<size_t>(r) & 63));
    }
  }
  rows_ = n;
}

void RowBatch::MoveRangeFrom(RowBatch* src,
                             const std::vector<size_t>& src_cols,
                             int64_t begin, int64_t end) {
  assert(src_cols.size() == cols_.size());
  assert(0 <= begin && begin <= end && end <= src->rows_);
  assert(rows_ + (end - begin) <= capacity_);
  if (rows_ == 0 && begin == 0 && end == src->rows_) {
    for (size_t c = 0; c < cols_.size(); ++c) {
      std::swap(cols_[c], src->cols_[src_cols[c]]);
    }
    rows_ = end;
    return;
  }
  for (size_t c = 0; c < cols_.size(); ++c) {
    ColumnData& from = src->cols_[src_cols[c]];
    ColumnData& to = cols_[c];
    to.values.insert(to.values.end(),
                     std::make_move_iterator(from.values.begin() + begin),
                     std::make_move_iterator(from.values.begin() + end));
    // Destination bits are pre-zeroed (Reset/Clear), so only NULLs write.
    for (int64_t r = begin; r < end; ++r) {
      if (src->IsNull(src_cols[c], r)) SetNullBit(c, rows_ + (r - begin), true);
    }
  }
  rows_ += end - begin;
}

Row RowBatch::TakeRow(int64_t row) {
  Row out;
  TakeRowInto(row, &out);
  return out;
}

void RowBatch::TakeRowInto(int64_t row, Row* out) {
  out->clear();
  out->reserve(cols_.size());
  for (ColumnData& col : cols_) {
    out->push_back(std::move(col.values[static_cast<size_t>(row)]));
  }
}

}  // namespace ordopt
