#include "exec/group_table.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "exec/sort_key.h"

namespace ordopt {

// ---------------------------------------------------------------------------
// GroupTable
// ---------------------------------------------------------------------------

int64_t GroupTable::FindOrInsert(std::string_view key, bool* inserted,
                                 bool may_insert) {
  if (static_cast<size_t>(size() + 1) * 2 > slots_.size()) Grow();
  const uint64_t hash = std::hash<std::string_view>()(key);
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.group < 0) {
      *inserted = may_insert;
      if (!may_insert) return -1;
      slot.hash = hash;
      slot.group = size();
      arena_.append(key);
      offsets_.push_back(arena_.size());
      return slot.group;
    }
    if (slot.hash == hash && this->key(slot.group) == key) {
      *inserted = false;
      return slot.group;
    }
  }
}

int64_t GroupTable::FindOrInsert(const RowBatch& batch, int64_t row,
                                 const std::vector<int>& positions,
                                 bool* inserted, bool may_insert) {
  scratch_.clear();
  for (int p : positions) {
    AppendNormalizedKeyColumn(batch.At(static_cast<size_t>(p), row),
                              /*descending=*/false, &scratch_);
  }
  return FindOrInsert(scratch_, inserted, may_insert);
}

void GroupTable::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : old.size() * 2, Slot());
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.group < 0) continue;
    size_t i = slot.hash & mask;
    while (slots_[i].group >= 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

std::vector<int64_t> GroupTable::SortedGroups() const {
  std::vector<int64_t> order(static_cast<size_t>(size()));
  std::iota(order.begin(), order.end(), int64_t{0});
  // Keys are distinct, so the order is total and std::sort deterministic;
  // string_view compares bytes as unsigned char, i.e. memcmp order.
  std::sort(order.begin(), order.end(),
            [this](int64_t a, int64_t b) { return key(a) < key(b); });
  return order;
}

void GroupTable::Clear() {
  slots_.clear();
  arena_.clear();
  offsets_.assign(1, 0);
}

// ---------------------------------------------------------------------------
// AggAccumulator
// ---------------------------------------------------------------------------

AggAccumulator::AggAccumulator(size_t key_width,
                               std::vector<AggregateSpec> specs,
                               const std::vector<ColumnId>& input_layout,
                               QueryGuard* guard,
                               BufferAccount* distinct_buffer)
    : specs_(std::move(specs)),
      key_width_(key_width),
      eval_(input_layout, guard),
      distinct_buffer_(distinct_buffer) {}

void AggAccumulator::AddGroup(Row key) {
  for (Value& v : key) keys_.push_back(std::move(v));
  states_.resize(states_.size() + specs_.size());
}

void AggAccumulator::Clear() {
  keys_.clear();
  states_.clear();
  distinct_.Clear();
  distinct_values_.clear();
}

void AggAccumulator::EvaluateArgs(const RowBatch& batch) {
  args_.Reset(specs_.size(), batch.size());
  for (size_t i = 0; i < specs_.size(); ++i) {
    // count(*) has no argument; its column is NULLs that Update never reads.
    eval_.EvalColumn(specs_[i].count_star ? BoundExpr() : specs_[i].arg,
                     batch, &args_, i);
  }
  args_.SetRowCount(batch.size());
}

bool AggAccumulator::Update(int64_t group, int64_t row) {
  State* st = &states_[static_cast<size_t>(group) * specs_.size()];
  for (size_t i = 0; i < specs_.size(); ++i, ++st) {
    const AggregateSpec& spec = specs_[i];
    if (spec.count_star) {
      ++st->count;
      continue;
    }
    const Value& v = args_.At(i, row);
    if (v.is_null()) continue;
    if (!spec.distinct) {
      Fold(spec.func, v, st);
      continue;
    }
    key_.clear();
    for (const Value& part :
         {Value::Int(static_cast<int64_t>(i)), Value::Int(group), v}) {
      AppendNormalizedKeyColumn(part, /*descending=*/false, &key_);
    }
    bool inserted = false;
    distinct_.FindOrInsert(key_, &inserted);
    if (!inserted) continue;
    distinct_values_.emplace_back(i, group, v);
    // Each retained distinct value is buffered state; a trip poisons the
    // guard and the operator winds the stream down.
    if (!distinct_buffer_->Add(Row{v})) return false;
  }
  return true;
}

void AggAccumulator::FoldDistinct() {
  for (int64_t e : distinct_.SortedGroups()) {
    const auto& [spec, group, value] =
        distinct_values_[static_cast<size_t>(e)];
    Fold(specs_[spec].func, value,
         &states_[static_cast<size_t>(group) * specs_.size() + spec]);
  }
  distinct_.Clear();
  distinct_values_.clear();
}

void AggAccumulator::Fold(AggFunc func, const Value& v, State* st) {
  ++st->count;
  switch (func) {
    case AggFunc::kSum:
    case AggFunc::kAvg:
      if (v.type() == DataType::kInt64 && st->sum_is_int) {
        st->sum_i += v.AsInt();
      } else {
        if (st->sum_is_int) {
          st->sum_d = static_cast<double>(st->sum_i);
          st->sum_is_int = false;
        }
        st->sum_d += v.AsDouble();
      }
      break;
    case AggFunc::kMin:
    case AggFunc::kMax: {
      const int cmp = v.Compare(st->extreme);
      if (st->extreme.is_null() ||
          (func == AggFunc::kMin ? cmp < 0 : cmp > 0)) {
        st->extreme = v;
      }
      break;
    }
    case AggFunc::kCount:
      break;  // counted above
  }
}

void AggAccumulator::Finalize(int64_t group, RowBatch* out) {
  for (size_t k = 0; k < key_width_; ++k) {
    out->AppendColumnValue(
        k, std::move(keys_[static_cast<size_t>(group) * key_width_ + k]));
  }
  const State* st = &states_[static_cast<size_t>(group) * specs_.size()];
  for (size_t i = 0; i < specs_.size(); ++i, ++st) {
    Value v;
    switch (specs_[i].func) {
      case AggFunc::kCount:
        v = Value::Int(st->count);
        break;
      case AggFunc::kSum:
        if (st->count > 0) {
          v = st->sum_is_int ? Value::Int(st->sum_i)
                             : Value::Double(st->sum_d);
        }
        break;
      case AggFunc::kAvg:
        if (st->count > 0) {
          const double total =
              st->sum_is_int ? static_cast<double>(st->sum_i) : st->sum_d;
          v = Value::Double(total / static_cast<double>(st->count));
        }
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        v = st->extreme;
        break;
    }
    out->AppendColumnValue(key_width_ + i, std::move(v));
  }
  out->SetRowCount(out->size() + 1);
}

}  // namespace ordopt
