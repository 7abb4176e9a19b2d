#include "exec/group_table.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>

#include "common/macros.h"
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

namespace {

/// A partial SUM/AVG state's tag after its count and integer sum, when
/// doubles took part: a FixedSum (base, total) or an ExactSum follows.
constexpr char kFixedState = 'f';
constexpr char kExactState = 'x';

}  // namespace

AggAccumulator::AggAccumulator(size_t key_width,
                               std::vector<AggregateSpec> specs,
                               const std::vector<ColumnId>& input_layout,
                               QueryGuard* guard, BufferAccount* buffer,
                               AggPhase phase)
    : specs_(std::move(specs)),
      key_width_(key_width),
      phase_(phase),
      eval_(input_layout, guard),
      buffer_(buffer) {
  for (const AggregateSpec& spec : specs_) {
    if (phase_ == AggPhase::kFinal) {
      inputs_.push_back(
          BoundExpr::Column(spec.output, DataType::kNull, spec.name));
    } else {
      // count(*) has no argument; its column is NULLs that Update never
      // reads.
      inputs_.push_back(spec.count_star ? BoundExpr() : spec.arg);
    }
  }
}

void AggAccumulator::AddGroup(Row key) {
  for (Value& v : key) keys_.push_back(std::move(v));
  states_.resize(states_.size() + specs_.size());
}

void AggAccumulator::Clear() {
  keys_.clear();
  states_.clear();
  exact_used_ = 0;
  distinct_.Clear();
  distinct_values_.clear();
}

void AggAccumulator::EvaluateArgs(const RowBatch& batch) {
  args_.Reset(specs_.size(), batch.size());
  for (size_t i = 0; i < specs_.size(); ++i) {
    eval_.EvalColumn(inputs_[i], batch, &args_, i);
  }
  args_.SetRowCount(batch.size());
}

bool AggAccumulator::Update(int64_t group, int64_t row) {
  State* st = &states_[static_cast<size_t>(group) * specs_.size()];
  for (size_t i = 0; i < specs_.size(); ++i, ++st) {
    const AggregateSpec& spec = specs_[i];
    if (spec.count_star && phase_ != AggPhase::kFinal) {
      ++st->count;
      continue;
    }
    const Value& v = args_.At(i, row);
    if (v.is_null()) continue;
    if (phase_ == AggPhase::kFinal) {
      if (!Merge(spec.func, v, st)) return false;
      continue;
    }
    if (!spec.distinct) {
      if (!Fold(spec.func, v, st)) return false;
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
    // Each retained distinct value is buffered state.
    buffer_->Add(Row{v});
  }
  return true;
}

bool AggAccumulator::FoldDistinct() {
  bool ok = true;
  for (int64_t e : distinct_.SortedGroups()) {
    const auto& [spec, group, value] =
        distinct_values_[static_cast<size_t>(e)];
    ok = Fold(specs_[spec].func, value,
              &states_[static_cast<size_t>(group) * specs_.size() + spec]) &&
         ok;
  }
  distinct_.Clear();
  distinct_values_.clear();
  return ok;
}

ExactSum* AggAccumulator::Exact(State* st) {
  if (st->exact != nullptr) return st->exact;
  const size_t block = exact_used_ / kExactBlock;
  if (block == exact_blocks_.size()) {
    exact_blocks_.push_back(std::make_unique<ExactSum[]>(kExactBlock));
  }
  st->exact = &exact_blocks_[block][exact_used_++ % kExactBlock];
  *st->exact = ExactSum();
  st->sum_f.MoveTo(st->exact);
  // A resident state, like a group's key row: the byte limits count it.
  return buffer_->AddBytes(sizeof(ExactSum)) ? st->exact : nullptr;
}

bool AggAccumulator::Fold(AggFunc func, const Value& v, State* st) {
  ++st->count;
  switch (func) {
    case AggFunc::kSum:
    case AggFunc::kAvg: {
      if (v.type() == DataType::kInt64) {
        st->sum_i += v.AsInt();
        break;
      }
      const double d = v.AsDouble();
      if (st->exact == nullptr && st->sum_f.Add(d)) break;
      ExactSum* exact = Exact(st);
      if (exact == nullptr) return false;
      exact->Add(d);
      break;
    }
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
  return true;
}

bool AggAccumulator::Merge(AggFunc func, const Value& v, State* st) {
  switch (func) {
    case AggFunc::kCount:
      st->count += v.AsInt();
      return true;
    case AggFunc::kMin:
    case AggFunc::kMax:
      return Fold(func, v, st);
    case AggFunc::kSum:
    case AggFunc::kAvg: {
      std::string_view in(v.AsString());
      int64_t count = 0;
      __int128 sum_i = 0;
      std::memcpy(&count, in.data(), sizeof(count));
      std::memcpy(&sum_i, in.data() + sizeof(count), sizeof(sum_i));
      in.remove_prefix(sizeof(count) + sizeof(sum_i));
      st->count += count;
      st->sum_i += sum_i;
      if (in.empty()) return true;
      const char tag = in[0];
      in.remove_prefix(1);
      if (tag == kFixedState) {
        FixedSum partial;
        partial.added = true;
        std::memcpy(&partial.base, in.data(), sizeof(partial.base));
        std::memcpy(&partial.total, in.data() + sizeof(partial.base),
                    sizeof(partial.total));
        if (st->exact == nullptr && st->sum_f.Merge(partial)) return true;
        ExactSum* exact = Exact(st);
        if (exact == nullptr) return false;
        partial.MoveTo(exact);
        return true;
      }
      ExactSum partial;
      partial.ReadFrom(&in);
      ExactSum* exact = Exact(st);
      if (exact == nullptr) return false;
      exact->Merge(partial);
      return true;
    }
  }
  return true;
}

Status AggAccumulator::Result(size_t i, State* st, Value* out) const {
  const AggFunc func = specs_[i].func;
  if (func == AggFunc::kCount) {
    *out = Value::Int(st->count);
    return Status::OK();
  }
  if (func == AggFunc::kMin || func == AggFunc::kMax) {
    *out = st->extreme;
    return Status::OK();
  }
  if (phase_ == AggPhase::kPartial) {
    std::string state(sizeof(st->count) + sizeof(st->sum_i), '\0');
    std::memcpy(state.data(), &st->count, sizeof(st->count));
    std::memcpy(state.data() + sizeof(st->count), &st->sum_i,
                sizeof(st->sum_i));
    if (st->exact != nullptr) {
      state.push_back(kExactState);
      st->exact->AppendTo(&state);
    } else if (st->sum_f.added) {
      state.push_back(kFixedState);
      state.append(reinterpret_cast<const char*>(&st->sum_f.base),
                   sizeof(st->sum_f.base));
      state.append(reinterpret_cast<const char*>(&st->sum_f.total),
                   sizeof(st->sum_f.total));
    }
    *out = Value::Str(std::move(state));
    return Status::OK();
  }
  *out = Value();
  if (st->count == 0) return Status::OK();
  if (st->doubles()) {
    // The correctly rounded total of every value, doubles and int64s.
    double total = 0.0;
    if (st->exact == nullptr && st->sum_i == 0) {
      total = st->sum_f.Round();
    } else {
      ExactSum local;
      ExactSum* all = st->exact != nullptr ? st->exact : &local;
      st->sum_f.MoveTo(all);
      all->AddInt(st->sum_i);
      total = all->Round();
    }
    *out = Value::Double(func == AggFunc::kAvg
                             ? total / static_cast<double>(st->count)
                             : total);
  } else if (func == AggFunc::kAvg) {
    *out = Value::Double(static_cast<double>(st->sum_i) /
                         static_cast<double>(st->count));
  } else if (st->sum_i < std::numeric_limits<int64_t>::min() ||
             st->sum_i > std::numeric_limits<int64_t>::max()) {
    return Status::OutOfRange(specs_[i].name + " exceeds the int64 range");
  } else {
    *out = Value::Int(static_cast<int64_t>(st->sum_i));
  }
  return Status::OK();
}

Status AggAccumulator::Finalize(int64_t group, RowBatch* out) {
  State* st = &states_[static_cast<size_t>(group) * specs_.size()];
  results_.resize(specs_.size());
  for (size_t i = 0; i < specs_.size(); ++i) {
    ORDOPT_RETURN_NOT_OK(Result(i, &st[i], &results_[i]));
  }
  for (size_t k = 0; k < key_width_; ++k) {
    out->AppendColumnValue(
        k, std::move(keys_[static_cast<size_t>(group) * key_width_ + k]));
  }
  for (size_t i = 0; i < specs_.size(); ++i) {
    out->AppendColumnValue(key_width_ + i, std::move(results_[i]));
  }
  out->SetRowCount(out->size() + 1);
  return Status::OK();
}

}  // namespace ordopt
