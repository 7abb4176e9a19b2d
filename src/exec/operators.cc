#include "exec/operators.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "exec/sort_key.h"

#include "common/macros.h"
#include "common/str_util.h"
#include "exec/parallel/morsel.h"
#include "exec/spill.h"

namespace ordopt {

namespace {

// Positions of `cols` within `layout`. A miss is a planner bug: with a
// guard the query degrades to Status::Internal (the poisoned tree is
// discarded by BuildOperatorTree before it can run); without one the
// historical abort stands.
std::vector<int> PositionsOf(const std::vector<ColumnId>& cols,
                             const std::vector<ColumnId>& layout,
                             const ExecContext& ctx) {
  ExprEvaluator eval(layout);
  std::vector<int> out;
  for (const ColumnId& c : cols) {
    int pos = eval.PositionOf(c);
    if (pos < 0) {
      ctx.Poison(Status::Internal(
          StrFormat("column %s missing from operator layout",
                    DefaultColumnName(c).c_str())));
      pos = 0;  // placeholder; the poisoned tree never executes
    }
    out.push_back(pos);
  }
  return out;
}

// True when any column of row `row` of `batch` at `positions` is NULL.
bool AnyNull(const RowBatch& batch, int64_t row,
             const std::vector<int>& positions) {
  for (int p : positions) {
    if (batch.IsNull(static_cast<size_t>(p), row)) return true;
  }
  return false;
}

// Whether row `row` of `batch` at `positions` equals `key` under
// Value::Compare.
bool KeyEquals(const RowBatch& batch, int64_t row,
               const std::vector<int>& positions,
               const std::vector<Value>& key) {
  for (size_t i = 0; i < positions.size(); ++i) {
    if (batch.At(static_cast<size_t>(positions[i]), row).Compare(key[i]) !=
        0) {
      return false;
    }
  }
  return true;
}

// Pulls `child`'s next non-empty batch into `batch`; false at end of stream.
bool PullBatch(Operator* child, RowBatch* batch) {
  while (child->NextBatch(batch)) {
    if (!batch->empty()) return true;
  }
  return false;
}

// Resolves `spec` against `layout` into positions and directions; poisons
// the query (naming the operator, `what`) on a missing column.
bool ResolveSpec(const OrderSpec& spec, const std::vector<ColumnId>& layout,
                 const ExecContext& ctx, const char* what,
                 std::vector<int>* positions, std::vector<bool>* descending) {
  positions->clear();
  descending->clear();
  ExprEvaluator eval(layout);
  for (const OrderElement& e : spec) {
    const int p = eval.PositionOf(e.col);
    if (p < 0) {
      ctx.Poison(Status::Internal(
          StrFormat("%s column %s missing from layout", what,
                    DefaultColumnName(e.col).c_str())));
      return false;
    }
    positions->push_back(p);
    descending->push_back(e.dir == SortDirection::kDescending);
  }
  return true;
}

// Strict-weak row ordering under resolved sort positions and directions;
// counts one comparison per column compared.
bool RowLess(const Row& a, const Row& b, const std::vector<int>& positions,
             const std::vector<bool>& descending, int64_t* comparisons) {
  for (size_t i = 0; i < positions.size(); ++i) {
    ++*comparisons;
    const int c = a[static_cast<size_t>(positions[i])].Compare(
        b[static_cast<size_t>(positions[i])]);
    if (c != 0) return descending[i] ? c > 0 : c < 0;
  }
  return false;
}

// The values of row `row` of `batch` at `positions` (a grouping key).
Row KeyAt(const RowBatch& batch, int64_t row,
          const std::vector<int>& positions) {
  Row key;
  for (int p : positions) key.push_back(batch.At(static_cast<size_t>(p), row));
  return key;
}

// Layout of a base-table stream, optionally pruned to `required` (build-time
// column pruning). `src_ordinals`, when given, receives the table-column
// ordinal backing each emitted column.
std::vector<ColumnId> TableLayout(const Table& table, int table_id,
                                  const ColumnSet* required = nullptr,
                                  std::vector<int32_t>* src_ordinals = nullptr) {
  std::vector<ColumnId> layout;
  for (size_t i = 0; i < table.def().columns.size(); ++i) {
    ColumnId col(table_id, static_cast<int32_t>(i));
    if (required != nullptr && !required->Contains(col)) continue;
    layout.push_back(col);
    if (src_ordinals != nullptr) {
      src_ordinals->push_back(static_cast<int32_t>(i));
    }
  }
  return layout;
}

}  // namespace

// ---------------------------------------------------------------------------
// ScanOp
// ---------------------------------------------------------------------------

ScanOp::ScanOp(const Table& table, int table_id, int index_ordinal,
               bool reverse, std::vector<Predicate> range_predicates,
               ExecContext ctx, const ColumnSet* required_columns,
               bool morsel_driver, bool emit_provenance)
    : Operator(ctx),
      table_(table),
      index_ordinal_(index_ordinal),
      reverse_(reverse),
      range_predicates_(std::move(range_predicates)),
      pages_(ctx.metrics, kRowsPerPage),
      morsel_driver_(morsel_driver && ctx.morsels != nullptr),
      emit_provenance_(emit_provenance),
      identity_(index_ordinal == kHeap) {
  layout_ = TableLayout(table, table_id, required_columns, &src_ordinals_);
  if (emit_provenance_) layout_.push_back(ProvenanceColumnId());
  if (reverse_ && !range_predicates_.empty()) {
    ctx_.Poison(Status::Internal(
        "reverse index scans do not support range bounds"));
  }
}

void ScanOp::OpenImpl() {
  pos_ = 0;
  limit_ = 0;
  rids_ = nullptr;
  done_ = index_ordinal_ != kHeap && !OpenIndex();
  // Morsel mode starts with an empty range so the first NextBatch claims.
  if (identity_ && !morsel_driver_) limit_ = table_.row_count();
}

bool ScanOp::OpenIndex() {
  if (!ctx_.GuardOk()) return false;
  if (ctx_.InjectFault("storage.btree.read")) return false;
  const BTreeIndex* index =
      table_.index(static_cast<size_t>(index_ordinal_));
  if (index == nullptr) {
    ctx_.Poison(Status::Internal("index scan over unbuilt index on table '" +
                                 table_.name() + "'"));
    return false;
  }
  eq_prefix_.clear();
  cmp_position_ = -1;

  // Decompose range predicates along the index key: a chain of equalities
  // then at most one comparison (the planner guarantees this shape).
  const IndexDef& def =
      table_.def().indexes[static_cast<size_t>(index_ordinal_)];
  for (const Predicate& p : range_predicates_) {
    // Position of the predicate column within the index key.
    int key_pos = -1;
    for (size_t k = 0; k < def.column_ordinals.size(); ++k) {
      if (p.left_col.column == def.column_ordinals[k]) {
        key_pos = static_cast<int>(k);
        break;
      }
    }
    if (key_pos < 0) {
      ctx_.Poison(Status::Internal("range predicate off the index key"));
      return false;
    }
    if (p.kind == Predicate::Kind::kColEqConst) {
      if (key_pos != static_cast<int>(eq_prefix_.size())) {
        ctx_.Poison(Status::Internal(
            "index range predicates do not form an equality prefix"));
        return false;
      }
      eq_prefix_.push_back(p.constant);
    } else {
      cmp_position_ = key_pos;
      cmp_op_ = p.cmp;
      cmp_bound_ = p.constant;
    }
  }

  identity_ = def.clustered && !reverse_ && range_predicates_.empty();
  if (identity_) return true;
  if (reverse_) {
    cursor_ = index->SeekLast();
    return true;
  }
  // Seek to the first qualifying entry in index order. A comparison's
  // qualifying entries are contiguous after the equality prefix, but where
  // they start depends on the column's direction: descending turns < / <=
  // into the seek bound and > / >= into the stop condition, and NULLs
  // (never qualifying) sort first under an ascending column — so an
  // ascending upper-bound scan seeks past them — and last under a
  // descending one, where the stop condition ends the scan at them.
  IndexKey seek = eq_prefix_;
  bool after = false;
  if (cmp_position_ >= 0) {
    const bool desc = def.directions[static_cast<size_t>(cmp_position_)] ==
                      SortDirection::kDescending;
    const bool seek_bound =
        desc ? cmp_op_ == BinOp::kLt || cmp_op_ == BinOp::kLe
             : cmp_op_ == BinOp::kGt || cmp_op_ == BinOp::kGe;
    if (seek_bound) {
      seek.push_back(cmp_bound_);
      after = cmp_op_ == BinOp::kGt || cmp_op_ == BinOp::kLt;
    } else if (!desc) {
      seek.push_back(Value::Null());
      after = true;
    }
  }
  if (after) {
    cursor_ = index->SeekAfter(seek);
  } else if (!seek.empty()) {
    cursor_ = index->SeekAtLeast(seek);
  } else {
    cursor_ = index->SeekFirst();
  }
  return true;
}

bool ScanOp::EntryQualifies() const {
  const IndexKey& key = cursor_.key();
  for (size_t i = 0; i < eq_prefix_.size(); ++i) {
    if (key[i].Compare(eq_prefix_[i]) != 0) return false;
  }
  if (cmp_position_ >= 0) {
    const Value& v = key[static_cast<size_t>(cmp_position_)];
    if (v.is_null()) return false;
    int c = v.Compare(cmp_bound_);
    switch (cmp_op_) {
      case BinOp::kLt:
        return c < 0;
      case BinOp::kLe:
        return c <= 0;
      case BinOp::kGt:
        return c > 0;
      case BinOp::kGe:
        return c >= 0;
      default:
        return false;
    }
  }
  return true;
}

bool ScanOp::CursorNext(int64_t* rid) {
  // The seek skipped below-bound entries, so a mismatched equality prefix
  // or a violated upper bound means no later entry qualifies either.
  if (!cursor_.Valid() || !EntryQualifies()) return false;
  *rid = cursor_.rid();
  if (reverse_) {
    cursor_.Prev();
  } else {
    cursor_.Next();
  }
  return true;
}

bool ScanOp::ClaimMorsel() {
  if (ctx_.InjectFault("exec.parallel.morsel")) return false;
  if (!ctx_.GuardOk()) return false;
  if (!identity_ && rids_ == nullptr) {
    // The walk accounts nothing: pages, rows_scanned and the guard are
    // charged as each worker materializes its claimed rows.
    rids_ = &ctx_.morsels->EnsureRids([this](std::vector<int64_t>* rids) {
      int64_t rid = 0;
      while (CursorNext(&rid)) rids->push_back(rid);
    });
  }
  const int64_t total = identity_ ? table_.row_count()
                                  : static_cast<int64_t>(rids_->size());
  return ctx_.morsels->ClaimRange(total, &pos_, &limit_);
}

bool ScanOp::NextBatchImpl(RowBatch* out) {
  out->Reset(layout_.size(), BatchCapacity());
  if (done_) return false;
  if (morsel_driver_ && pos_ >= limit_ && !ClaimMorsel()) return false;
  // Gather the batch's rids, charge them to the guard at once, then fill
  // column at a time: sequential writes into each output column instead
  // of striding across the full row width per row. A serial non-identity
  // walk reads its cursor; every other scan reads positions [pos_, limit_)
  // of its domain.
  const int64_t first = pos_;
  scratch_rids_.clear();
  if (!identity_ && !morsel_driver_) {
    int64_t rid = 0;
    while (static_cast<int64_t>(scratch_rids_.size()) < out->capacity() &&
           CursorNext(&rid)) {
      scratch_rids_.push_back(rid);
    }
  } else {
    const int64_t end = std::min(limit_, first + out->capacity());
    for (int64_t p = first; p < end; ++p) {
      scratch_rids_.push_back(rids_ != nullptr
                                  ? (*rids_)[static_cast<size_t>(p)]
                                  : p);
    }
  }
  const int64_t n = static_cast<int64_t>(scratch_rids_.size());
  const int64_t admitted = ctx_.OnRowsScanned(n);
  // A tripping row is read, its page too, but not emitted.
  const int64_t read = admitted < n ? admitted + 1 : n;
  if (admitted < n) done_ = true;
  if (identity_) {
    pages_.AccessRange(first, first + read);
  } else {
    for (int64_t i = 0; i < read; ++i) {
      pages_.Access(scratch_rids_[static_cast<size_t>(i)]);
    }
  }
  pos_ += admitted;
  const size_t width = src_ordinals_.size();
  for (size_t c = 0; c < width; ++c) {
    const size_t ord = static_cast<size_t>(src_ordinals_[c]);
    for (int64_t i = 0; i < admitted; ++i) {
      out->AppendColumnValue(
          c, table_.row(scratch_rids_[static_cast<size_t>(i)])[ord]);
    }
  }
  if (emit_provenance_) {
    for (int64_t i = 0; i < admitted; ++i) {
      out->AppendColumnValue(width, Value::Int(first + i));
    }
  }
  out->SetRowCount(admitted);
  return admitted > 0;
}

// ---------------------------------------------------------------------------
// FilterOp
// ---------------------------------------------------------------------------

FilterOp::FilterOp(OperatorPtr child, std::vector<Predicate> predicates,
                   ExecContext ctx)
    : Operator(ctx), child_(std::move(child)),
      predicates_(std::move(predicates)) {
  layout_ = child_->layout();
}

void FilterOp::OpenImpl() {
  child_->Open();
  eval_ = std::make_unique<ExprEvaluator>(layout_, ctx_.guard);
}

bool FilterOp::NextBatchImpl(RowBatch* out) {
  while (ctx_.GuardOk() && child_->NextBatch(&input_)) {
    const int64_t n = input_.size();
    sel_.resize(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      sel_[static_cast<size_t>(i)] = static_cast<int32_t>(i);
    }
    for (const Predicate& p : predicates_) {
      if (sel_.empty()) break;
      eval_->FilterBatch(p, input_, &sel_);
    }
    if (sel_.empty()) continue;
    if (static_cast<int64_t>(sel_.size()) != n) {
      // Compact survivors in place (moves, no Value copies) — the child
      // batch is our scratch and is reset on the next pull anyway.
      input_.Compact(sel_);
    }
    swap(*out, input_);
    return true;
  }
  return false;
}

void FilterOp::Close() { child_->Close(); }

// ---------------------------------------------------------------------------
// SortOp
// ---------------------------------------------------------------------------

SortOp::SortOp(OperatorPtr child, OrderSpec spec, ExecContext ctx)
    : Operator(ctx), child_(std::move(child)), spec_(std::move(spec)),
      buffer_(ctx.guard, &stats_) {
  layout_ = child_->layout();
}

bool SortOp::HeadLess(const Row& a, const Row& b) const {
  return RowLess(a, b, positions_, descending_, &ctx_.metrics->comparisons);
}

void SortOp::SortBuffer() {
  // The index tie-break reproduces std::stable_sort's stability.
  const size_t n = rows_.size();
  if (n < 2) return;
  std::string arena;
  std::vector<size_t> offsets(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    AppendNormalizedKey(rows_[i], positions_, descending_, &arena);
    offsets[i + 1] = arena.size();
  }
  std::vector<uint32_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = static_cast<uint32_t>(i);
  const char* data = arena.data();
  int64_t* comparisons = &ctx_.metrics->comparisons;
  std::sort(idx.begin(), idx.end(), [&](uint32_t a, uint32_t b) {
    ++*comparisons;
    const size_t alen = offsets[a + 1] - offsets[a];
    const size_t blen = offsets[b + 1] - offsets[b];
    const int c = std::memcmp(data + offsets[a], data + offsets[b],
                              alen < blen ? alen : blen);
    if (c != 0) return c < 0;
    // Column encodings are self-delimiting, so equal-prefix keys of
    // different length cannot happen; the check is belt-and-braces.
    if (alen != blen) return alen < blen;
    return a < b;
  });
  std::vector<Row> sorted;
  sorted.reserve(n);
  for (uint32_t i : idx) sorted.push_back(std::move(rows_[i]));
  rows_ = std::move(sorted);
}

bool SortOp::SpillCurrentRun() {
  SortBuffer();
  Result<std::unique_ptr<SpillRun>> run = ctx_.spill->WriteRun(rows_);
  if (!run.ok()) {
    ctx_.Poison(run.status());
    return false;
  }
  runs_.push_back(std::move(run).value_unsafe());
  rows_.clear();
  buffer_.Release();
  return true;
}

void SortOp::Abandon() {
  rows_.clear();
  buffer_.Release();
  heads_.clear();
  head_valid_.clear();
  merging_ = false;
  ReleaseRuns();
}

void SortOp::ReleaseRuns() {
  for (std::unique_ptr<SpillRun>& run : runs_) {
    // runs_ is only ever non-empty under an engine-provided SpillManager.
    Status st = ctx_.spill->ReleaseRun(std::move(run));
    if (!st.ok()) ctx_.Poison(std::move(st));
  }
  runs_.clear();
}

void SortOp::OpenImpl() {
  child_->Open();
  buffer_.Release();
  rows_.clear();
  ReleaseRuns();
  heads_.clear();
  head_valid_.clear();
  pos_ = 0;
  merging_ = false;
  if (!ResolveSpec(spec_, layout_, ctx_, "sort", &positions_, &descending_)) {
    return;
  }
  const int64_t budget =
      ctx_.spill != nullptr ? ctx_.spill->config().sort_memory_rows : 0;
  int64_t total_rows = 0;
  Row row;
  RowBatch batch;
  while (child_->NextBatch(&batch)) {
    const int64_t n = batch.size();
    for (int64_t i = 0; i < n; ++i) {
      bool absorbed = false;
      if (absorber_ != nullptr && !absorber_->Absorb(batch, i, &absorbed)) {
        return;  // buffer limit tripped: wind down
      }
      if (!absorbed) {
        batch.TakeRowInto(i, &row);
        buffer_.Add(row);
        rows_.push_back(std::move(row));
        ++total_rows;
      }
      // Resident groups share the budget: each holds one row's worth.
      const int64_t room =
          budget - (absorber_ != nullptr ? absorber_->resident_groups() : 0);
      if (budget > 0 && static_cast<int64_t>(rows_.size()) >= room) {
        if (!SpillCurrentRun()) {
          Abandon();
          return;
        }
      }
    }
  }
  if (!ctx_.GuardOk()) {
    Abandon();
    return;
  }
  ++ctx_.metrics->sorts_performed;
  ctx_.metrics->rows_sorted += total_rows;
  SortBuffer();  // the tail — or the whole input when nothing spilled
  if (runs_.empty()) return;
  if (ctx_.InjectFault("exec.sort.spill.merge")) {
    Abandon();
    return;
  }
  heads_.resize(runs_.size());
  head_valid_.assign(runs_.size(), false);
  for (size_t i = 0; i < runs_.size(); ++i) {
    bool eof = false;
    Status st = ctx_.spill->ReadNext(runs_[i].get(), &heads_[i], &eof);
    if (!st.ok()) {
      ctx_.Poison(std::move(st));
      Abandon();
      return;
    }
    head_valid_[i] = !eof;
  }
  merging_ = true;
}

bool SortOp::NextBatchImpl(RowBatch* out) {
  out->Reset(layout_.size(), BatchCapacity());
  if (merging_) {
    MergeInto(out);
    return !out->empty();
  }
  while (!out->full() && pos_ < rows_.size()) {
    out->AppendRow(std::move(rows_[pos_]));
    ++pos_;
  }
  return !out->empty();
}

void SortOp::MergeInto(RowBatch* out) {
  while (!out->full() && ctx_.GuardOk()) {
    // Smallest run head wins; among equal heads the lowest run index (the
    // earliest rows in input order) wins, and the in-memory tail — the
    // newest rows — only wins strictly, which together preserve stability.
    int best = -1;
    for (size_t i = 0; i < heads_.size(); ++i) {
      if (!head_valid_[i]) continue;
      if (best < 0 ||
          HeadLess(heads_[i], heads_[static_cast<size_t>(best)])) {
        best = static_cast<int>(i);
      }
    }
    if (pos_ < rows_.size() &&
        (best < 0 ||
         HeadLess(rows_[pos_], heads_[static_cast<size_t>(best)]))) {
      out->AppendRow(std::move(rows_[pos_++]));
      continue;
    }
    if (best < 0) return;  // runs and tail both drained
    const size_t b = static_cast<size_t>(best);
    out->AppendRow(std::move(heads_[b]));
    bool eof = false;
    Status st = ctx_.spill->ReadNext(runs_[b].get(), &heads_[b], &eof);
    if (!st.ok()) {
      ctx_.Poison(std::move(st));
      Abandon();
      return;
    }
    head_valid_[b] = !eof;
  }
}

void SortOp::Close() {
  child_->Close();
  rows_.clear();
  heads_.clear();
  head_valid_.clear();
  merging_ = false;
  ReleaseRuns();
  buffer_.Release();
}

// ---------------------------------------------------------------------------
// JoinOp
// ---------------------------------------------------------------------------

JoinOp::JoinOp(OperatorPtr outer, OperatorPtr inner,
               const std::vector<std::pair<ColumnId, ColumnId>>& pairs,
               JoinKind kind, ExecContext ctx)
    : Operator(ctx), outer_(std::move(outer)), inner_(std::move(inner)),
      kind_(kind), buffer_(ctx.guard, &stats_) {
  layout_ = outer_->layout();
  std::vector<ColumnId> ocols, icols;
  for (const auto& [o, i] : pairs) {
    ocols.push_back(o);
    icols.push_back(i);
  }
  outer_positions_ = PositionsOf(ocols, outer_->layout(), ctx_);
  if (inner_ == nullptr) return;
  for (const ColumnId& c : inner_->layout()) {
    inner_ordinals_.push_back(static_cast<int32_t>(inner_ordinals_.size()));
    layout_.push_back(c);
  }
  inner_positions_ = PositionsOf(icols, inner_->layout(), ctx_);
}

void JoinOp::Close() {
  outer_->Close();
  if (inner_ != nullptr) inner_->Close();
  buffer_.Release();
  match_outer_.clear();
  match_inner_.clear();
}

void JoinOp::ResetOuter() {
  outer_batch_.Reset(outer_->layout().size(), 1);
  outer_pos_ = -1;
}

bool JoinOp::AdvanceOuter(RowBatch* out) {
  if (++outer_pos_ < outer_batch_.size()) return true;
  // The gathered rows reference the current outer batch: emit them before
  // it is replaced.
  EmitGathered(out);
  outer_pos_ = 0;
  return PullBatch(outer_.get(), &outer_batch_);
}

bool JoinOp::OuterKeyHasNull() const {
  return AnyNull(outer_batch_, outer_pos_, outer_positions_);
}

void JoinOp::EmitGathered(RowBatch* out) {
  const size_t n = match_inner_.size();
  if (n == 0) return;
  const size_t outer_width = outer_->layout().size();
  for (size_t c = 0; c < outer_width; ++c) {
    for (size_t i = 0; i < n; ++i) {
      const int64_t pos = match_outer_[i];
      const bool last_use =
          i + 1 < n ? match_outer_[i + 1] != pos : pos < outer_pos_;
      if (last_use) {
        out->AppendColumnValue(c, std::move(*outer_batch_.MutableAt(c, pos)));
      } else {
        out->AppendColumnValue(c, outer_batch_.At(c, pos));
      }
    }
  }
  for (size_t c = outer_width; c < layout_.size(); ++c) {
    for (size_t i = 0; i < n; ++i) {
      const Row* inner = match_inner_[i];
      out->AppendColumnValue(
          c, inner != nullptr ? (*inner)[static_cast<size_t>(
                                    inner_ordinals_[c - outer_width])]
                              : Value::Null());
    }
  }
  out->SetRowCount(out->size() + static_cast<int64_t>(n));
  match_outer_.clear();
  match_inner_.clear();
}

// ---------------------------------------------------------------------------
// MergeJoinOp
// ---------------------------------------------------------------------------

MergeJoinOp::MergeJoinOp(OperatorPtr outer, OperatorPtr inner,
                         std::vector<std::pair<ColumnId, ColumnId>> pairs,
                         JoinKind kind, ExecContext ctx)
    : JoinOp(std::move(outer), std::move(inner), pairs, kind, ctx) {}

void MergeJoinOp::OpenImpl() {
  outer_->Open();
  inner_->Open();
  ResetOuter();
  outer_valid_ = AdvanceOuter(nullptr);
  inner_batch_.Reset(inner_->layout().size(), 1);
  inner_pos_ = 0;
  AdvanceInner();
  group_valid_ = false;
  group_pos_ = 0;
}

int MergeJoinOp::CompareKeys() const {
  for (size_t i = 0; i < outer_positions_.size(); ++i) {
    ++ctx_.metrics->comparisons;
    const int c =
        outer_batch_.At(static_cast<size_t>(outer_positions_[i]), outer_pos_)
            .Compare(inner_batch_.At(static_cast<size_t>(inner_positions_[i]),
                                     inner_pos_));
    if (c != 0) return c;
  }
  return 0;
}

bool MergeJoinOp::InnerKeyHasNull() const {
  return AnyNull(inner_batch_, inner_pos_, inner_positions_);
}

void MergeJoinOp::AdvanceInner() {
  if (++inner_pos_ < inner_batch_.size()) return;
  inner_pos_ = 0;
  inner_valid_ = PullBatch(inner_.get(), &inner_batch_);
}

void MergeJoinOp::LoadInnerGroup() {
  group_.clear();
  buffer_.Release();
  group_key_.clear();
  for (int p : inner_positions_) {
    group_key_.push_back(inner_batch_.At(static_cast<size_t>(p), inner_pos_));
  }
  while (inner_valid_ &&
         KeyEquals(inner_batch_, inner_pos_, inner_positions_, group_key_)) {
    // Each inner row is read once, so its values move into the group.
    Row row = inner_batch_.TakeRow(inner_pos_);
    buffer_.Add(row);
    group_.push_back(std::move(row));
    AdvanceInner();
  }
  group_valid_ = true;
  group_pos_ = 0;
}

bool MergeJoinOp::NextBatchImpl(RowBatch* out) {
  out->Reset(layout_.size(), BatchCapacity());
  const int64_t cap = out->capacity();
  while (outer_valid_ && Pending(*out) < cap && ctx_.GuardOk()) {
    if (group_valid_ &&
        KeyEquals(outer_batch_, outer_pos_, outer_positions_, group_key_)) {
      if (group_pos_ < group_.size()) {
        Gather(&group_[group_pos_++]);
        continue;
      }
      group_pos_ = 0;
      outer_valid_ = AdvanceOuter(out);
      continue;
    }
    // Outer rows with NULL join keys match nothing.
    if (!OuterKeyHasNull()) {
      // Advance inner past smaller (or NULL) keys.
      while (inner_valid_ && (InnerKeyHasNull() || CompareKeys() > 0)) {
        AdvanceInner();
      }
      // Inner exhausted: no later outer row can match either (a
      // still-loaded group's key is below the current outer's), so an
      // inner join ends here and a left join pads the rest.
      if (!inner_valid_ && kind_ == JoinKind::kInner) {
        outer_valid_ = false;
        break;
      }
      if (inner_valid_ && CompareKeys() == 0) {
        EmitGathered(out);  // the gathered rows may point into group_
        LoadInnerGroup();
        continue;
      }
    }
    // Inner key > outer key, or no inner left: the outer row is unmatched.
    if (kind_ == JoinKind::kLeft) Gather(nullptr);
    outer_valid_ = AdvanceOuter(out);
  }
  EmitGathered(out);
  return !out->empty();
}

void MergeJoinOp::Close() {
  JoinOp::Close();
  group_.clear();
}

// ---------------------------------------------------------------------------
// IndexNLJoinOp
// ---------------------------------------------------------------------------

IndexNLJoinOp::IndexNLJoinOp(OperatorPtr outer, const Table& table,
                             int table_id, int index_ordinal,
                             std::vector<std::pair<ColumnId, ColumnId>> pairs,
                             ExecContext ctx,
                             const ColumnSet* required_columns)
    : JoinOp(std::move(outer), nullptr, pairs, JoinKind::kInner, ctx),
      table_(table),
      index_ordinal_(index_ordinal),
      pages_(ctx.metrics, kRowsPerPage) {
  for (const ColumnId& c :
       TableLayout(table, table_id, required_columns, &inner_ordinals_)) {
    layout_.push_back(c);
  }
}

void IndexNLJoinOp::OpenImpl() {
  outer_->Open();
  probing_ = false;
  ResetOuter();
}

bool IndexNLJoinOp::NextBatchImpl(RowBatch* out) {
  const BTreeIndex* index =
      table_.index(static_cast<size_t>(index_ordinal_));
  if (index == nullptr) {
    ctx_.Poison(Status::Internal("index join probe into unbuilt index on "
                                 "table '" + table_.name() + "'"));
    return false;
  }
  out->Reset(layout_.size(), BatchCapacity());
  const int64_t cap = out->capacity();
  while (Pending(*out) < cap && ctx_.GuardOk()) {
    if (!probing_) {
      // Emit what this outer batch matched before pulling the next one.
      if (outer_pos_ + 1 >= outer_batch_.size() && Pending(*out) > 0) break;
      if (!AdvanceOuter(out)) break;
      if (ctx_.InjectFault("storage.btree.read")) break;
      if (OuterKeyHasNull()) continue;
      probe_key_.clear();
      for (int p : outer_positions_) {
        probe_key_.push_back(
            outer_batch_.At(static_cast<size_t>(p), outer_pos_));
      }
      ++ctx_.metrics->index_probes;
      cursor_ = index->SeekAtLeast(probe_key_);
      probing_ = cursor_.Valid() &&
                 index->CompareKeys(cursor_.key(), probe_key_) == 0;
      continue;
    }
    // The cursor sits on a match; advancing it tells whether it is the
    // outer row's last.
    const int64_t rid = cursor_.rid();
    cursor_.Next();
    probing_ = cursor_.Valid() &&
               index->CompareKeys(cursor_.key(), probe_key_) == 0;
    probe_rids_.push_back(rid);
    Gather(&table_.row(rid));
  }
  // Every gathered row is a probe match (the outer batch never changes
  // with rows pending): charge them at once and keep those admitted.
  const int64_t n = static_cast<int64_t>(probe_rids_.size());
  const int64_t admitted = ctx_.OnRowsScanned(n);
  const int64_t read = admitted < n ? admitted + 1 : n;
  for (int64_t i = 0; i < read; ++i) {
    pages_.Access(probe_rids_[static_cast<size_t>(i)]);
  }
  probe_rids_.clear();
  TruncateGathered(admitted);
  EmitGathered(out);
  return !out->empty();
}

// ---------------------------------------------------------------------------
// NaiveNLJoinOp
// ---------------------------------------------------------------------------

NaiveNLJoinOp::NaiveNLJoinOp(OperatorPtr outer, OperatorPtr inner,
                             std::vector<Predicate> on_predicates,
                             JoinKind kind, ExecContext ctx)
    : JoinOp(std::move(outer), std::move(inner), {}, kind, ctx),
      on_predicates_(std::move(on_predicates)) {}

void NaiveNLJoinOp::OpenImpl() {
  outer_->Open();
  inner_->Open();
  eval_ = std::make_unique<ExprEvaluator>(layout_, ctx_.guard);
  inner_rows_.clear();
  buffer_.Release();
  outer_valid_ = false;
  matched_current_ = false;
  inner_pos_ = 0;
  survivors_.clear();
  survivor_pos_ = 0;
  RowBatch batch;
  Row row;
  while (inner_->NextBatch(&batch)) {
    for (int64_t i = 0; i < batch.size(); ++i) {
      batch.TakeRowInto(i, &row);
      buffer_.Add(row);
      inner_rows_.push_back(std::move(row));
    }
  }
  ResetOuter();
  outer_valid_ = AdvanceOuter(nullptr);
}

void NaiveNLJoinOp::EvaluateCandidates(RowBatch* out) {
  const size_t end = std::min(
      inner_rows_.size(), inner_pos_ + static_cast<size_t>(BatchCapacity()));
  survivors_.clear();
  survivor_pos_ = 0;
  if (on_predicates_.empty()) {
    for (size_t i = inner_pos_; i < end; ++i) survivors_.push_back(i);
  } else {
    // The candidates go through the emit step into a scratch batch, so
    // the predicates run batch-at-a-time; the gathered output rows must be
    // emitted first.
    EmitGathered(out);
    for (size_t i = inner_pos_; i < end; ++i) Gather(&inner_rows_[i]);
    candidates_.Reset(layout_.size(), static_cast<int64_t>(end - inner_pos_));
    EmitGathered(&candidates_);
    sel_.resize(end - inner_pos_);
    std::iota(sel_.begin(), sel_.end(), 0);
    for (const Predicate& p : on_predicates_) {
      if (sel_.empty()) break;
      eval_->FilterBatch(p, candidates_, &sel_);
    }
    for (int32_t i : sel_) survivors_.push_back(inner_pos_ + i);
  }
  if (!survivors_.empty()) matched_current_ = true;
  inner_pos_ = end;
}

bool NaiveNLJoinOp::NextBatchImpl(RowBatch* out) {
  out->Reset(layout_.size(), BatchCapacity());
  const int64_t cap = out->capacity();
  while (outer_valid_ && Pending(*out) < cap && ctx_.GuardOk()) {
    if (survivor_pos_ < survivors_.size()) {
      Gather(&inner_rows_[survivors_[survivor_pos_++]]);
      continue;
    }
    if (inner_pos_ < inner_rows_.size()) {
      EvaluateCandidates(out);
      continue;
    }
    if (kind_ == JoinKind::kLeft && !matched_current_) Gather(nullptr);
    outer_valid_ = AdvanceOuter(out);
    matched_current_ = false;
    inner_pos_ = 0;
  }
  EmitGathered(out);
  return !out->empty();
}

void NaiveNLJoinOp::Close() {
  JoinOp::Close();
  inner_rows_.clear();
}

// ---------------------------------------------------------------------------
// HashJoinOp
// ---------------------------------------------------------------------------

HashJoinOp::HashJoinOp(OperatorPtr outer, OperatorPtr inner,
                       std::vector<std::pair<ColumnId, ColumnId>> pairs,
                       JoinKind kind, ExecContext ctx)
    : JoinOp(std::move(outer), std::move(inner), pairs, kind, ctx) {}

void HashJoinOp::OpenImpl() {
  outer_->Open();
  inner_->Open();
  table_.Clear();
  rows_.clear();
  buffer_.Release();
  // Build: each non-NULL-keyed inner row joins its key's group; the rows
  // are then laid out group by group, each group in inner order.
  std::vector<Row> built;
  std::vector<int64_t> group_of;
  RowBatch batch;
  bool inserted = false;
  while (inner_->NextBatch(&batch)) {
    for (int64_t i = 0; i < batch.size(); ++i) {
      if (AnyNull(batch, i, inner_positions_)) continue;
      const int64_t group =
          table_.FindOrInsert(batch, i, inner_positions_, &inserted);
      Row row = batch.TakeRow(i);
      buffer_.Add(row);
      built.push_back(std::move(row));
      group_of.push_back(group);
    }
  }
  starts_.assign(static_cast<size_t>(table_.size()) + 1, 0);
  for (int64_t g : group_of) ++starts_[static_cast<size_t>(g) + 1];
  std::partial_sum(starts_.begin(), starts_.end(), starts_.begin());
  rows_.resize(built.size());
  std::vector<size_t> next(starts_.begin(), starts_.end() - 1);
  for (size_t i = 0; i < built.size(); ++i) {
    rows_[next[static_cast<size_t>(group_of[i])]++] = std::move(built[i]);
  }
  ResetOuter();
  match_pos_ = match_end_ = 0;
}

bool HashJoinOp::NextBatchImpl(RowBatch* out) {
  out->Reset(layout_.size(), BatchCapacity());
  const int64_t cap = out->capacity();
  while (Pending(*out) < cap && ctx_.GuardOk()) {
    if (match_pos_ < match_end_) {
      Gather(&rows_[match_pos_++]);
      continue;
    }
    if (!AdvanceOuter(out)) break;
    if (!OuterKeyHasNull()) {
      bool inserted = false;
      const int64_t group = table_.FindOrInsert(
          outer_batch_, outer_pos_, outer_positions_, &inserted,
          /*may_insert=*/false);
      if (group >= 0) {
        match_pos_ = starts_[static_cast<size_t>(group)];
        match_end_ = starts_[static_cast<size_t>(group) + 1];
        if (match_pos_ < match_end_) continue;
      }
    }
    if (kind_ == JoinKind::kLeft) Gather(nullptr);
  }
  EmitGathered(out);
  return !out->empty();
}

void HashJoinOp::Close() {
  JoinOp::Close();
  table_.Clear();
  rows_.clear();
  starts_.clear();
}

// ---------------------------------------------------------------------------
// GroupByOp / StreamGroupByOp / HashGroupByOp
// ---------------------------------------------------------------------------

GroupByOp::GroupByOp(OperatorPtr child,
                     const std::vector<ColumnId>& group_columns,
                     std::vector<AggregateSpec> aggregates, ExecContext ctx,
                     AggPhase phase)
    : Operator(ctx),
      child_(std::move(child)),
      buffer_(ctx.guard, &stats_),
      acc_(group_columns.size() + (phase == AggPhase::kPartial ? 1 : 0),
           std::move(aggregates), child_->layout(), ctx.guard, &buffer_,
           phase) {
  layout_ = group_columns;
  if (phase == AggPhase::kPartial) layout_.push_back(ProvenanceColumnId());
  for (const AggregateSpec& a : acc_.specs()) layout_.push_back(a.output);
  group_positions_ = PositionsOf(group_columns, child_->layout(), ctx_);
  key_positions_ = group_positions_;
  if (phase == AggPhase::kPartial) {
    key_positions_.push_back(
        PositionsOf({ProvenanceColumnId()}, child_->layout(), ctx_)[0]);
  }
}

bool GroupByOp::Emit(AggAccumulator* acc, int64_t group, RowBatch* out) {
  Status st = acc->Finalize(group, out);
  if (st.ok()) return true;
  ctx_.Poison(std::move(st));
  return false;
}

void GroupByOp::Close() {
  child_->Close();
  acc_.Clear();
  buffer_.Release();
}

void StreamGroupByOp::AggregateInSort(SortOp* sort) {
  resident_ = std::make_unique<Resident>(ctx_.guard, &stats_,
                                         group_positions_.size(), acc_.specs(),
                                         child_->layout());
  Resident& r = *resident_;
  std::vector<ColumnId> spec_columns;
  for (const OrderElement& e : sort->spec()) {
    spec_columns.push_back(e.col);
    r.spec_descending.push_back(e.dir == SortDirection::kDescending);
  }
  r.spec_positions = PositionsOf(spec_columns, child_->layout(), ctx_);
  // Resident groups take at most half the sort's budget; without one, every
  // group is admitted.
  const int64_t budget =
      ctx_.spill != nullptr ? ctx_.spill->config().sort_memory_rows : 0;
  r.max_groups = budget > 0 ? budget / 2 : INT64_MAX;
  sort->set_absorber(this);
}

bool StreamGroupByOp::Absorb(const RowBatch& batch, int64_t row,
                             bool* absorbed) {
  Resident& r = *resident_;
  if (row == 0) r.acc.EvaluateArgs(batch);
  bool inserted = false;
  const int64_t group =
      r.table.FindOrInsert(batch, row, group_positions_, &inserted,
                           /*may_insert=*/r.table.size() < r.max_groups);
  *absorbed = group >= 0;
  if (!*absorbed) return true;
  if (inserted) {
    Row key = KeyAt(batch, row, group_positions_);
    r.buffer.Add(key);
    r.acc.AddGroup(std::move(key));
    AppendNormalizedKey(batch, row, r.spec_positions, r.spec_descending,
                        &r.spec_keys);
    r.spec_offsets.push_back(r.spec_keys.size());
  }
  return r.acc.Update(group, row);
}

void StreamGroupByOp::Resident::Clear() {
  buffer.Release();
  table.Clear();
  acc.Clear();
  spec_keys.clear();
  spec_offsets.assign(1, 0);
  order.clear();
  next = due = 0;
}

void StreamGroupByOp::OpenImpl() {
  if (resident_ != nullptr) resident_->Clear();
  child_->Open();  // an absorbing sort fills the resident groups here
  input_.Reset(0, 1);
  pos_ = 0;
  has_group_ = false;
  done_ = false;
  // A global aggregate's one group is open from the start, so it emits a
  // row even for empty input.
  if (group_positions_.empty()) StartGroup();
  if (resident_ == nullptr || !ctx_.GuardOk()) return;
  Resident& r = *resident_;
  r.order.resize(static_cast<size_t>(r.table.size()));
  std::iota(r.order.begin(), r.order.end(), int64_t{0});
  std::stable_sort(r.order.begin(), r.order.end(),
                   [&](int64_t a, int64_t b) {
                     ++ctx_.metrics->comparisons;
                     return r.spec_key(a) < r.spec_key(b);
                   });
}

void StreamGroupByOp::Close() {
  GroupByOp::Close();
  if (resident_ != nullptr) resident_->Clear();
}

void StreamGroupByOp::StartGroup() {
  acc_.Clear();
  acc_.AddGroup(KeyAt(input_, pos_, group_positions_));
  buffer_.Release();  // previous group's DISTINCT values are gone
  has_group_ = true;
  if (resident_ == nullptr) return;
  // The resident groups up to this group's spec bytes go first.
  Resident& r = *resident_;
  r.open_key.clear();
  AppendNormalizedKey(input_, pos_, r.spec_positions, r.spec_descending,
                      &r.open_key);
  while (r.due < r.order.size()) {
    ++ctx_.metrics->comparisons;
    if (r.spec_key(r.order[r.due]) > r.open_key) break;
    ++r.due;
  }
}

bool StreamGroupByOp::EmitResident(RowBatch* out) {
  if (resident_ == nullptr) return false;
  Resident& r = *resident_;
  if (r.next == (done_ ? r.order.size() : r.due)) return false;
  return Emit(&r.acc, r.order[r.next++], out);
}

bool StreamGroupByOp::SameGroup() {
  for (size_t i = 0; i < group_positions_.size(); ++i) {
    ++ctx_.metrics->comparisons;
    if (input_.At(static_cast<size_t>(group_positions_[i]), pos_)
            .Compare(acc_.key(0, i)) != 0) {
      return false;
    }
  }
  return true;
}

void StreamGroupByOp::EmitGroup(RowBatch* out) {
  if (acc_.FoldDistinct()) Emit(&acc_, 0, out);
  ++ctx_.metrics->comparisons;  // group-boundary detection work
  has_group_ = false;
}

bool StreamGroupByOp::NextBatchImpl(RowBatch* out) {
  out->Reset(layout_.size(), BatchCapacity());
  while (!out->full() && ctx_.GuardOk()) {
    if (EmitResident(out)) continue;
    if (done_) break;
    if (pos_ == input_.size()) {
      if (!child_->NextBatch(&input_)) {
        if (has_group_) EmitGroup(out);
        done_ = true;
        continue;
      }
      pos_ = 0;
      acc_.EvaluateArgs(input_);
      continue;
    }
    if (!has_group_) {
      StartGroup();
    } else if (!SameGroup()) {
      EmitGroup(out);
      continue;
    }
    if (!acc_.Update(0, pos_)) break;  // buffer limit tripped: wind down
    ++pos_;
  }
  return !out->empty();
}

void HashGroupByOp::OpenImpl() {
  child_->Open();
  table_.Clear();
  acc_.Clear();
  order_.clear();
  pos_ = 0;
  buffer_.Release();
  bool inserted = false;
  // A global aggregate's one group exists even for empty input — in the
  // final phase, not in each worker's partial.
  if (group_positions_.empty() && acc_.phase() != AggPhase::kPartial) {
    table_.FindOrInsert(std::string_view(), &inserted);
    acc_.AddGroup(Row());
    buffer_.Add(Row());
  }
  while (child_->NextBatch(&input_)) {
    acc_.EvaluateArgs(input_);
    for (int64_t row = 0; row < input_.size(); ++row) {
      const int64_t group =
          table_.FindOrInsert(input_, row, group_positions_, &inserted);
      if (inserted) {
        Row key = KeyAt(input_, row, key_positions_);
        buffer_.Add(key);
        acc_.AddGroup(std::move(key));
      }
      if (!acc_.Update(group, row)) return;
    }
  }
  if (!ctx_.GuardOk() || !acc_.FoldDistinct()) return;
  if (acc_.phase() == AggPhase::kPartial) {
    order_.resize(static_cast<size_t>(table_.size()));
    std::iota(order_.begin(), order_.end(), int64_t{0});
  } else {
    order_ = table_.SortedGroups();
  }
}

bool HashGroupByOp::NextBatchImpl(RowBatch* out) {
  out->Reset(layout_.size(), BatchCapacity());
  while (!out->full() && pos_ < order_.size()) {
    if (!Emit(&acc_, order_[pos_++], out)) break;
  }
  return !out->empty();
}

void HashGroupByOp::Close() {
  GroupByOp::Close();
  table_.Clear();
  order_.clear();
}

// ---------------------------------------------------------------------------
// StreamDistinctOp / HashDistinctOp
// ---------------------------------------------------------------------------

StreamDistinctOp::StreamDistinctOp(OperatorPtr child,
                                   ColumnSet distinct_columns, ExecContext ctx)
    : Operator(ctx), child_(std::move(child)) {
  layout_ = child_->layout();
  std::vector<ColumnId> cols(distinct_columns.begin(), distinct_columns.end());
  positions_ = PositionsOf(cols, layout_, ctx_);
  columns_.resize(layout_.size());
  std::iota(columns_.begin(), columns_.end(), size_t{0});
}

void StreamDistinctOp::OpenImpl() {
  child_->Open();
  has_last_ = false;
  input_.Reset(layout_.size(), 1);
  pos_ = 0;
  sel_.clear();
}

void StreamDistinctOp::MovePassed(RowBatch* out) {
  for (size_t i = 0; i < sel_.size();) {
    size_t j = i + 1;
    while (j < sel_.size() && sel_[j] == sel_[j - 1] + 1) ++j;
    out->MoveRangeFrom(&input_, columns_, sel_[i], sel_[j - 1] + 1);
    i = j;
  }
  sel_.clear();
}

bool StreamDistinctOp::NextBatchImpl(RowBatch* out) {
  out->Reset(layout_.size(), BatchCapacity());
  int64_t passed = 0;
  while (passed < out->capacity() && ctx_.GuardOk()) {
    if (pos_ == input_.size()) {
      MovePassed(out);
      pos_ = 0;
      if (!child_->NextBatch(&input_)) {
        input_.Reset(layout_.size(), 1);
        break;
      }
      continue;
    }
    const int64_t row = pos_++;
    if (has_last_ && KeyEquals(input_, row, positions_, last_key_)) continue;
    last_key_ = KeyAt(input_, row, positions_);
    has_last_ = true;
    sel_.push_back(static_cast<int32_t>(row));
    ++passed;
  }
  MovePassed(out);
  return !out->empty();
}

void StreamDistinctOp::Close() { child_->Close(); }

HashDistinctOp::HashDistinctOp(OperatorPtr child, ColumnSet distinct_columns,
                               ExecContext ctx)
    : Operator(ctx), child_(std::move(child)), buffer_(ctx.guard, &stats_) {
  layout_ = child_->layout();
  std::vector<ColumnId> cols(distinct_columns.begin(),
                             distinct_columns.end());
  positions_ = PositionsOf(cols, layout_, ctx_);
}

void HashDistinctOp::OpenImpl() {
  child_->Open();
  seen_.Clear();
  buffer_.Release();
}

bool HashDistinctOp::NextBatchImpl(RowBatch* out) {
  while (ctx_.GuardOk() && child_->NextBatch(out)) {
    sel_.clear();
    for (int64_t row = 0; row < out->size(); ++row) {
      bool inserted = false;
      seen_.FindOrInsert(*out, row, positions_, &inserted);
      if (!inserted) continue;
      // The seen-set retains every distinct key: charge it as buffered.
      buffer_.Add(KeyAt(*out, row, positions_));
      sel_.push_back(static_cast<int32_t>(row));
    }
    if (static_cast<int64_t>(sel_.size()) != out->size()) out->Compact(sel_);
    if (!out->empty()) return true;
  }
  return false;
}

void HashDistinctOp::Close() {
  child_->Close();
  seen_.Clear();
  buffer_.Release();
}

// ---------------------------------------------------------------------------
// UnionAllOp / MergeUnionOp
// ---------------------------------------------------------------------------

UnionAllOp::UnionAllOp(std::vector<OperatorPtr> children,
                       std::vector<ColumnId> layout, ExecContext ctx)
    : Operator(ctx), children_(std::move(children)) {
  layout_ = std::move(layout);
}

void UnionAllOp::OpenImpl() {
  for (OperatorPtr& c : children_) c->Open();
  current_ = 0;
}

bool UnionAllOp::NextBatchImpl(RowBatch* out) {
  // Batches are positional; a child batch is forwarded untouched even
  // though this operator's layout carries the union's fresh ColumnIds.
  while (current_ < children_.size()) {
    if (children_[current_]->NextBatch(out)) return true;
    ++current_;
  }
  return false;
}

void UnionAllOp::Close() {
  for (OperatorPtr& c : children_) c->Close();
}

MergeUnionOp::MergeUnionOp(std::vector<OperatorPtr> children,
                           std::vector<ColumnId> layout, ExecContext ctx)
    : Operator(ctx), children_(std::move(children)) {
  layout_ = std::move(layout);
}

void MergeUnionOp::OpenImpl() {
  heads_.assign(children_.size(), Head());
  for (size_t i = 0; i < children_.size(); ++i) {
    children_[i]->Open();
    heads_[i].batch.Reset(layout_.size(), 1);
    Refill(i);
  }
}

void MergeUnionOp::Refill(size_t i) {
  Head& h = heads_[i];
  h.pos = 0;
  h.valid = PullBatch(children_[i].get(), &h.batch);
}

int MergeUnionOp::CompareHeads(size_t a, size_t b) const {
  const Head& x = heads_[a];
  const Head& y = heads_[b];
  for (size_t c = 0; c < layout_.size(); ++c) {
    ++ctx_.metrics->comparisons;
    int cmp = x.batch.At(c, x.pos).Compare(y.batch.At(c, y.pos));
    if (cmp != 0) return cmp;
  }
  return 0;
}

bool MergeUnionOp::NextBatchImpl(RowBatch* out) {
  out->Reset(layout_.size(), BatchCapacity());
  int64_t n = 0;
  while (n < out->capacity() && ctx_.GuardOk()) {
    // The smallest head wins; ties go to the lowest child.
    int best = -1;
    for (size_t i = 0; i < heads_.size(); ++i) {
      if (!heads_[i].valid) continue;
      if (best < 0 || CompareHeads(i, static_cast<size_t>(best)) < 0) {
        best = static_cast<int>(i);
      }
    }
    if (best < 0) break;
    const size_t b = static_cast<size_t>(best);
    Head& h = heads_[b];
    // The head row is read once more, here, so its values move out.
    for (size_t c = 0; c < layout_.size(); ++c) {
      out->AppendColumnValue(c, std::move(*h.batch.MutableAt(c, h.pos)));
    }
    ++n;
    if (++h.pos == h.batch.size()) Refill(b);
  }
  out->SetRowCount(n);
  return n > 0;
}

void MergeUnionOp::Close() {
  for (OperatorPtr& c : children_) c->Close();
}

// ---------------------------------------------------------------------------
// TopNOp
// ---------------------------------------------------------------------------

TopNOp::TopNOp(OperatorPtr child, OrderSpec spec, int64_t limit,
               ExecContext ctx)
    : Operator(ctx),
      child_(std::move(child)),
      spec_(std::move(spec)),
      limit_(limit),
      buffer_(ctx.guard, &stats_) {
  layout_ = child_->layout();
}

void TopNOp::OpenImpl() {
  child_->Open();
  rows_.clear();
  buffer_.Release();
  pos_ = 0;
  if (limit_ <= 0) return;

  std::vector<int> positions;
  std::vector<bool> descending;
  if (!ResolveSpec(spec_, layout_, ctx_, "top-n", &positions, &descending)) {
    return;
  }
  int64_t* cmp_counter = &ctx_.metrics->comparisons;
  auto less = [&](const Row& a, const Row& b) {
    return RowLess(a, b, positions, descending, cmp_counter);
  };

  // Max-heap of the current best `limit_` rows (heap top = worst kept).
  Row row;
  RowBatch batch;
  const size_t cap = static_cast<size_t>(limit_);
  while (child_->NextBatch(&batch)) {
    for (int64_t i = 0; i < batch.size(); ++i) {
      batch.TakeRowInto(i, &row);
      if (rows_.size() < cap) {
        buffer_.Add(row);
        rows_.push_back(std::move(row));
        std::push_heap(rows_.begin(), rows_.end(), less);
        continue;
      }
      if (less(row, rows_.front())) {
        std::pop_heap(rows_.begin(), rows_.end(), less);
        // Same row count, different payload: re-price the slot so string
        // growth across evictions can't drift away from the byte guardrail.
        buffer_.Update(rows_.back(), row);
        rows_.back() = std::move(row);
        std::push_heap(rows_.begin(), rows_.end(), less);
      }
    }
  }
  if (!ctx_.GuardOk()) {  // a buffer limit tripped: wind down
    rows_.clear();
    buffer_.Release();
    return;
  }
  std::sort_heap(rows_.begin(), rows_.end(), less);
  ++ctx_.metrics->sorts_performed;
  ctx_.metrics->rows_sorted += static_cast<int64_t>(rows_.size());
}

bool TopNOp::NextBatchImpl(RowBatch* out) {
  out->Reset(layout_.size(), BatchCapacity());
  while (!out->full() && pos_ < rows_.size()) {
    out->AppendRow(std::move(rows_[pos_]));
    ++pos_;
  }
  return !out->empty();
}

void TopNOp::Close() {
  child_->Close();
  rows_.clear();
  buffer_.Release();
}

// ---------------------------------------------------------------------------
// LimitOp
// ---------------------------------------------------------------------------

LimitOp::LimitOp(OperatorPtr child, int64_t limit, ExecContext ctx)
    : Operator(ctx), child_(std::move(child)), limit_(limit) {
  layout_ = child_->layout();
}

void LimitOp::OpenImpl() {
  child_->Open();
  emitted_ = 0;
}

bool LimitOp::NextBatchImpl(RowBatch* out) {
  while (emitted_ < limit_) {
    if (!child_->NextBatch(out)) return false;
    if (out->empty()) continue;
    const int64_t remaining = limit_ - emitted_;
    if (out->size() > remaining) out->Truncate(remaining);
    emitted_ += out->size();
    return true;
  }
  return false;
}

void LimitOp::Close() { child_->Close(); }

// ---------------------------------------------------------------------------
// ProjectOp
// ---------------------------------------------------------------------------

ProjectOp::ProjectOp(OperatorPtr child, std::vector<OutputColumn> projections,
                     ExecContext ctx)
    : Operator(ctx), child_(std::move(child)),
      projections_(std::move(projections)) {
  for (const OutputColumn& oc : projections_) layout_.push_back(oc.id);
}

void ProjectOp::OpenImpl() {
  child_->Open();
  eval_ = std::make_unique<ExprEvaluator>(child_->layout(), ctx_.guard);
}

bool ProjectOp::NextBatchImpl(RowBatch* out) {
  while (ctx_.GuardOk()) {
    if (!child_->NextBatch(&input_)) return false;
    out->Reset(projections_.size(),
               input_.size() > 0 ? input_.size() : int64_t{1});
    for (size_t j = 0; j < projections_.size(); ++j) {
      eval_->EvalColumn(projections_[j].expr, input_, out, j);
    }
    out->SetRowCount(input_.size());
    if (!out->empty()) return true;
  }
  return false;
}

void ProjectOp::Close() { child_->Close(); }

}  // namespace ordopt
