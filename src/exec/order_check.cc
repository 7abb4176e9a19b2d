#include "exec/order_check.h"

#include <utility>

#include "common/str_util.h"
#include "exec/expr_eval.h"
#include "exec/sort_key.h"

namespace ordopt {

OrderCheckStats& GlobalOrderCheckStats() {
  static OrderCheckStats stats;
  return stats;
}

size_t OrderCheckOp::KeyTupleHash::operator()(
    const std::vector<Value>& key) const {
  size_t h = key.size();
  for (const Value& v : key) {
    h ^= v.Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

bool OrderCheckOp::KeyTupleEq::operator()(const std::vector<Value>& a,
                                          const std::vector<Value>& b) const {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].Compare(b[i]) != 0) return false;
  }
  return true;
}

OrderCheckOp::OrderCheckOp(OperatorPtr child, const PlanNode& node,
                           ExecContext ctx)
    : Operator(ctx), child_(std::move(child)) {
  layout_ = child_->layout();
  op_label_ = NodeLabel(node);
  claimed_ = node.props.order;
  ++GlobalOrderCheckStats().operators_checked;

  ExprEvaluator eval(layout_);
  // Resolve the claimed order against what the stream actually carries.
  // A claim can legitimately name a column the layout lost (GroupBy keeps
  // its input order property even when the sort columns are not among the
  // group outputs) — try an equivalent visible column, and otherwise stop:
  // checking the resolvable prefix is checking a weaker true claim.
  for (const OrderElement& e : claimed_) {
    std::optional<ColumnId> resolved = node.props.eq().VisibleMember(
        e.col, [&](const ColumnId& m) { return eval.PositionOf(m) >= 0; });
    if (!resolved.has_value()) break;
    checked_.Append(OrderElement(*resolved, e.dir));
    positions_.push_back(eval.PositionOf(*resolved));
    descending_.push_back(e.dir == SortDirection::kDescending);
  }

  // Resolve each claimed key; a key with an invisible column cannot be
  // observed on this stream and is skipped (not an error for the same
  // reason as above). The empty key — the one-record condition — always
  // resolves and asserts the stream has at most one row.
  for (const ColumnSet& key : node.props.keys.keys()) {
    KeyCheck check;
    check.claimed = key;
    bool resolvable = true;
    for (const ColumnId& c : key) {
      int pos = eval.PositionOf(c);
      if (pos < 0) {
        resolvable = false;
        break;
      }
      check.positions.push_back(pos);
    }
    if (resolvable) keys_.push_back(std::move(check));
  }
}

void OrderCheckOp::OpenImpl() {
  has_prev_ = false;
  row_index_ = 0;
  prev_norm_.clear();
  prev_key_.clear();
  for (KeyCheck& k : keys_) k.seen.clear();
  child_->Open();
}

std::string OrderCheckOp::RenderRow(const RowBatch& batch, int64_t row,
                                    const std::vector<int>& positions) const {
  std::string out = "(";
  for (size_t i = 0; i < positions.size(); ++i) {
    if (i > 0) out += ", ";
    out += batch.At(static_cast<size_t>(positions[i]), row).ToString();
  }
  out += ")";
  return out;
}

bool OrderCheckOp::CheckOrder(const RowBatch& batch, int64_t row) {
  if (positions_.empty()) return true;
  cur_norm_.clear();
  AppendNormalizedKey(batch, row, positions_, descending_, &cur_norm_);
  // The normalized encoding folds direction and NULL placement into the
  // bytes, so "claim violated" is one unsigned lexicographic comparison.
  if (has_prev_ && prev_norm_.compare(cur_norm_) > 0) {
    ++GlobalOrderCheckStats().violations;
    std::string prev_text = "(";
    for (size_t j = 0; j < prev_key_.size(); ++j) {
      if (j > 0) prev_text += ", ";
      prev_text += prev_key_[j].ToString();
    }
    prev_text += ")";
    ctx_.Poison(Status::Internal(StrFormat(
        "order verification failed: %s claims order %s but rows %lld/%lld "
        "violate it: %s then %s",
        op_label_.c_str(), claimed_.ToString().c_str(),
        static_cast<long long>(row_index_ - 1),
        static_cast<long long>(row_index_), prev_text.c_str(),
        RenderRow(batch, row, positions_).c_str())));
    return false;
  }
  prev_norm_.swap(cur_norm_);
  prev_key_.clear();
  for (int pos : positions_) {
    prev_key_.push_back(batch.At(static_cast<size_t>(pos), row));
  }
  has_prev_ = true;
  return true;
}

bool OrderCheckOp::CheckKeys(const RowBatch& batch, int64_t row) {
  for (KeyCheck& k : keys_) {
    if (k.positions.empty()) {
      // One-record condition: any second row is a violation.
      if (row_index_ > 0) {
        ++GlobalOrderCheckStats().violations;
        ctx_.Poison(Status::Internal(StrFormat(
            "key verification failed: %s claims the one-record condition "
            "but produced row %lld",
            op_label_.c_str(), static_cast<long long>(row_index_))));
        return false;
      }
      continue;
    }
    std::vector<Value> key_values;
    key_values.reserve(k.positions.size());
    for (int pos : k.positions) {
      key_values.push_back(batch.At(static_cast<size_t>(pos), row));
    }
    if (!k.seen.insert(std::move(key_values)).second) {
      ++GlobalOrderCheckStats().violations;
      std::string key_text = "{";
      bool first = true;
      for (const ColumnId& c : k.claimed) {
        if (!first) key_text += ", ";
        key_text += DefaultColumnName(c);
        first = false;
      }
      key_text += "}";
      ctx_.Poison(Status::Internal(StrFormat(
          "key verification failed: %s claims key %s but row %lld repeats "
          "key value %s",
          op_label_.c_str(), key_text.c_str(),
          static_cast<long long>(row_index_),
          RenderRow(batch, row, k.positions).c_str())));
      return false;
    }
  }
  return true;
}

bool OrderCheckOp::NextBatchImpl(RowBatch* out) {
  if (!ctx_.GuardOk()) return false;
  if (!child_->NextBatch(out)) return false;
  const int64_t n = out->size();
  for (int64_t i = 0; i < n; ++i) {
    ++GlobalOrderCheckStats().rows_checked;
    if (!CheckOrder(*out, i)) return false;
    if (!CheckKeys(*out, i)) return false;
    ++row_index_;
  }
  return true;
}

void OrderCheckOp::Close() { child_->Close(); }

}  // namespace ordopt
