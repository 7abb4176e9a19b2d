#include "orderopt/equivalence.h"

namespace ordopt {

size_t EquivalenceClasses::ClassIndex(const ColumnId& col) {
  if (known_.Contains(col)) {
    for (size_t i = 0; i < classes_.size(); ++i) {
      if (classes_[i].members.Contains(col)) return i;
    }
  }
  classes_.push_back(Class{ColumnSet{col}, std::nullopt});
  known_.Add(col);
  return classes_.size() - 1;
}

void EquivalenceClasses::Absorb(size_t into, size_t from) {
  Class& dst = classes_[into];
  Class& src = classes_[from];
  dst.members.UnionWith(src.members);
  if (!dst.constant.has_value()) dst.constant = std::move(src.constant);
  if (dst.constant.has_value()) constant_columns_.UnionWith(dst.members);
  classes_.erase(classes_.begin() + static_cast<std::ptrdiff_t>(from));
}

void EquivalenceClasses::AddEquivalence(const ColumnId& a, const ColumnId& b) {
  size_t ia = ClassIndex(a);
  size_t ib = ClassIndex(b);
  if (ia == ib) return;
  Absorb(ia, ib);
}

void EquivalenceClasses::AddConstant(const ColumnId& col, const Value& value) {
  Class& k = classes_[ClassIndex(col)];
  if (k.constant.has_value()) return;
  k.constant = value;
  constant_columns_.UnionWith(k.members);
}

std::optional<Value> EquivalenceClasses::ConstantValue(
    const ColumnId& col) const {
  const Class* k = Find(col);
  return k == nullptr ? std::nullopt : k->constant;
}

bool EquivalenceClasses::AreEquivalent(const ColumnId& a,
                                       const ColumnId& b) const {
  if (a == b) return true;
  const ColumnSet* members = ClassOf(a);
  return members != nullptr && members->Contains(b);
}

std::vector<ColumnId> EquivalenceClasses::ClassMembers(
    const ColumnId& col) const {
  const ColumnSet* members = ClassOf(col);
  if (members == nullptr) return {col};
  return std::vector<ColumnId>(members->begin(), members->end());
}

std::vector<ColumnId> EquivalenceClasses::KnownColumns() const {
  return std::vector<ColumnId>(known_.begin(), known_.end());
}

void EquivalenceClasses::MergeClass(const ColumnSet& members,
                                    const std::optional<Value>* constant) {
  if (!known_.Intersects(members)) {
    // Disjoint from every class here — the common case at a join, whose
    // sides cover different tables.
    classes_.push_back(Class{members, std::nullopt});
    known_.UnionWith(members);
    if (constant != nullptr && constant->has_value()) {
      classes_.back().constant = *constant;
      constant_columns_.UnionWith(members);
    }
    return;
  }
  // Fold every class meeting `members` into the first one, then add the
  // rest of `members` to it.
  size_t into = classes_.size();
  for (size_t i = 0; i < classes_.size();) {
    if (!classes_[i].members.Intersects(members)) {
      ++i;
    } else if (into == classes_.size()) {
      into = i++;
    } else {
      Absorb(into, i);  // erases i; `into` precedes it and stays put
    }
  }
  Class& k = classes_[into];
  k.members.UnionWith(members);
  known_.UnionWith(members);
  if (!k.constant.has_value() && constant != nullptr) k.constant = *constant;
  if (k.constant.has_value()) constant_columns_.UnionWith(k.members);
}

void EquivalenceClasses::MergeFrom(const EquivalenceClasses& other) {
  if (classes_.empty()) {
    *this = other;
    return;
  }
  for (const Class& k : other.classes_) MergeClass(k.members, &k.constant);
}

void EquivalenceClasses::MergeEquivalencesFrom(
    const EquivalenceClasses& other) {
  for (const Class& k : other.classes_) MergeClass(k.members, nullptr);
}

}  // namespace ordopt
