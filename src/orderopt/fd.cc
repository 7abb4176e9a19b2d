#include "orderopt/fd.h"

#include <algorithm>

#include "common/str_util.h"

namespace ordopt {

namespace {

std::string SetToString(const ColumnSet& set, const ColumnNamer& namer) {
  std::vector<std::string> parts;
  for (const ColumnId& c : set) {
    parts.push_back(namer ? namer(c) : DefaultColumnName(c));
  }
  return "{" + Join(parts, ", ") + "}";
}

}  // namespace

std::string FunctionalDependency::ToString(const ColumnNamer& namer) const {
  return SetToString(head, namer) + " -> " + SetToString(tail, namer);
}

void FDSet::Add(ColumnSet head, ColumnSet tail) {
  if (tail.IsSubsetOf(head)) return;  // trivial
  FunctionalDependency fd(std::move(head), std::move(tail));
  // Avoid exact duplicates; keep the set small for the subset scans.
  if (std::find(fds_.begin(), fds_.end(), fd) != fds_.end()) return;
  fds_.push_back(std::move(fd));
}

void FDSet::AddKey(const ColumnSet& key, const ColumnSet& all_columns) {
  Add(key, all_columns);
}

bool FDSet::Determines(const ColumnSet& b, const ColumnId& c,
                       const EquivalenceClasses& eq) const {
  // Everything is modulo equivalence: "Head(x) is among the heads of S" is
  // ClassMeets(x, S), a word probe of x's class — no head sets are built.
  if (eq.IsConstant(c)) return true;  // {} -> {c}
  if (eq.ClassMeets(c, b)) return true;  // trivial {c} -> {c}
  for (const FunctionalDependency& fd : fds_) {
    if (!eq.ClassMeets(c, fd.tail)) continue;
    bool head_in_b = true;
    for (const ColumnId& h : fd.head) {
      // Constant-bound head columns are determined by {} and drop out.
      if (!eq.IsConstant(h) && !eq.ClassMeets(h, b)) {
        head_in_b = false;
        break;
      }
    }
    if (head_in_b) return true;
  }
  return false;
}

ColumnSet FDSet::Closure(const ColumnSet& b,
                         const EquivalenceClasses& eq) const {
  ColumnSet closure;
  for (const ColumnId& c : b) closure.Add(eq.Head(c));
  bool changed = true;
  while (changed) {
    changed = false;
    for (const FunctionalDependency& fd : fds_) {
      bool fires = true;
      for (const ColumnId& h : fd.head) {
        if (!eq.IsConstant(h) && !closure.Contains(eq.Head(h))) {
          fires = false;
          break;
        }
      }
      if (!fires) continue;
      for (const ColumnId& t : fd.tail) {
        ColumnId th = eq.Head(t);
        if (!closure.Contains(th)) {
          closure.Add(th);
          changed = true;
        }
      }
    }
  }
  return closure;
}

bool FDSet::DeterminesTransitive(const ColumnSet& b, const ColumnId& c,
                                 const EquivalenceClasses& eq) const {
  if (eq.IsConstant(c)) return true;
  return Closure(b, eq).Contains(eq.Head(c));
}

void FDSet::MergeFrom(const FDSet& other) {
  for (const FunctionalDependency& fd : other.fds_) {
    Add(fd.head, fd.tail);
  }
}

std::string FDSet::ToString(const ColumnNamer& namer) const {
  std::vector<std::string> parts;
  for (const FunctionalDependency& fd : fds_) parts.push_back(fd.ToString(namer));
  return "[" + Join(parts, "; ") + "]";
}

}  // namespace ordopt
