// Tests for equivalence classes / constant bindings and the FD set (§4.1).

#include <gtest/gtest.h>

#include <algorithm>
#include <compare>
#include <set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "orderopt/equivalence.h"
#include "orderopt/fd.h"

namespace ordopt {
namespace {

const ColumnId ax(0, 0), ay(0, 1), az(0, 2);
const ColumnId bx(1, 0), by(1, 1);
const ColumnId cx(2, 0);

TEST(Equivalence, HeadIsSmallestMember) {
  EquivalenceClasses eq;
  eq.AddEquivalence(bx, cx);
  EXPECT_EQ(eq.Head(cx), bx);
  eq.AddEquivalence(ax, cx);  // ax joins: new head
  EXPECT_EQ(eq.Head(bx), ax);
  EXPECT_EQ(eq.Head(cx), ax);
  EXPECT_EQ(eq.Head(ax), ax);
}

TEST(Equivalence, UnknownColumnIsItsOwnHead) {
  EquivalenceClasses eq;
  EXPECT_EQ(eq.Head(az), az);
  EXPECT_FALSE(eq.IsConstant(az));
}

TEST(Equivalence, ConstantPropagatesThroughClass) {
  EquivalenceClasses eq;
  eq.AddConstant(ax, Value::Int(10));
  eq.AddEquivalence(ax, bx);
  EXPECT_TRUE(eq.IsConstant(bx));
  EXPECT_EQ(eq.ConstantValue(bx)->AsInt(), 10);
  // And the other insertion order.
  EquivalenceClasses eq2;
  eq2.AddEquivalence(ax, bx);
  eq2.AddConstant(bx, Value::Int(7));
  EXPECT_TRUE(eq2.IsConstant(ax));
}

TEST(Equivalence, AreEquivalentAndMembers) {
  EquivalenceClasses eq;
  eq.AddEquivalence(ax, bx);
  eq.AddEquivalence(bx, cx);
  EXPECT_TRUE(eq.AreEquivalent(ax, cx));
  EXPECT_FALSE(eq.AreEquivalent(ax, ay));
  std::vector<ColumnId> members = eq.ClassMembers(bx);
  EXPECT_EQ(members, (std::vector<ColumnId>{ax, bx, cx}));
}

TEST(Equivalence, MergeFrom) {
  EquivalenceClasses left;
  left.AddEquivalence(ax, ay);
  EquivalenceClasses right;
  right.AddEquivalence(bx, by);
  right.AddConstant(bx, Value::Int(3));
  left.MergeFrom(right);
  EXPECT_TRUE(left.AreEquivalent(ax, ay));
  EXPECT_TRUE(left.AreEquivalent(bx, by));
  EXPECT_TRUE(left.IsConstant(by));
}

TEST(FDSet, TrivialAndStoredDetermination) {
  FDSet fds;
  EquivalenceClasses eq;
  // Trivial: c in B.
  EXPECT_TRUE(fds.Determines(ColumnSet{ax}, ax, eq));
  EXPECT_FALSE(fds.Determines(ColumnSet{ax}, ay, eq));
  fds.Add(ColumnSet{ax}, ColumnSet{ay});
  EXPECT_TRUE(fds.Determines(ColumnSet{ax}, ay, eq));
  EXPECT_TRUE(fds.Determines(ColumnSet{ax, az}, ay, eq));  // superset head
  EXPECT_FALSE(fds.Determines(ColumnSet{az}, ay, eq));
}

TEST(FDSet, ConstantIsEmptyHeadedFd) {
  FDSet fds;
  EquivalenceClasses eq;
  eq.AddConstant(az, Value::Int(1));
  EXPECT_TRUE(fds.Determines(ColumnSet{}, az, eq));
}

TEST(FDSet, EquivalenceAwareMatching) {
  // FD {b.x} -> {b.y}, with a.x = b.x applied: {a.x} determines b.y.
  FDSet fds;
  fds.Add(ColumnSet{bx}, ColumnSet{by});
  EquivalenceClasses eq;
  eq.AddEquivalence(ax, bx);
  EXPECT_TRUE(fds.Determines(ColumnSet{ax}, by, eq));
}

TEST(FDSet, SimpleModeIsNotTransitive) {
  FDSet fds;
  fds.Add(ColumnSet{ax}, ColumnSet{ay});
  fds.Add(ColumnSet{ay}, ColumnSet{az});
  EquivalenceClasses eq;
  EXPECT_FALSE(fds.Determines(ColumnSet{ax}, az, eq));
  EXPECT_TRUE(fds.DeterminesTransitive(ColumnSet{ax}, az, eq));
}

TEST(FDSet, Closure) {
  FDSet fds;
  fds.Add(ColumnSet{ax}, ColumnSet{ay});
  fds.Add(ColumnSet{ay, bx}, ColumnSet{by});
  EquivalenceClasses eq;
  ColumnSet closure = fds.Closure(ColumnSet{ax, bx}, eq);
  EXPECT_TRUE(closure.Contains(ay));
  EXPECT_TRUE(closure.Contains(by));
  EXPECT_FALSE(closure.Contains(az));
}

TEST(FDSet, TrivialFdsIgnoredAndDeduplicated) {
  FDSet fds;
  fds.Add(ColumnSet{ax, ay}, ColumnSet{ax});  // trivial: tail within head
  EXPECT_TRUE(fds.empty());
  fds.Add(ColumnSet{ax}, ColumnSet{ay});
  fds.Add(ColumnSet{ax}, ColumnSet{ay});
  EXPECT_EQ(fds.size(), 1u);
}

TEST(FDSet, KeyDeterminesAllColumns) {
  FDSet fds;
  fds.AddKey(ColumnSet{ax}, ColumnSet{ax, ay, az});
  EquivalenceClasses eq;
  EXPECT_TRUE(fds.Determines(ColumnSet{ax}, ay, eq));
  EXPECT_TRUE(fds.Determines(ColumnSet{ax}, az, eq));
}

TEST(FDSet, ConstantHeadColumnFreeInMatch) {
  // FD {x, y} -> {z}; y constant-bound: {x} suffices.
  FDSet fds;
  fds.Add(ColumnSet{ax, ay}, ColumnSet{az});
  EquivalenceClasses eq;
  eq.AddConstant(ay, Value::Int(2));
  EXPECT_TRUE(fds.Determines(ColumnSet{ax}, az, eq));
}

TEST(FDSet, MergeFrom) {
  FDSet a, b;
  a.Add(ColumnSet{ax}, ColumnSet{ay});
  b.Add(ColumnSet{bx}, ColumnSet{by});
  a.MergeFrom(b);
  EquivalenceClasses eq;
  EXPECT_TRUE(a.Determines(ColumnSet{bx}, by, eq));
  EXPECT_EQ(a.size(), 2u);
}

// ---------------------------------------------------------------------------
// Differential tests: the bitset ColumnSet, the class-vector partition and
// the bitset FD tests against naive references kept here — std::set column
// sets, explicit partitions, and a brute-force closure that maps every
// column to its head exactly as §4.1 states the tests.

using NaiveSet = std::set<ColumnId>;

// Tables span the provenance id (-3), ordinary instances and a sparse id;
// ordinals straddle the 64-column word boundaries, so sets routinely need
// more words than a ColumnSet keeps inline.
ColumnId RandomColumn(Rng& rng) {
  static const int32_t kTables[] = {kProvenanceTableId, 0, 1, 2, 3, 4, 9};
  static const int32_t kOrdinals[] = {0, 1, 2, 3, 5, 62, 63, 64, 65, 130};
  return ColumnId(kTables[rng.Uniform(0, 6)], kOrdinals[rng.Uniform(0, 9)]);
}

NaiveSet RandomNaiveSet(Rng& rng, int max_size) {
  NaiveSet out;
  int n = static_cast<int>(rng.Uniform(0, max_size));
  for (int i = 0; i < n; ++i) out.insert(RandomColumn(rng));
  return out;
}

ColumnSet ToColumnSet(const NaiveSet& s) {
  return ColumnSet(std::vector<ColumnId>(s.begin(), s.end()));
}

std::vector<ColumnId> Members(const ColumnSet& s) {
  return std::vector<ColumnId>(s.begin(), s.end());
}

std::vector<ColumnId> Members(const NaiveSet& s) {
  return std::vector<ColumnId>(s.begin(), s.end());
}

TEST(ColumnSetDifferential, MatchesSortedSetSemantics) {
  Rng rng(20240611);
  for (int iter = 0; iter < 3000; ++iter) {
    NaiveSet na = RandomNaiveSet(rng, 12);
    NaiveSet nb = RandomNaiveSet(rng, 12);
    if (rng.Chance(0.3)) nb.insert(na.begin(), na.end());  // superset
    ColumnSet a = ToColumnSet(na);
    ColumnSet b = ToColumnSet(nb);
    ASSERT_EQ(Members(a), Members(na));  // iteration: ascending ColumnId
    ASSERT_EQ(a.size(), na.size());
    ASSERT_EQ(a.empty(), na.empty());
    if (!na.empty()) {
      ASSERT_EQ(a.First(), *na.begin());
    }

    NaiveSet nu = na;
    nu.insert(nb.begin(), nb.end());
    NaiveSet ni;
    std::set_intersection(na.begin(), na.end(), nb.begin(), nb.end(),
                          std::inserter(ni, ni.end()));
    ASSERT_EQ(Members(a.Union(b)), Members(nu));
    ASSERT_EQ(Members(a.Intersect(b)), Members(ni));
    ColumnSet grown = a;
    grown.UnionWith(b);
    ASSERT_EQ(Members(grown), Members(nu));
    ASSERT_EQ(a.Intersects(b), !ni.empty());
    ASSERT_EQ(a.IsSubsetOf(b),
              std::includes(nb.begin(), nb.end(), na.begin(), na.end()));
    ASSERT_EQ(a == b, na == nb);
    // <=> orders KeyProperty keys, and so EXPLAIN text: it must be the
    // lexicographic order of the sorted member sequences.
    ASSERT_EQ(a <=> b, Members(na) <=> Members(nb));

    ColumnId probe = RandomColumn(rng);
    ASSERT_EQ(a.Contains(probe), na.count(probe) > 0);
    ColumnSet edited = a;
    edited.Remove(probe);
    na.erase(probe);
    ASSERT_EQ(Members(edited), Members(na));
    edited.Add(probe);
    na.insert(probe);
    ASSERT_EQ(Members(edited), Members(na));
  }
}

TEST(ColumnSetDifferential, CopiesAndMovesAcrossInlineCapacity) {
  // Eight words, past the inline capacity; then shrunk back under it.
  ColumnSet wide;
  NaiveSet naive;
  for (int32_t t = 0; t < 4; ++t) {
    for (int32_t c : {1, 70}) {
      wide.Add(ColumnId(t, c));
      naive.insert(ColumnId(t, c));
    }
  }
  ColumnSet copy = wide;
  ColumnSet moved = std::move(copy);
  EXPECT_EQ(Members(moved), Members(naive));
  for (int32_t t = 1; t < 4; ++t) {
    moved.Remove(ColumnId(t, 1));
    moved.Remove(ColumnId(t, 70));
    naive.erase(ColumnId(t, 1));
    naive.erase(ColumnId(t, 70));
  }
  ColumnSet small = moved;  // fits inline again
  EXPECT_EQ(Members(small), Members(naive));
  small = wide;
  EXPECT_EQ(small, wide);
}

TEST(ColumnSetDifferential, ExecutorRequiredColumnsWithProvenance) {
  // The executor's pruning sets: join/sort/group columns of several
  // instances, widened by a parallel scan's hidden provenance key.
  ColumnSet required{ColumnId(4, 3), ColumnId(0, 1), ColumnId(2, 0)};
  ColumnSet distinct{ColumnId(2, 0), ColumnId(4, 3)};
  required.Add(ProvenanceColumnId());
  EXPECT_TRUE(required.Contains(ProvenanceColumnId()));
  EXPECT_FALSE(distinct.Contains(ProvenanceColumnId()));
  EXPECT_TRUE(distinct.IsSubsetOf(required));
  // Table id -3 sorts before every real instance.
  EXPECT_EQ(Members(required),
            (std::vector<ColumnId>{ProvenanceColumnId(), ColumnId(0, 1),
                                   ColumnId(2, 0), ColumnId(4, 3)}));
  EXPECT_EQ(required.Intersect(distinct), distinct);
  required.Remove(ProvenanceColumnId());
  EXPECT_EQ(required.Union(distinct).size(), 3u);
}

// Explicit partition plus constant flags.
struct NaiveClasses {
  std::vector<std::pair<NaiveSet, bool>> parts;

  int Find(const ColumnId& c) const {
    for (size_t i = 0; i < parts.size(); ++i) {
      if (parts[i].first.count(c) > 0) return static_cast<int>(i);
    }
    return -1;
  }
  int Ensure(const ColumnId& c) {
    int i = Find(c);
    if (i >= 0) return i;
    parts.push_back({NaiveSet{c}, false});
    return static_cast<int>(parts.size()) - 1;
  }
  void Equate(const ColumnId& a, const ColumnId& b) {
    int ia = Ensure(a);
    int ib = Ensure(b);
    if (ia == ib) return;
    parts[ia].first.insert(parts[ib].first.begin(), parts[ib].first.end());
    parts[ia].second = parts[ia].second || parts[ib].second;
    parts.erase(parts.begin() + ib);
  }
  void Bind(const ColumnId& c) { parts[Ensure(c)].second = true; }
  void Merge(const NaiveClasses& other, bool constants) {
    for (const auto& [members, constant] : other.parts) {
      const ColumnId& first = *members.begin();
      Ensure(first);
      for (const ColumnId& m : members) Equate(first, m);
      if (constants && constant) Bind(first);
    }
  }
  ColumnId Head(const ColumnId& c) const {
    int i = Find(c);
    return i < 0 ? c : *parts[i].first.begin();
  }
  bool IsConstant(const ColumnId& c) const {
    int i = Find(c);
    return i >= 0 && parts[i].second;
  }
  std::vector<ColumnId> MembersOf(const ColumnId& c) const {
    int i = Find(c);
    return i < 0 ? std::vector<ColumnId>{c} : Members(parts[i].first);
  }
  std::vector<ColumnId> Known() const {
    NaiveSet all;
    for (const auto& p : parts) all.insert(p.first.begin(), p.first.end());
    return Members(all);
  }
  NaiveSet Heads(const NaiveSet& s) const {
    NaiveSet out;
    for (const ColumnId& c : s) out.insert(Head(c));
    return out;
  }
};

struct NaiveFds {
  std::vector<std::pair<NaiveSet, NaiveSet>> fds;

  void Add(const NaiveSet& head, const NaiveSet& tail) {
    if (std::includes(head.begin(), head.end(), tail.begin(), tail.end())) {
      return;  // trivial
    }
    for (const auto& fd : fds) {
      if (fd.first == head && fd.second == tail) return;
    }
    fds.push_back({head, tail});
  }
  // head minus constant-bound columns, in heads.
  static NaiveSet LiveHeads(const NaiveSet& head, const NaiveClasses& eq) {
    NaiveSet out;
    for (const ColumnId& h : head) {
      if (!eq.IsConstant(h)) out.insert(eq.Head(h));
    }
    return out;
  }
  static bool Within(const NaiveSet& a, const NaiveSet& b) {
    return std::includes(b.begin(), b.end(), a.begin(), a.end());
  }
  bool Determines(const NaiveSet& b, const ColumnId& c,
                  const NaiveClasses& eq) const {
    ColumnId ch = eq.Head(c);
    if (eq.IsConstant(ch)) return true;
    NaiveSet bh = eq.Heads(b);
    if (bh.count(ch) > 0) return true;
    for (const auto& [head, tail] : fds) {
      if (Within(LiveHeads(head, eq), bh) && eq.Heads(tail).count(ch) > 0) {
        return true;
      }
    }
    return false;
  }
  NaiveSet Closure(const NaiveSet& b, const NaiveClasses& eq) const {
    NaiveSet closure = eq.Heads(b);
    for (bool changed = true; changed;) {
      changed = false;
      for (const auto& [head, tail] : fds) {
        if (!Within(LiveHeads(head, eq), closure)) continue;
        for (const ColumnId& t : eq.Heads(tail)) {
          changed = closure.insert(t).second || changed;
        }
      }
    }
    return closure;
  }
};

struct Side {
  EquivalenceClasses eq;
  NaiveClasses naive_eq;
  FDSet fds;
  NaiveFds naive_fds;
};

// One random mutation of `s`, mirrored on its reference; `donor` feeds the
// merge operations.
void RandomStep(Rng& rng, Side* s, const Side& donor) {
  switch (rng.Uniform(0, 5)) {
    case 0:
    case 1: {
      ColumnId a = RandomColumn(rng), b = RandomColumn(rng);
      s->eq.AddEquivalence(a, b);
      s->naive_eq.Equate(a, b);
      break;
    }
    case 2: {
      ColumnId c = RandomColumn(rng);
      s->eq.AddConstant(c, Value::Int(rng.Uniform(0, 3)));
      s->naive_eq.Bind(c);
      break;
    }
    case 3: {
      bool constants = rng.Chance(0.5);
      if (constants) {
        s->eq.MergeFrom(donor.eq);
      } else {
        s->eq.MergeEquivalencesFrom(donor.eq);
      }
      s->naive_eq.Merge(donor.naive_eq, constants);
      break;
    }
    case 4: {
      NaiveSet head = RandomNaiveSet(rng, 2);
      NaiveSet tail = RandomNaiveSet(rng, 4);
      s->fds.Add(ToColumnSet(head), ToColumnSet(tail));
      s->naive_fds.Add(head, tail);
      break;
    }
    default:
      s->fds.MergeFrom(donor.fds);
      for (const auto& [h, t] : donor.naive_fds.fds) s->naive_fds.Add(h, t);
      break;
  }
}

void ExpectMatches(Rng& rng, const Side& s) {
  ASSERT_EQ(s.eq.KnownColumns(), s.naive_eq.Known());
  ASSERT_EQ(s.fds.size(), s.naive_fds.fds.size());
  for (int probe = 0; probe < 12; ++probe) {
    ColumnId c = RandomColumn(rng);
    ColumnId d = RandomColumn(rng);
    ASSERT_EQ(s.eq.Head(c), s.naive_eq.Head(c));
    ASSERT_EQ(s.eq.IsConstant(c), s.naive_eq.IsConstant(c));
    ASSERT_EQ(s.eq.AreEquivalent(c, d),
              s.naive_eq.Head(c) == s.naive_eq.Head(d));
    ASSERT_EQ(s.eq.ClassMembers(c), s.naive_eq.MembersOf(c));
    NaiveSet b = RandomNaiveSet(rng, 4);
    ColumnSet bs = ToColumnSet(b);
    ASSERT_EQ(s.fds.Determines(bs, c, s.eq),
              s.naive_fds.Determines(b, c, s.naive_eq));
    NaiveSet closure = s.naive_fds.Closure(b, s.naive_eq);
    ASSERT_EQ(Members(s.fds.Closure(bs, s.eq)), Members(closure));
    bool transitive = s.naive_eq.IsConstant(c) ||
                      closure.count(s.naive_eq.Head(c)) > 0;
    ASSERT_EQ(s.fds.DeterminesTransitive(bs, c, s.eq), transitive);
  }
}

TEST(OrderFactsDifferential, MatchesNaivePartitionAndClosure) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    Side left, right;
    for (int step = 0; step < 40; ++step) {
      // Grow both sides so merges meet non-trivial classes and FDs.
      RandomStep(rng, &right, left);
      RandomStep(rng, &left, right);
      ExpectMatches(rng, left);
      if (testing::Test::HasFatalFailure()) {
        FAIL() << "seed " << seed << " step " << step;
      }
    }
  }
}

}  // namespace
}  // namespace ordopt
