#ifndef ORDOPT_COMMON_COLUMN_ID_H_
#define ORDOPT_COMMON_COLUMN_ID_H_

#include <algorithm>
#include <bit>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <span>
#include <string>
#include <vector>

namespace ordopt {

/// Identity of a column instance inside one query: the id of the table
/// instance (quantifier) it comes from plus the column's ordinal within
/// that table. Two references to the same base table in one query get
/// distinct table ids, so self-joins are unambiguous. Names are attached
/// elsewhere and used only for printing.
struct ColumnId {
  int32_t table = -1;
  int32_t column = -1;

  ColumnId() = default;
  ColumnId(int32_t t, int32_t c) : table(t), column(c) {}

  bool valid() const { return table >= 0 && column >= 0; }

  friend auto operator<=>(const ColumnId&, const ColumnId&) = default;
};

/// Reserved table id of the executor's hidden provenance column: the
/// serial emission ordinal a morsel-parallel scan attaches to each row so
/// per-worker sorts and the order-preserving exchange merge can reproduce
/// the serial row sequence byte-identically. Never appears in catalogs,
/// predicates, or plan properties; the exchange strips it before emitting.
inline constexpr int32_t kProvenanceTableId = -3;
inline ColumnId ProvenanceColumnId() { return ColumnId(kProvenanceTableId, 0); }

struct ColumnIdHash {
  size_t operator()(const ColumnId& c) const {
    return (static_cast<size_t>(static_cast<uint32_t>(c.table)) << 32) ^
           static_cast<uint32_t>(c.column);
  }
};

/// A set of columns kept as a bitset. ColumnIds are dense by construction:
/// the binder numbers a query's table instances 0..n-1 (Query::AllocTableId)
/// and a column id's ordinal is its position within its table instance, so
/// one 64-bit word covers a whole table instance (wider ones take a word per
/// 64 ordinals). A set stores its non-zero words sorted by (table, word
/// index): inline up to kInlineWords, on the heap beyond that. The small sets
/// that dominate planning (FD heads and tails, keys, a few-table join's
/// columns) therefore never allocate, and union, intersection and subset
/// tests run a word at a time. Iteration yields ColumnIds in ascending
/// ColumnId order, and <=> compares sets as the sorted sequences of their
/// members.
class ColumnSet {
  struct Word {
    int32_t table;
    int32_t index;  ///< covers column ordinals [64 * index, 64 * index + 64)
    uint64_t bits;

    bool SameSlot(const Word& o) const {
      return table == o.table && index == o.index;
    }
    bool SlotBefore(const Word& o) const {
      return table != o.table ? table < o.table : index < o.index;
    }
  };

 public:
  ColumnSet() = default;
  ColumnSet(std::initializer_list<ColumnId> cols) {
    for (const ColumnId& c : cols) Add(c);
  }
  explicit ColumnSet(const std::vector<ColumnId>& cols) {
    for (const ColumnId& c : cols) Add(c);
  }
  ColumnSet(const ColumnSet& o) { CopyFrom(o); }
  ColumnSet(ColumnSet&& o) noexcept { StealFrom(&o); }
  ColumnSet& operator=(const ColumnSet& o) {
    if (this != &o) {
      Release();
      CopyFrom(o);
    }
    return *this;
  }
  ColumnSet& operator=(ColumnSet&& o) noexcept {
    if (this != &o) {
      Release();
      StealFrom(&o);
    }
    return *this;
  }
  ~ColumnSet() { Release(); }

  /// Forward iterator over the members in ascending ColumnId order; yields
  /// ColumnIds by value.
  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = ColumnId;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = ColumnId;

    Iterator() = default;
    ColumnId operator*() const {
      return ColumnId(word_->table,
                      word_->index * 64 + std::countr_zero(bits_));
    }
    Iterator& operator++() {
      bits_ &= bits_ - 1;
      if (bits_ == 0 && ++word_ != end_) bits_ = word_->bits;
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.word_ == b.word_ && a.bits_ == b.bits_;
    }

   private:
    friend class ColumnSet;
    Iterator(const Word* word, const Word* end)
        : word_(word), end_(end), bits_(word != end ? word->bits : 0) {}

    const Word* word_ = nullptr;
    const Word* end_ = nullptr;
    uint64_t bits_ = 0;
  };

  Iterator begin() const { return Iterator(words(), words() + size_); }
  Iterator end() const {
    return Iterator(words() + size_, words() + size_);
  }

  bool empty() const { return size_ == 0; }  // no zero words are stored

  /// Number of member columns.
  size_t size() const {
    size_t n = 0;
    for (const Word& w : Words()) n += std::popcount(w.bits);
    return n;
  }

  /// The smallest member. Requires !empty().
  ColumnId First() const { return *begin(); }

  bool Contains(const ColumnId& c) const {
    const Word key = SlotOf(c);
    for (const Word& w : Words()) {
      if (w.SameSlot(key)) return (w.bits & key.bits) != 0;
      if (key.SlotBefore(w)) break;
    }
    return false;
  }

  /// True if every column of this set is in `other`.
  bool IsSubsetOf(const ColumnSet& other) const {
    const Word* o = other.words();
    const Word* o_end = o + other.size_;
    for (const Word& w : Words()) {
      while (o != o_end && o->SlotBefore(w)) ++o;
      if (o == o_end || !o->SameSlot(w) || (w.bits & ~o->bits) != 0) {
        return false;
      }
    }
    return true;
  }

  /// True if the two sets share a column.
  bool Intersects(const ColumnSet& other) const {
    const Word* a = words();
    const Word* a_end = a + size_;
    const Word* b = other.words();
    const Word* b_end = b + other.size_;
    while (a != a_end && b != b_end) {
      if (a->SlotBefore(*b)) {
        ++a;
      } else if (b->SlotBefore(*a)) {
        ++b;
      } else {
        if ((a->bits & b->bits) != 0) return true;
        ++a;
        ++b;
      }
    }
    return false;
  }

  void Add(const ColumnId& c) {
    const Word key = SlotOf(c);
    Word* w = words();
    uint32_t i = 0;
    while (i < size_ && w[i].SlotBefore(key)) ++i;
    if (i < size_ && w[i].SameSlot(key)) {
      w[i].bits |= key.bits;
      return;
    }
    Reserve(size_ + 1);
    w = words();
    std::copy_backward(w + i, w + size_, w + size_ + 1);
    w[i] = key;
    ++size_;
  }

  void Remove(const ColumnId& c) {
    const Word key = SlotOf(c);
    Word* w = words();
    for (uint32_t i = 0; i < size_; ++i) {
      if (!w[i].SameSlot(key)) continue;
      w[i].bits &= ~key.bits;
      if (w[i].bits == 0) {
        std::copy(w + i + 1, w + size_, w + i);
        --size_;
      }
      return;
    }
  }

  /// Adds every column of `other`.
  void UnionWith(const ColumnSet& other) { *this = Union(other); }

  /// Set union.
  ColumnSet Union(const ColumnSet& other) const {
    ColumnSet out;
    out.Reserve(UnionWords(other));
    const Word* a = words();
    const Word* a_end = a + size_;
    const Word* b = other.words();
    const Word* b_end = b + other.size_;
    Word* o = out.words();
    while (a != a_end || b != b_end) {
      if (b == b_end || (a != a_end && a->SlotBefore(*b))) {
        *o++ = *a++;
      } else if (a == a_end || b->SlotBefore(*a)) {
        *o++ = *b++;
      } else {
        *o++ = Word{a->table, a->index, a->bits | b->bits};
        ++a;
        ++b;
      }
    }
    out.size_ = static_cast<uint32_t>(o - out.words());
    return out;
  }

  /// Set intersection.
  ColumnSet Intersect(const ColumnSet& other) const {
    ColumnSet out;
    out.Reserve(std::min(size_, other.size_));
    const Word* a = words();
    const Word* a_end = a + size_;
    const Word* b = other.words();
    const Word* b_end = b + other.size_;
    Word* o = out.words();
    while (a != a_end && b != b_end) {
      if (a->SlotBefore(*b)) {
        ++a;
      } else if (b->SlotBefore(*a)) {
        ++b;
      } else {
        if ((a->bits & b->bits) != 0) {
          *o++ = Word{a->table, a->index, a->bits & b->bits};
        }
        ++a;
        ++b;
      }
    }
    out.size_ = static_cast<uint32_t>(o - out.words());
    return out;
  }

  friend bool operator==(const ColumnSet& a, const ColumnSet& b) {
    if (a.size_ != b.size_) return false;
    for (uint32_t i = 0; i < a.size_; ++i) {
      const Word& x = a.words()[i];
      const Word& y = b.words()[i];
      if (!x.SameSlot(y) || x.bits != y.bits) return false;
    }
    return true;
  }
  friend std::strong_ordering operator<=>(const ColumnSet& a,
                                          const ColumnSet& b) {
    auto ia = a.begin();
    auto ib = b.begin();
    for (; ia != a.end() && ib != b.end(); ++ia, ++ib) {
      std::strong_ordering c = *ia <=> *ib;
      if (c != 0) return c;
    }
    if (ia != a.end()) return std::strong_ordering::greater;
    if (ib != b.end()) return std::strong_ordering::less;
    return std::strong_ordering::equal;
  }

 private:
  static constexpr uint32_t kInlineWords = 4;

  static Word SlotOf(const ColumnId& c) {
    // Arithmetic shift and mask: floor division, so negative ordinals (the
    // invalid ColumnId) still land in a well-ordered slot.
    return Word{c.table, c.column >> 6, uint64_t{1} << (c.column & 63)};
  }

  bool OnHeap() const { return capacity_ > kInlineWords; }
  Word* words() { return OnHeap() ? heap_ : inline_; }
  const Word* words() const { return OnHeap() ? heap_ : inline_; }
  std::span<const Word> Words() const { return {words(), size_}; }

  // Number of words in the union with `other`.
  uint32_t UnionWords(const ColumnSet& other) const {
    uint32_t shared = 0;
    const Word* o = other.words();
    const Word* o_end = o + other.size_;
    for (const Word& w : Words()) {
      while (o != o_end && o->SlotBefore(w)) ++o;
      if (o != o_end && o->SameSlot(w)) ++shared;
    }
    return size_ + other.size_ - shared;
  }

  void Reserve(uint32_t n) {
    if (n <= capacity_) return;
    uint32_t cap = std::max(n, capacity_ * 2);
    Word* grown = new Word[cap];
    std::copy(words(), words() + size_, grown);
    if (OnHeap()) delete[] heap_;
    heap_ = grown;
    capacity_ = cap;
  }

  void Release() {
    if (OnHeap()) delete[] heap_;
    size_ = 0;
    capacity_ = kInlineWords;
  }

  // Requires an empty inline state (fresh or Release()d). A copy of a
  // large set that fits inline lands inline.
  void CopyFrom(const ColumnSet& o) {
    Reserve(o.size_);
    std::copy(o.words(), o.words() + o.size_, words());
    size_ = o.size_;
  }

  // Requires an empty inline state; leaves `o` empty.
  void StealFrom(ColumnSet* o) {
    if (o->OnHeap()) {
      heap_ = o->heap_;
      capacity_ = o->capacity_;
      size_ = o->size_;
      o->capacity_ = kInlineWords;
      o->size_ = 0;
      return;
    }
    CopyFrom(*o);
    o->size_ = 0;
  }

  uint32_t size_ = 0;  ///< words in use
  uint32_t capacity_ = kInlineWords;
  union {
    Word inline_[kInlineWords];
    Word* heap_;
  };
};

}  // namespace ordopt

#endif  // ORDOPT_COMMON_COLUMN_ID_H_
