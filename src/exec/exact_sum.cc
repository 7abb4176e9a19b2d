#include "exec/exact_sum.h"

#include <cmath>
#include <cstring>
#include <limits>

namespace ordopt {

namespace {

using u128 = unsigned __int128;

constexpr uint64_t kMantissaMask = (uint64_t{1} << 52) - 1;
constexpr int64_t kChunkMask = (int64_t{1} << 32) - 1;
constexpr int64_t kHalfChunk = int64_t{1} << 31;
/// AppendTo's header: the flags, the first chunk and the chunk count.
constexpr size_t kHeaderBytes = 3;

int BitLength(u128 v) {
  const uint64_t hi = static_cast<uint64_t>(v >> 64);
  if (hi != 0) return 128 - __builtin_clzll(hi);
  const uint64_t lo = static_cast<uint64_t>(v);
  return lo == 0 ? 0 : 64 - __builtin_clzll(lo);
}

/// `v` * 2^scale rounded to the nearest double, ties to even, `sticky`
/// saying whether non-zero bits lie below v's lowest; scale >= -1074.
double RoundScaled(u128 v, int scale, bool sticky) {
  const int length = BitLength(v);
  if (length <= 53) {
    // Exact: a multiple of 2^scale, hence of the smallest subnormal.
    return std::ldexp(static_cast<double>(v), scale);
  }
  // v >= 2^53 and scale >= -1074, so the result is normal and rounding to
  // 53 bits is IEEE rounding; ldexp overflows to Inf exactly when the
  // rounded total is >= 2^1024.
  const int shift = length - 53;
  u128 q = v >> shift;
  const u128 rem = v & ((u128{1} << shift) - 1);
  const u128 half = u128{1} << (shift - 1);
  if (rem > half || (rem == half && (sticky || (q & 1) != 0))) ++q;
  return std::ldexp(static_cast<double>(q), scale + shift);
}

}  // namespace

void ExactSum::AddSpecial(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  const bool negative = (bits >> 63) != 0;
  const uint64_t mantissa = bits & kMantissaMask;
  if (((bits >> 52) & 0x7FF) == 0x7FF) {
    flags_ |= mantissa != 0 ? kNaN : (negative ? kNegInf : kPosInf);
  } else if (mantissa != 0) {
    // A subnormal: the smallest normal's scale, without the hidden bit.
    AddScaled(negative, mantissa, 0);
  }
  // A signed zero adds nothing.
}

void ExactSum::AddInt(__int128 v, int scale) {
  const bool negative = v < 0;
  u128 magnitude = negative ? u128{0} - static_cast<u128>(v)
                            : static_cast<u128>(v);
  // 32 bits at a time, each a mantissa below 2^53.
  for (int position = kUnitPosition + scale; magnitude != 0;
       position += kChunkBits, magnitude >>= kChunkBits) {
    AddScaled(negative, static_cast<uint64_t>(magnitude) & 0xFFFFFFFFu,
              position);
  }
}

void ExactSum::Propagate() {
  adds_left_ = kCarryTerms;
  if (hi_ < 0) return;
  int64_t carry = 0;
  for (int i = lo_; i < hi_; ++i) {
    const int64_t c = chunk_[i] + carry;
    chunk_[i] = c & kChunkMask;
    carry = c >> kChunkBits;  // arithmetic: floor division by 2^32
  }
  chunk_[hi_] += carry;
  while (hi_ < kChunks - 1 &&
         (chunk_[hi_] < -kHalfChunk || chunk_[hi_] >= kHalfChunk)) {
    const int64_t c = chunk_[hi_];
    chunk_[hi_] = c & kChunkMask;
    chunk_[hi_ + 1] += c >> kChunkBits;
    ++hi_;
  }
}

void ExactSum::Merge(const ExactSum& other) {
  flags_ |= other.flags_;
  if (other.hi_ < 0) return;
  // Propagated chunks are below 2^32, so adding `other`'s (below 2^62)
  // cannot overflow.
  Propagate();
  if (other.lo_ < lo_) lo_ = other.lo_;
  if (other.hi_ > hi_) hi_ = other.hi_;
  for (int i = other.lo_; i <= other.hi_; ++i) chunk_[i] += other.chunk_[i];
  Propagate();
}

double ExactSum::Round() {
  if ((flags_ & kNaN) != 0 ||
      (flags_ & (kPosInf | kNegInf)) == (kPosInf | kNegInf)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if ((flags_ & kPosInf) != 0) return std::numeric_limits<double>::infinity();
  if ((flags_ & kNegInf) != 0) return -std::numeric_limits<double>::infinity();
  Propagate();
  // The chunks below the top are non-negative: the top one has the sign.
  if (hi_ < 0 || chunk_[hi_] >= 0) return RoundMagnitude();
  ExactSum magnitude = *this;
  for (int i = lo_; i <= hi_; ++i) magnitude.chunk_[i] = -chunk_[i];
  magnitude.Propagate();
  return -magnitude.RoundMagnitude();
}

double ExactSum::RoundMagnitude() const {
  int top = hi_;
  while (top >= lo_ && chunk_[top] == 0) --top;
  if (top < lo_) return 0.0;

  // The top three chunks hold at least 65 significant bits (chunk `top`
  // is non-zero), enough to round 53 of them; the chunks below only
  // decide whether a halfway remainder is exactly halfway (sticky). Chunks
  // outside [lo_, hi_] are zero. Below chunk 2, v is an exact multiple of
  // the smallest subnormal.
  u128 v = 0;
  int scale = -kUnitPosition;  // v's lowest bit weighs 2^scale
  bool sticky = false;
  if (top < 2) {
    v = (static_cast<u128>(chunk_[1]) << 32) + static_cast<u128>(chunk_[0]);
  } else {
    v = (static_cast<u128>(chunk_[top]) << 64) +
        (static_cast<u128>(chunk_[top - 1]) << 32) +
        static_cast<u128>(chunk_[top - 2]);
    scale += kChunkBits * (top - 2);
    for (int i = lo_; i < top - 2; ++i) sticky = sticky || chunk_[i] != 0;
  }
  return RoundScaled(v, scale, sticky);
}

void ExactSum::AppendTo(std::string* out) {
  Propagate();
  const int count = hi_ < 0 ? 0 : hi_ - lo_ + 1;
  out->push_back(static_cast<char>(flags_));
  out->push_back(static_cast<char>(count > 0 ? lo_ : 0));
  out->push_back(static_cast<char>(count));
  if (count > 0) {
    out->append(reinterpret_cast<const char*>(chunk_ + lo_),
                static_cast<size_t>(count) * sizeof(int64_t));
  }
}

bool ExactSum::ReadFrom(std::string_view* in) {
  if (in->size() < kHeaderBytes) return false;
  const int lo = static_cast<uint8_t>((*in)[1]);
  const int count = static_cast<uint8_t>((*in)[2]);
  const size_t bytes =
      kHeaderBytes + static_cast<size_t>(count) * sizeof(int64_t);
  if (lo + count > kChunks || in->size() < bytes) return false;
  *this = ExactSum();
  flags_ = static_cast<uint8_t>((*in)[0]);
  if (count > 0) {
    lo_ = static_cast<int8_t>(lo);
    hi_ = static_cast<int8_t>(lo + count - 1);
    std::memcpy(chunk_ + lo, in->data() + kHeaderBytes,
                static_cast<size_t>(count) * sizeof(int64_t));
  }
  in->remove_prefix(bytes);
  return true;
}

bool FixedSum::Merge(const FixedSum& other) {
  if (other.base == kNoBase) {
    added = added || other.added;
    return true;
  }
  if (base == kNoBase) {
    *this = other;
    return true;
  }
  // Align on the lower base: the total on the higher one shifts up.
  const bool mine_higher = base > other.base;
  const __int128 high = mine_higher ? total : other.total;
  const __int128 low = mine_higher ? other.total : total;
  const int shift = mine_higher ? base - other.base : other.base - base;
  __int128 scaled;
  __int128 sum;
  if (shift > 125 ||
      __builtin_mul_overflow(high, __int128{1} << shift, &scaled) ||
      __builtin_add_overflow(scaled, low, &sum)) {
    return false;
  }
  total = sum;
  if (other.base < base) base = other.base;
  return true;
}

double FixedSum::Round() const {
  if (base == kNoBase) return 0.0;
  const u128 magnitude = total < 0 ? u128{0} - static_cast<u128>(total)
                                   : static_cast<u128>(total);
  const double rounded = RoundScaled(magnitude, base, /*sticky=*/false);
  return total < 0 ? -rounded : rounded;
}

void FixedSum::MoveTo(ExactSum* sum) {
  if (base != kNoBase) sum->AddInt(total, base);
  *this = FixedSum();
}

}  // namespace ordopt
