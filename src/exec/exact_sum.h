#ifndef ORDOPT_EXEC_EXACT_SUM_H_
#define ORDOPT_EXEC_EXACT_SUM_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace ordopt {

/// Exact summation of doubles: Neal's *small superaccumulator* (R. M. Neal,
/// "Fast exact summation using small and large superaccumulators",
/// arXiv:1505.05571, §3).
///
/// The total is kept as a fixed-point number spanning the whole double
/// range: 67 signed 64-bit chunks, chunk i standing for 32 bits at weight
/// 2^(32i - 1074), so chunk 0's lowest bit is the smallest subnormal. A
/// finite double's 53-bit mantissa, shifted by the low five bits of its
/// exponent, lands in two adjacent chunks — two integer additions, no
/// rounding. Each addition moves a chunk by less than 2^52, so after a carry
/// propagation (every chunk in [0, 2^32) but the top one, which is signed
/// and below 2^31 in magnitude) another 1023 additions cannot overflow one.
/// Only the chunks in [lo_, hi_] can be non-zero, and propagation, merging
/// and the byte form touch only those: sums of values of similar magnitude
/// use a few chunks. ±Inf and NaN are remembered in flags beside the finite
/// total.
///
/// Because the total is exact, it does not depend on the order of the
/// additions or on how they were split between accumulators that Merge
/// later combines; Round() rounds it once, to nearest with ties to even.
/// The state is 67 * 8 + 8 bytes.
class ExactSum {
 public:
  /// Adds `x` exactly.
  void Add(double x);
  /// Adds `v` * 2^scale exactly; `scale` >= -1074.
  void AddInt(__int128 v, int scale = 0);
  /// Adds `other`'s total, as if its values had been added here.
  void Merge(const ExactSum& other);

  /// The total rounded to the nearest double, ties to even: NaN if a NaN or
  /// both infinities were added, else the added infinity, else the rounded
  /// finite total (±Inf when it exceeds the double range). An exact zero is
  /// +0.0, as a sum that starts from +0.0 gives. Like AppendTo, it
  /// propagates the carries in place, which leaves the total unchanged.
  double Round();

  /// Appends the state to `out` in a self-contained byte form: the flags,
  /// the chunk range and the chunks in it.
  void AppendTo(std::string* out);
  /// Reads a state written by AppendTo from the front of `*in`, advancing
  /// it; false when `*in` does not start with one.
  bool ReadFrom(std::string_view* in);

 private:
  static constexpr int kChunkBits = 32;
  static constexpr int kChunks = 67;
  /// Additions between carry propagations: 2^32 + 1023 * 2^52 < 2^63.
  static constexpr int kCarryTerms = 1023;
  /// The bit position, counted from chunk 0's lowest bit, of 2^0.
  static constexpr int kUnitPosition = 1074;

  enum : uint8_t { kNaN = 1, kPosInf = 2, kNegInf = 4 };

  /// Add() for zeros, subnormals, infinities and NaN.
  void AddSpecial(double x);
  /// Adds (or subtracts) `mantissa` < 2^53 at bit `position`.
  void AddScaled(bool negative, uint64_t mantissa, int position);
  /// Brings every chunk below hi_ into [0, 2^32) and the top one into
  /// [-2^31, 2^31), moving hi_ up as the carry needs.
  void Propagate();
  /// The propagated total, a non-negative one, rounded: Round's body.
  double RoundMagnitude() const;

  int64_t chunk_[kChunks] = {};
  int32_t adds_left_ = kCarryTerms;
  int8_t lo_ = kChunks;  ///< chunks outside [lo_, hi_] are zero
  int8_t hi_ = -1;
  uint8_t flags_ = 0;
};

/// The fast path in front of an ExactSum: a sum of doubles kept exactly as
/// one 128-bit integer times 2^base. The first non-zero value fixes base 32
/// bits below its ulp; a later value fits when its ulp is at least 2^base,
/// it is below 2^125 * 2^base and the total stays within the integer —
/// values within about 2^32 of each other, like one column's, always do.
/// Add and Merge return false for what does not fit, leaving the sum as it
/// was; the caller then moves it into an ExactSum (MoveTo) and continues
/// there. 32 bytes, no allocation.
struct FixedSum {
  static constexpr int32_t kNoBase = INT32_MIN;  ///< only zeros, or nothing

  /// Adds `x` exactly; false when it does not fit (always for ±Inf and
  /// NaN, which only an ExactSum records).
  bool Add(double x);
  /// Adds `other`'s total; false when the two do not fit one base.
  bool Merge(const FixedSum& other);
  /// The total rounded to the nearest double, ties to even; +0.0 for zero.
  double Round() const;
  /// Adds the total to `*sum` and empties this one.
  void MoveTo(ExactSum* sum);

  __int128 total = 0;
  int32_t base = kNoBase;
  bool added = false;  ///< a value, perhaps only zeros, was added
};

// The Add functions and AddScaled are inline: they run once per summed
// double.

inline bool FixedSum::Add(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  const int biased = static_cast<int>((bits >> 52) & 0x7FF);
  if (biased == 0x7FF) return false;  // ±Inf or NaN
  added = true;
  __int128 mantissa = static_cast<__int128>(bits & ((uint64_t{1} << 52) - 1));
  int ulp = -1074;  // a subnormal's: the smallest normal's, no hidden bit
  if (biased != 0) {
    mantissa |= __int128{1} << 52;
    ulp = biased - 1075;
  } else if (mantissa == 0) {
    return true;  // a signed zero adds nothing
  }
  if (base == kNoBase) base = ulp - 32 < -1074 ? -1074 : ulp - 32;
  const int shift = ulp - base;
  if (shift < 0 || shift > 72) return false;  // 2^53 * 2^72 <= 2^125
  const __int128 v = (bits >> 63) != 0 ? -(mantissa << shift)
                                       : mantissa << shift;
  __int128 sum;
  if (__builtin_add_overflow(total, v, &sum)) return false;
  total = sum;
  return true;
}

inline void ExactSum::Add(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  const int exponent = static_cast<int>((bits >> 52) & 0x7FF);
  if (static_cast<unsigned>(exponent - 1) >= 0x7FE) {
    AddSpecial(x);
    return;
  }
  const uint64_t mantissa = (bits & ((uint64_t{1} << 52) - 1)) |
                            (uint64_t{1} << 52);  // the hidden bit
  AddScaled((bits >> 63) != 0, mantissa, exponent - 1);
}

inline void ExactSum::AddScaled(bool negative, uint64_t mantissa,
                                int position) {
  if (adds_left_ == 0) Propagate();
  --adds_left_;
  const int low = position & (kChunkBits - 1);
  const int chunk = position / kChunkBits;
  // Bits 0..31 of mantissa << low, and the rest (< 2^52).
  const int64_t lo = static_cast<int64_t>((mantissa << low) & 0xFFFFFFFFu);
  const int64_t hi = static_cast<int64_t>(mantissa >> (kChunkBits - low));
  if (negative) {
    chunk_[chunk] -= lo;
    chunk_[chunk + 1] -= hi;
  } else {
    chunk_[chunk] += lo;
    chunk_[chunk + 1] += hi;
  }
  if (chunk < lo_) lo_ = static_cast<int8_t>(chunk);
  if (chunk + 1 > hi_) hi_ = static_cast<int8_t>(chunk + 1);
}

}  // namespace ordopt

#endif  // ORDOPT_EXEC_EXACT_SUM_H_
