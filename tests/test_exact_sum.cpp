// Exact SUM/AVG (src/exec/exact_sum.h, AggAccumulator in
// src/exec/group_table.h). ExactSum is checked against an independent
// oracle: __float128 accumulation rounded once to double, which is exact
// whenever the addends' exponents span fewer than 113 - 53 - log2(n) bits,
// as the generated ranges below do. The claim under test is that the total
// is the correctly rounded sum for any arrival order and any partitioning
// into accumulators merged in any order — bit for bit. AggAccumulator is
// then driven through its complete, partial and final phases: int64 sums
// spill into the exact state on overflow and stay exact in every order and
// partitioning, or fail with OutOfRange when the total does not fit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include "common/column_id.h"
#include "exec/engine.h"
#include "exec/exact_sum.h"
#include "exec/group_table.h"
#include "exec/query_guard.h"
#include "exec/row_batch.h"
#include "tpcd/tpcd.h"

namespace ordopt {
namespace {

uint64_t Bits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

double Oracle(const std::vector<double>& values) {
  __float128 total = 0;
  for (double v : values) total += static_cast<__float128>(v);
  return static_cast<double>(total);
}

double SumInOrder(const std::vector<double>& values) {
  ExactSum s;
  for (double v : values) s.Add(v);
  return s.Round();
}

// Splits `values` into `parts` contiguous runs at random cut points, sums
// each run in its own accumulator, and merges the runs in a random order,
// the accumulators passing through their byte form as partial states do.
double SumPartitioned(const std::vector<double>& values, int parts,
                      std::mt19937_64* rng) {
  std::vector<size_t> cuts = {0, values.size()};
  std::uniform_int_distribution<size_t> at(0, values.size());
  for (int i = 1; i < parts; ++i) cuts.push_back(at(*rng));
  std::sort(cuts.begin(), cuts.end());
  std::vector<ExactSum> partials(cuts.size() - 1);
  for (size_t p = 0; p + 1 < cuts.size(); ++p) {
    for (size_t i = cuts[p]; i < cuts[p + 1]; ++i) partials[p].Add(values[i]);
  }
  std::shuffle(partials.begin(), partials.end(), *rng);
  ExactSum total;
  for (ExactSum& p : partials) {
    std::string bytes;
    p.AppendTo(&bytes);
    std::string_view in(bytes);
    ExactSum read;
    EXPECT_TRUE(read.ReadFrom(&in));
    EXPECT_TRUE(in.empty());
    total.Merge(read);
  }
  return total.Round();
}

// Doubles with random signs, 53-bit mantissas and exponents in
// [lo_exp, hi_exp].
std::vector<double> RandomDoubles(size_t n, int lo_exp, int hi_exp,
                                  std::mt19937_64* rng) {
  std::uniform_int_distribution<int> exp(lo_exp, hi_exp);
  std::uniform_real_distribution<double> mantissa(1.0, 2.0);
  std::vector<double> out;
  for (size_t i = 0; i < n; ++i) {
    const double v = std::ldexp(mantissa(*rng), exp(*rng));
    out.push_back((*rng)() % 2 == 0 ? v : -v);
  }
  return out;
}

TEST(ExactSum, MatchesOracleInEveryOrderAndPartitioning) {
  std::mt19937_64 rng(20261019);
  struct Range {
    int lo, hi;
  };
  // Wide cancellation-heavy ranges; the last sits just above the
  // subnormals (ExactSum.Subnormals covers them).
  for (const Range r : {Range{-20, 20}, Range{-40, 5}, Range{300, 340},
                        Range{-1074 + 52, -1000}}) {
    for (size_t n : {size_t{1}, size_t{2}, size_t{7}, size_t{1000},
                     size_t{5000}}) {
      SCOPED_TRACE(testing::Message() << "exponents [" << r.lo << ", " << r.hi
                                      << "] n=" << n);
      std::vector<double> values = RandomDoubles(n, r.lo, r.hi, &rng);
      const double expected = Oracle(values);
      EXPECT_EQ(Bits(SumInOrder(values)), Bits(expected));
      for (int round = 0; round < 5; ++round) {
        std::shuffle(values.begin(), values.end(), rng);
        EXPECT_EQ(Bits(SumInOrder(values)), Bits(expected));
        const int parts = 1 + static_cast<int>(rng() % 8);
        EXPECT_EQ(Bits(SumPartitioned(values, parts, &rng)), Bits(expected))
            << parts << " parts";
      }
    }
  }
}

TEST(ExactSum, NoIntermediateOverflow) {
  EXPECT_EQ(SumInOrder({1e308, 1e308, -1e308}), 1e308);
  EXPECT_EQ(SumInOrder({-1e308, 1e308, 1e308}), 1e308);
  const double max = std::numeric_limits<double>::max();
  EXPECT_EQ(SumInOrder({max, max, -max}), max);
  // A total past the double range rounds to infinity.
  EXPECT_EQ(SumInOrder({max, max}), std::numeric_limits<double>::infinity());
  EXPECT_EQ(SumInOrder({-max, -max}),
            -std::numeric_limits<double>::infinity());
  // max + half an ulp of max is a tie that rounds away from even max.
  EXPECT_EQ(SumInOrder({max, std::ldexp(1.0, 970)}),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(SumInOrder({max, std::ldexp(1.0, 969)}), max);
}

TEST(ExactSum, InfinitiesAndNaN) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(SumInOrder({1.0, inf, -1e308}), inf);
  EXPECT_EQ(SumInOrder({-inf, 5.0}), -inf);
  EXPECT_EQ(SumInOrder({inf, inf}), inf);
  EXPECT_TRUE(std::isnan(SumInOrder({inf, -inf})));
  EXPECT_TRUE(std::isnan(SumInOrder({1.0, nan, 2.0})));
  EXPECT_TRUE(std::isnan(SumInOrder({nan, inf})));
  // The flags merge like the values.
  ExactSum a, b;
  a.Add(inf);
  b.Add(-inf);
  a.Merge(b);
  EXPECT_TRUE(std::isnan(a.Round()));
}

TEST(ExactSum, Subnormals) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double min_normal = std::numeric_limits<double>::min();
  EXPECT_EQ(SumInOrder({tiny, tiny, tiny}), 3 * tiny);
  EXPECT_EQ(SumInOrder({min_normal, -tiny}), min_normal - tiny);
  EXPECT_EQ(SumInOrder({tiny, -tiny}), 0.0);
  // Subnormals and the smallest normals together, against the oracle.
  std::mt19937_64 rng(7);
  std::vector<double> values;
  for (int i = 0; i < 2000; ++i) {
    const double v = static_cast<double>(rng() % (uint64_t{1} << 52)) * tiny;
    values.push_back(i % 3 == 0 ? -v : v);
  }
  values.push_back(min_normal);
  values.push_back(-4 * min_normal);
  const double expected = Oracle(values);
  for (int round = 0; round < 5; ++round) {
    std::shuffle(values.begin(), values.end(), rng);
    EXPECT_EQ(Bits(SumInOrder(values)), Bits(expected));
    EXPECT_EQ(Bits(SumPartitioned(values, 1 + round, &rng)), Bits(expected));
  }
}

TEST(ExactSum, SignedZeros) {
  // An exact zero is +0.0, as a sum that starts from +0.0 gives — also
  // when every value is -0.0.
  EXPECT_EQ(Bits(SumInOrder({})), Bits(0.0));
  EXPECT_EQ(Bits(SumInOrder({-0.0})), Bits(0.0));
  EXPECT_EQ(Bits(SumInOrder({-0.0, -0.0, -0.0})), Bits(0.0));
  EXPECT_EQ(Bits(SumInOrder({-0.0, 0.0})), Bits(0.0));
  // x + (-x) is +0.0.
  EXPECT_EQ(Bits(SumInOrder({2.5, -2.5})), Bits(0.0));
  EXPECT_EQ(Bits(SumInOrder({-2.5, 2.5, -0.0})), Bits(0.0));
  ExactSum a, b;
  a.Add(-0.0);
  b.Add(-0.0);
  a.Merge(b);
  EXPECT_EQ(Bits(a.Round()), Bits(0.0));
}

TEST(ExactSum, IntegersAddExactly) {
  const int64_t max = std::numeric_limits<int64_t>::max();
  const int64_t min = std::numeric_limits<int64_t>::min();
  // A 128-bit integer joins the double total without rounding.
  const __int128 big = static_cast<__int128>(1) << 100;
  ExactSum s;
  s.AddInt(big);
  s.Add(1.0);
  s.AddInt(-big);
  EXPECT_EQ(s.Round(), 1.0);
  // 2^63 + 1 rounds to 2^63 as a double.
  ExactSum r;
  r.AddInt(max);
  r.AddInt(2);
  EXPECT_EQ(r.Round(), std::ldexp(1.0, 63));
  ExactSum m;
  m.AddInt(min);
  m.AddInt(min);
  EXPECT_EQ(m.Round(), -std::ldexp(1.0, 64));
  // Integers and doubles together, against the oracle.
  std::mt19937_64 rng(11);
  std::vector<double> values = RandomDoubles(500, 5, 30, &rng);
  ExactSum mixed;
  for (double v : values) mixed.Add(v);
  __int128 ints = 0;
  for (int i = 0; i < 500; ++i) {
    const int64_t v = static_cast<int64_t>(rng() % (uint64_t{1} << 50)) -
                      (int64_t{1} << 49);
    ints += v;
    values.push_back(static_cast<double>(v));  // exact: |v| < 2^53
  }
  mixed.AddInt(ints);
  EXPECT_EQ(Bits(mixed.Round()), Bits(Oracle(values)));
}

TEST(ExactSum, ByteFormHoldsOnlyTheUsedChunks) {
  // Values of one magnitude touch two or three chunks: the byte form is
  // the 3-byte header and those chunks, not all 67.
  ExactSum s;
  for (int i = 0; i < 100000; ++i) s.Add(1000.25 + i);
  std::string bytes;
  s.AppendTo(&bytes);
  EXPECT_LE(bytes.size(), 3u + 3 * sizeof(int64_t));
  std::string_view in(bytes);
  ExactSum read;
  ASSERT_TRUE(read.ReadFrom(&in));
  EXPECT_EQ(read.Round(), s.Round());
  ExactSum empty;
  bytes.clear();
  empty.AppendTo(&bytes);
  EXPECT_EQ(bytes.size(), 3u);
  // A truncated state is rejected.
  s.AppendTo(&bytes);
  std::string_view cut = std::string_view(bytes).substr(3, bytes.size() - 4);
  EXPECT_FALSE(read.ReadFrom(&cut));
}

// ---- AggAccumulator: exact int64 sums in every order and partitioning ---

const ColumnId kArg(0, 0);
const ColumnId kSumOut(1, 0);

std::vector<AggregateSpec> SumSpecs(DataType type = DataType::kInt64) {
  AggregateSpec sum;
  sum.func = AggFunc::kSum;
  sum.arg = BoundExpr::Column(kArg, type, "x");
  sum.output = kSumOut;
  sum.name = "sum(x)";
  return {sum};
}

template <typename T>
RowBatch Column(const std::vector<T>& values) {
  RowBatch batch;
  batch.Reset(1, static_cast<int64_t>(values.size()) + 1);
  for (T v : values) {
    if constexpr (std::is_same_v<T, double>) {
      batch.AppendRow(Row{Value::Double(v)});
    } else {
      batch.AppendRow(Row{Value::Int(v)});
    }
  }
  return batch;
}

template <typename T>
DataType TypeOf() {
  return std::is_same_v<T, double> ? DataType::kDouble : DataType::kInt64;
}

// The global sum of `values` in one complete accumulator.
template <typename T>
Result<Value> SumComplete(const std::vector<T>& values) {
  QueryGuard guard;
  BufferAccount buffer(&guard);
  AggAccumulator acc(0, SumSpecs(TypeOf<T>()), {kArg}, &guard, &buffer);
  acc.AddGroup(Row());
  RowBatch in = Column(values);
  acc.EvaluateArgs(in);
  for (int64_t r = 0; r < in.size(); ++r) EXPECT_TRUE(acc.Update(0, r));
  RowBatch out;
  out.Reset(1, 1);
  ORDOPT_RETURN_NOT_OK(acc.Finalize(0, &out));
  return out.At(0, 0);
}

// The same sum split into `parts` partial accumulators whose state rows a
// final accumulator merges in the order of `parts`.
template <typename T>
Result<Value> SumSplit(const std::vector<std::vector<T>>& parts) {
  QueryGuard guard;
  BufferAccount buffer(&guard);
  RowBatch states;
  states.Reset(2, static_cast<int64_t>(parts.size()) + 1);
  for (size_t p = 0; p < parts.size(); ++p) {
    AggAccumulator partial(1, SumSpecs(TypeOf<T>()), {kArg}, &guard, &buffer,
                           AggPhase::kPartial);
    partial.AddGroup(Row{Value::Int(static_cast<int64_t>(p))});
    RowBatch in = Column(parts[p]);
    partial.EvaluateArgs(in);
    for (int64_t r = 0; r < in.size(); ++r) EXPECT_TRUE(partial.Update(0, r));
    ORDOPT_RETURN_NOT_OK(partial.Finalize(0, &states));
  }
  AggAccumulator final_acc(0, SumSpecs(TypeOf<T>()),
                           {ProvenanceColumnId(), kSumOut}, &guard, &buffer,
                           AggPhase::kFinal);
  final_acc.AddGroup(Row());
  final_acc.EvaluateArgs(states);
  for (int64_t r = 0; r < states.size(); ++r) {
    EXPECT_TRUE(final_acc.Update(0, r));
  }
  RowBatch out;
  out.Reset(1, 1);
  ORDOPT_RETURN_NOT_OK(final_acc.Finalize(0, &out));
  return out.At(0, 0);
}

// Double sums through the accumulator: values of one magnitude stay in
// the 128-bit FixedSum, values spread wider (or an infinity) move a state
// into its ExactSum, in some parts and not in others. Every order and
// every split, merged in any order, gives the oracle's bits.
TEST(AggAccumulatorSum, DoubleSumsMatchOracleAcrossFixedAndExactStates) {
  std::mt19937_64 rng(5);
  struct Range {
    int lo, hi;
  };
  for (const Range r : {Range{10, 16}, Range{-8, 30}, Range{-10, 35}}) {
    SCOPED_TRACE(testing::Message() << "exponents [" << r.lo << ", " << r.hi
                                    << "]");
    std::vector<double> values = RandomDoubles(300, r.lo, r.hi, &rng);
    const double expected = Oracle(values);
    for (int round = 0; round < 6; ++round) {
      std::shuffle(values.begin(), values.end(), rng);
      Result<Value> whole = SumComplete(values);
      ASSERT_TRUE(whole.ok()) << whole.status().ToString();
      EXPECT_EQ(Bits(whole.value().AsDouble()), Bits(expected));
      std::vector<std::vector<double>> parts(1 + rng() % 8);
      for (double v : values) parts[rng() % parts.size()].push_back(v);
      Result<Value> split = SumSplit(parts);
      ASSERT_TRUE(split.ok()) << split.status().ToString();
      EXPECT_EQ(Bits(split.value().AsDouble()), Bits(expected))
          << parts.size() << " parts";
    }
  }
  const double inf = std::numeric_limits<double>::infinity();
  Result<Value> with_inf = SumSplit<double>({{1.0, 2.0}, {inf}, {}});
  ASSERT_TRUE(with_inf.ok());
  EXPECT_EQ(with_inf.value().AsDouble(), inf);
  // Only zeros: a double +0.0, not an integer.
  Result<Value> zeros = SumSplit<double>({{-0.0}, {0.0, -0.0}});
  ASSERT_TRUE(zeros.ok());
  EXPECT_EQ(zeros.value().type(), DataType::kDouble);
  EXPECT_EQ(Bits(zeros.value().AsDouble()), Bits(0.0));
}

TEST(AggAccumulatorSum, Int64SumIsExactInEveryOrderAndSplit) {
  const int64_t max = std::numeric_limits<int64_t>::max();
  std::vector<int64_t> values = {max, 1, -1};
  std::sort(values.begin(), values.end());
  do {
    SCOPED_TRACE(testing::Message() << values[0] << ", " << values[1] << ", "
                                    << values[2]);
    Result<Value> whole = SumComplete(values);
    ASSERT_TRUE(whole.ok()) << whole.status().ToString();
    EXPECT_EQ(whole.value().type(), DataType::kInt64);
    EXPECT_EQ(whole.value().AsInt(), max);
    // Every split into contiguous parts (empty parts included), merged in
    // every order.
    for (size_t a = 0; a <= 3; ++a) {
      for (size_t b = a; b <= 3; ++b) {
        std::vector<std::vector<int64_t>> parts = {
            {values.begin(), values.begin() + a},
            {values.begin() + a, values.begin() + b},
            {values.begin() + b, values.end()}};
        std::sort(parts.begin(), parts.end());
        do {
          Result<Value> split = SumSplit(parts);
          ASSERT_TRUE(split.ok()) << split.status().ToString();
          EXPECT_EQ(split.value().type(), DataType::kInt64);
          EXPECT_EQ(split.value().AsInt(), max);
        } while (std::next_permutation(parts.begin(), parts.end()));
      }
    }
  } while (std::next_permutation(values.begin(), values.end()));
}

TEST(AggAccumulatorSum, TotalOutsideInt64IsOutOfRange) {
  const int64_t max = std::numeric_limits<int64_t>::max();
  const int64_t min = std::numeric_limits<int64_t>::min();
  for (const std::vector<int64_t>& values :
       {std::vector<int64_t>{max, 1}, std::vector<int64_t>{min, -1},
        std::vector<int64_t>{max, max, max, max, max}}) {
    Result<Value> whole = SumComplete(values);
    ASSERT_FALSE(whole.ok());
    EXPECT_EQ(whole.status().code(), StatusCode::kOutOfRange)
        << whole.status().ToString();
    Result<Value> split = SumSplit<int64_t>(
        {{values[0]}, {values.begin() + 1, values.end()}});
    ASSERT_FALSE(split.ok());
    EXPECT_EQ(split.status().code(), StatusCode::kOutOfRange);
  }
  Result<Value> at_min = SumComplete<int64_t>({min + 1, -1});
  ASSERT_TRUE(at_min.ok());
  EXPECT_EQ(at_min.value().AsInt(), min);
}

// Through SQL, serially and at 4 workers, under both profiles: five times
// the int64 maximum is an OutOfRange error, not a wrapped total.
TEST(AggAccumulatorSum, SqlInt64OverflowIsATypedError) {
  Database db;
  TpcdConfig tpcd;
  tpcd.scale_factor = 0.001;
  ASSERT_TRUE(LoadTpcd(&db, tpcd).ok());
  for (int workers : {1, 4}) {
    for (bool hash : {true, false}) {
      SCOPED_TRACE(testing::Message() << "workers=" << workers
                                      << " hash=" << hash);
      OptimizerConfig config;
      config.parallel_workers = workers;
      config.enable_hash_join = hash;
      config.enable_hash_grouping = hash;
      QueryEngine engine(&db, config);
      auto wrapped = engine.Run("select sum(9223372036854775807) from region");
      ASSERT_FALSE(wrapped.ok());
      EXPECT_EQ(wrapped.status().code(), StatusCode::kOutOfRange)
          << wrapped.status().ToString();
      auto one = engine.Run(
          "select sum(9223372036854775807) from region where r_regionkey = 0");
      ASSERT_TRUE(one.ok()) << one.status().ToString();
      ASSERT_EQ(one.value().rows.size(), 1u);
      EXPECT_EQ(one.value().rows[0][0].AsInt(),
                std::numeric_limits<int64_t>::max());
    }
  }
}

}  // namespace
}  // namespace ordopt
