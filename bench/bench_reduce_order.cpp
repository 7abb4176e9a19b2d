// Ablation A (google-benchmark micro-costs): the fundamental operations of
// §4 — Reduce Order, Test Order, Cover Order, Homogenize Order — across
// order-specification widths and FD counts. These run inside the
// optimizer's inner loop, so their constant factors matter; the paper's
// design keeps them to simple subset operations.

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "orderopt/general_order.h"
#include "orderopt/operations.h"

namespace ordopt {
namespace {

// A context with `fd_count` FDs over a 32-column table plus an equivalence
// class and a constant binding.
OrderFacts MakeContext(int fd_count, bool transitive) {
  OrderFacts ctx;
  Rng rng(99);
  for (int i = 0; i < fd_count; ++i) {
    ColumnSet head{ColumnId(0, static_cast<int32_t>(rng.Uniform(0, 15)))};
    ColumnSet tail{ColumnId(0, static_cast<int32_t>(rng.Uniform(16, 31)))};
    ctx.fds.Add(head, tail);
  }
  ctx.eq.AddEquivalence({0, 0}, {1, 0});
  ctx.eq.AddConstant({0, 2}, Value::Int(5));
  ctx.transitive_fds = transitive;
  return ctx;
}

OrderSpec MakeSpec(int width) {
  OrderSpec spec;
  Rng rng(7);
  for (int i = 0; i < width; ++i) {
    spec.Append(OrderElement(
        ColumnId(0, static_cast<int32_t>(rng.Uniform(0, 31))),
        rng.Chance(0.5) ? SortDirection::kAscending
                        : SortDirection::kDescending));
  }
  return spec;
}

void BM_ReduceOrder(benchmark::State& state) {
  OrderFacts ctx =
      MakeContext(static_cast<int>(state.range(1)), /*transitive=*/false);
  OrderSpec spec = MakeSpec(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ReduceOrder(spec, ctx));
  }
}
BENCHMARK(BM_ReduceOrder)
    ->ArgsProduct({{2, 4, 8, 16}, {0, 4, 16, 64}})
    ->ArgNames({"width", "fds"});

void BM_ReduceOrderTransitive(benchmark::State& state) {
  OrderFacts ctx =
      MakeContext(static_cast<int>(state.range(1)), /*transitive=*/true);
  OrderSpec spec = MakeSpec(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ReduceOrder(spec, ctx));
  }
}
BENCHMARK(BM_ReduceOrderTransitive)
    ->ArgsProduct({{8}, {4, 16, 64}})
    ->ArgNames({"width", "fds"});

void BM_TestOrder(benchmark::State& state) {
  OrderFacts ctx = MakeContext(16, false);
  OrderSpec interesting = MakeSpec(static_cast<int>(state.range(0)));
  OrderSpec property = MakeSpec(static_cast<int>(state.range(0)) + 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TestOrder(interesting, property, ctx));
  }
}
BENCHMARK(BM_TestOrder)->Arg(2)->Arg(8)->Arg(16)->ArgName("width");

void BM_CoverOrder(benchmark::State& state) {
  OrderFacts ctx = MakeContext(16, false);
  OrderSpec spec = MakeSpec(static_cast<int>(state.range(0)));
  OrderSpec prefix = spec.Prefix(spec.size() / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CoverOrder(prefix, spec, ctx));
  }
}
BENCHMARK(BM_CoverOrder)->Arg(4)->Arg(16)->ArgName("width");

void BM_HomogenizeOrder(benchmark::State& state) {
  OrderFacts ctx = MakeContext(16, false);
  EquivalenceClasses future;
  for (int i = 0; i < 16; ++i) {
    future.AddEquivalence({0, i}, {1, i});
  }
  ColumnSet targets;
  for (int i = 0; i < 32; ++i) targets.Add({1, i});
  OrderSpec spec = MakeSpec(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        HomogenizeOrderPrefix(spec, targets, future, ctx));
  }
}
BENCHMARK(BM_HomogenizeOrder)->Arg(4)->Arg(16)->ArgName("width");

void BM_GeneralOrderSatisfies(benchmark::State& state) {
  OrderFacts ctx = MakeContext(16, false);
  std::vector<ColumnId> group;
  for (int i = 0; i < state.range(0); ++i) {
    group.emplace_back(0, static_cast<int32_t>(i));
  }
  GeneralOrderSpec g = GeneralOrderSpec::ForGrouping(group);
  OrderSpec property = MakeSpec(static_cast<int>(state.range(0)) + 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.Satisfies(property, ctx));
  }
}
BENCHMARK(BM_GeneralOrderSatisfies)->Arg(2)->Arg(8)->ArgName("groupcols");

}  // namespace
}  // namespace ordopt

BENCHMARK_MAIN();
