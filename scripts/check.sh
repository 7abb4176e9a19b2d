#!/usr/bin/env bash
# Tier-1 gate: build and test both configurations.
#
#   default    RelWithDebInfo, the configuration benches run under
#   asan-ubsan Debug with -fsanitize=address,undefined; any guardrail or
#              fault-injection path that still aborts, leaks, or trips UB
#              fails here
#
# Usage: scripts/check.sh [jobs]          full tier-1 run (default: nproc),
#                                         ending with the tpcdbench build,
#                                         its self-tests, and a 2 s
#                                         correctness smoke run of the
#                                         service_mixed, olap_hash_par4 and
#                                         olap_sort_serial workloads,
#                                         then the source size from
#                                         scripts/src_lines.sh
#        scripts/check.sh --plan-bench    planning-time gate only: builds the
#                                         default preset, runs bench_table1_q3
#                                         --plan-time (Q3, and region revenue
#                                         under DB2/CS and hash, order
#                                         optimization on and off) into
#                                         BENCH_plan.json and checks it against
#                                         scripts/plan_baseline.json
#        scripts/check.sh --verify-orders runs the tier-1 suites under
#                                         asan-ubsan with runtime order
#                                         verification (OrderCheckOp above
#                                         every order/key-claiming operator)
#                                         and reports the measured overhead
#                                         vs an unverified run
#        scripts/check.sh --service       concurrency gate: runs the
#                                         concurrent suites (query service,
#                                         plan cache, generic plans,
#                                         thread-safety regressions) under
#                                         BOTH asan-ubsan and
#                                         ThreadSanitizer, then emits
#                                         BENCH_service.json (qps, p50/p99,
#                                         cache hit rate at 1/8/64 sessions,
#                                         and the Q3 literal sweep), failing
#                                         when the sweep's hit rate is below
#                                         0.9 or a sweep result differs from
#                                         a fresh plan's
#        scripts/check.sh --chaos         resilience gate: runs the chaos
#                                         harness (seeded fault schedules
#                                         against 8/64-session fleets, plus
#                                         the deterministic retry / breaker /
#                                         quarantine / degraded scenarios)
#                                         under BOTH asan-ubsan and
#                                         ThreadSanitizer, then emits
#                                         BENCH_chaos.json (per-seed survival
#                                         rate, retries, breaker trips, p99
#                                         under faults) and fails on any
#                                         broken invariant
#        scripts/check.sh --batch         vectorization gate: runs the
#                                         batch differential suites
#                                         (RowBatch kernels, operator
#                                         semantics, the fuzz identity
#                                         matrix) under BOTH asan-ubsan and
#                                         ThreadSanitizer, then runs the Q3
#                                         batch-size sweep into
#                                         BENCH_batch.json and enforces that
#                                         every batch size is row-identical
#                                         to batch_rows=1 and that batch
#                                         1024 beats batch 1 by >= 1.5x
#        scripts/check.sh --parallel      morsel-parallel gate: runs the
#                                         parallel-determinism battery
#                                         (row-sequence identity vs serial
#                                         over the golden corpus, adversarial
#                                         batch sizes, parallel fault sites,
#                                         the guard thread-safety hammer) and
#                                         the fuzz identity matrix under BOTH
#                                         asan-ubsan and ThreadSanitizer,
#                                         then runs the Q3 and pricing
#                                         parallel-worker sweeps into
#                                         BENCH_parallel.json and enforces
#                                         row-identity to serial plus >= 1.8x
#                                         wall-clock speedup at 4 workers on
#                                         each (the modeled critical-path
#                                         speedup is reported beside it)
#        scripts/check.sh --metrics       observability gate: runs the
#                                         metrics suite (histogram math,
#                                         shard merge, snapshot deltas,
#                                         reporter, query_id correlation)
#                                         under BOTH asan-ubsan and
#                                         ThreadSanitizer, then runs
#                                         bench_service --metrics and checks
#                                         that BENCH_metrics.json parses,
#                                         its counters balance (submitted =
#                                         admitted + shed, admitted =
#                                         completed + failed), the exported
#                                         time series is valid JSON lines,
#                                         and the instrumentation overhead
#                                         at 64 sessions is under 2%

set -euo pipefail
cd "$(dirname "$0")/.."

# Under ORDOPT_UPDATE_GOLDENS the golden suites (test_plan_fingerprint,
# test_plan_space) rewrite their goldens and skip instead of comparing, so
# a passing run would prove nothing. Regenerate goldens by running those
# binaries directly; gate with it unset.
if [ -n "${ORDOPT_UPDATE_GOLDENS+set}" ]; then
  echo "FAIL: ORDOPT_UPDATE_GOLDENS is set; the golden suites would rewrite" >&2
  echo "      their goldens and skip. Unset it to run the gate." >&2
  exit 1
fi

# Planning-time regression gate: Q3 and region-revenue plan-only benchmark
# vs the recorded baseline (times within max_time_ratio, identical plan
# counts, reduce-cache hit rate above min_hit_rate). $1 is the JSON output
# path: --plan-bench records the committed BENCH_plan.json, the default run
# writes under build/ so it leaves the tree clean.
plan_bench_gate() {
  local out="$1"
  echo "==> plan bench gate [default]"
  ./build/bench/bench_table1_q3 --plan-time --json="$out" | tail -n 12
  if command -v python3 >/dev/null; then
    python3 - "$out" <<'EOF'
import json, sys

base = json.load(open("scripts/plan_baseline.json"))
cur = json.load(open(sys.argv[1]))

failures = []
ratio = base["max_time_ratio"]
limit = base["avg_plan_ms"] * ratio
if cur["avg_plan_ms"] > limit:
    failures.append(
        f"avg_plan_ms {cur['avg_plan_ms']:.4f} exceeds "
        f"{ratio}x baseline ({limit:.4f} ms)")
for key in ("plans_generated", "plans_retained"):
    if cur[key] != base[key]:
        failures.append(f"{key} {cur[key]} != baseline {base[key]}")
if cur["reduce_cache_hit_rate"] <= base["min_hit_rate"]:
    failures.append(
        f"reduce_cache_hit_rate {cur['reduce_cache_hit_rate']:.3f} "
        f"not above {base['min_hit_rate']}")
for profile, want in base["region"].items():
    got = cur["region"][profile]
    for key in ("plans_generated_on", "plans_generated_off"):
        if got[key] != want[key]:
            failures.append(
                f"region {profile} {key} {got[key]} != baseline {want[key]}")
    limit = want["order_on_ms"] * ratio
    if got["order_on_ms"] > limit:
        failures.append(
            f"region {profile} order_on_ms {got['order_on_ms']:.4f} exceeds "
            f"{ratio}x baseline ({limit:.4f} ms)")
if failures:
    print("FAIL: plan bench gate:")
    for f in failures:
        print("  " + f)
    sys.exit(1)
print(f"    Q3 avg {cur['avg_plan_ms']:.4f} ms (baseline "
      f"{base['avg_plan_ms']:.4f} ms), hit rate "
      f"{cur['reduce_cache_hit_rate']:.1%}")
for profile, want in base["region"].items():
    got = cur["region"][profile]
    print(f"    region {profile} {got['order_on_ms']:.3f} ms (baseline "
          f"{want['order_on_ms']:.3f} ms), order on/off "
          f"{got['on_off_ratio']:.2f}x")
EOF
  else
    echo "    (python3 not found; baseline comparison skipped)"
  fi
}

if [ "${1:-}" = "--plan-bench" ]; then
  JOBS="${2:-$(nproc)}"
  cmake --preset default >/dev/null
  cmake --build --preset default -j "$JOBS"
  plan_bench_gate BENCH_plan.json
  exit 0
fi

# Runtime order verification gate: the full tier-1 suite under sanitizers
# with ORDOPT_VERIFY_ORDERS=1 — every operator claiming an order or key
# property gets an OrderCheckOp on top, and any violated claim poisons the
# query with kInternal (which the suites surface as failures). The
# unverified run right before it yields a measured overhead figure
# (informational: wall clock on a shared box is noisy).
if [ "${1:-}" = "--verify-orders" ]; then
  JOBS="${2:-$(nproc)}"
  cmake --preset asan-ubsan >/dev/null
  cmake --build --preset asan-ubsan -j "$JOBS"
  echo "==> baseline suite [asan-ubsan]"
  BASE_START=$(date +%s)
  ctest --preset asan-ubsan -j "$JOBS"
  BASE_SECS=$(( $(date +%s) - BASE_START ))
  echo "==> verified suite [asan-ubsan, ORDOPT_VERIFY_ORDERS=1]"
  VO_START=$(date +%s)
  ORDOPT_VERIFY_ORDERS=1 ctest --preset asan-ubsan -j "$JOBS"
  VO_SECS=$(( $(date +%s) - VO_START ))
  echo "OK: zero order/key violations across the suite under verification"
  echo "    overhead: ${VO_SECS}s verified vs ${BASE_SECS}s baseline"
  exit 0
fi

# Concurrency gate: the suites that exercise the QueryService, the shared
# plan cache, and the cross-thread pieces they depend on, under address/UB
# sanitizers AND ThreadSanitizer — a data race anywhere in the
# worker-pool/cache/fault-injector paths fails here. Finishes by running
# the service load benchmark (1/8/64 sessions) into BENCH_service.json.
if [ "${1:-}" = "--service" ]; then
  JOBS="${2:-$(nproc)}"
  CONCURRENT_SUITES="test_service|test_plan_cache|test_generic_plan|test_concurrency|test_fault_injection"
  for preset in asan-ubsan tsan; do
    echo "==> configure [$preset]"
    cmake --preset "$preset" >/dev/null
    echo "==> build [$preset]"
    cmake --build --preset "$preset" -j "$JOBS" \
      --target test_service test_plan_cache test_generic_plan \
               test_concurrency test_fault_injection
    echo "==> concurrent suites [$preset]"
    ctest --preset "$preset" -R "$CONCURRENT_SUITES"
  done
  echo "==> service load benchmark [default]"
  cmake --preset default >/dev/null
  cmake --build --preset default -j "$JOBS" --target bench_service
  ./build/bench/bench_service BENCH_service.json
  # Generic plans: one template at many literal values must plan once and
  # return a fresh plan's rows every time.
  python3 - <<'EOF'
import json, sys

sweep = json.load(open("BENCH_service.json"))["literal_sweep"]
failures = []
if sweep["cache_hit_rate"] < 0.9:
    failures.append(f"literal sweep hit rate {sweep['cache_hit_rate']:.3f} "
                    "below 0.9")
if sweep["mismatches"] != 0:
    failures.append(f"{sweep['mismatches']} literal sweep result(s) differ "
                    "from a fresh plan's")
for f in failures:
    print("FAIL:", f)
sys.exit(1 if failures else 0)
EOF
  echo "OK: concurrent suites clean under asan-ubsan and tsan;"
  echo "    BENCH_service.json written, literal sweep gate passed"
  exit 0
fi

# Resilience gate: the chaos harness under both sanitizers — leaks under
# ASan, deadlocks/races under TSan, and the harness's own invariants
# (every ticket resolves, successes row-identical to serial execution,
# budget drains to zero) — then the seeded 64-session chaos benchmark,
# whose exit status enforces the same invariants at bench scale.
if [ "${1:-}" = "--chaos" ]; then
  JOBS="${2:-$(nproc)}"
  for preset in asan-ubsan tsan; do
    echo "==> configure [$preset]"
    cmake --preset "$preset" >/dev/null
    echo "==> build [$preset]"
    cmake --build --preset "$preset" -j "$JOBS" --target test_chaos
    echo "==> chaos harness [$preset]"
    ctest --preset "$preset" -R "test_chaos"
  done
  echo "==> chaos benchmark [default, 5 seeds x 64 sessions]"
  cmake --preset default >/dev/null
  cmake --build --preset default -j "$JOBS" --target bench_chaos
  ./build/bench/bench_chaos BENCH_chaos.json
  echo "OK: chaos harness clean under asan-ubsan and tsan; all seeded"
  echo "    invariants held; BENCH_chaos.json written"
  exit 0
fi

# Vectorization gate: the suites that pin batch execution to reference
# semantics — RowBatch/selection-vector/normalized-key kernels, the operator
# suite (every operator at batch sizes 1, 3 and 1024 against brute-force
# references), and the fuzz identity matrix — under address/UB sanitizers
# AND ThreadSanitizer (batches flow through the concurrent service workers
# too). Finishes with the Q3 batch-size sweep: every batch size must
# produce a row stream identical to batch_rows=1 (single-row batches through
# the same path), and batch 1024 (the default) must beat batch 1 by >= 1.5x
# exec time.
# Wall clock on a shared box is noisy and noise can only push the ratio
# down, so one passing attempt out of three proves the true speedup.
if [ "${1:-}" = "--batch" ]; then
  JOBS="${2:-$(nproc)}"
  BATCH_SUITES="test_row_batch|test_exec_operators|test_query_fuzz"
  for preset in asan-ubsan tsan; do
    echo "==> configure [$preset]"
    cmake --preset "$preset" >/dev/null
    echo "==> build [$preset]"
    cmake --build --preset "$preset" -j "$JOBS" \
      --target test_row_batch test_exec_operators test_query_fuzz
    echo "==> batch differential suites [$preset]"
    ctest --preset "$preset" -R "$BATCH_SUITES"
  done
  echo "==> batch-size sweep [default]"
  cmake --preset default >/dev/null
  cmake --build --preset default -j "$JOBS" --target bench_table1_q3
  BATCH_GATE_OK=0
  for attempt in 1 2 3; do
    if ! ./build/bench/bench_table1_q3 --batch-sweep --json=BENCH_batch.json |
      tail -n 10; then
      echo "FAIL: batch sweep reported a row-identity mismatch"
      exit 1
    fi
    if python3 - <<'EOF'
import json, sys

report = json.load(open("BENCH_batch.json"))

failures = []
if not report["rows_identical"]:
    failures.append("batch sizes are not row-identical to batch_rows=1")
by_size = {s["batch_rows"]: s for s in report["sizes"]}
if 1024 not in by_size:
    failures.append("sweep is missing the default batch size 1024")
else:
    speedup = by_size[1024]["speedup_vs_batch1"]
    if speedup < 1.5:
        failures.append(
            f"batch 1024 speedup {speedup:.2f}x vs batch 1 is below 1.5x")

if failures:
    for f in failures:
        print("    " + f)
    sys.exit(1)
print("    speedup vs batch 1: " + ", ".join(
    f"{s['batch_rows']}: {s['speedup_vs_batch1']:.2f}x"
    for s in report["sizes"]))
EOF
    then
      BATCH_GATE_OK=1
      break
    fi
    echo "    (attempt $attempt below target; retrying)"
  done
  if [ "$BATCH_GATE_OK" -ne 1 ]; then
    echo "FAIL: batch gate: 1024-row batches under 1.5x on 3 attempts"
    exit 1
  fi
  echo "OK: batch differential suites clean under asan-ubsan and tsan;"
  echo "    all batch sizes row-identical to batch 1; BENCH_batch.json"
  echo "    written"
  exit 0
fi

# Morsel-parallel gate: the parallel-determinism battery and the fuzz
# identity matrix (whose "parallel4" row runs every fuzzed query at 4
# workers) under address/UB sanitizers AND ThreadSanitizer — exchange
# workers, the shared morsel scheduler, and guard accounting are all
# cross-thread, so TSan is the gate that keeps them honest. Finishes with
# the parallel-worker sweep of Q3 (DB2/CS) and pricing (hash, aggregating
# in the workers): rows must be identical to serial and the wall-clock
# speedup must reach >= 1.8x at 4 workers on each query; the modeled
# critical-path speedup from per-thread CPU time (main thread + busiest
# worker) is reported beside it. Other load on the host can push the wall
# ratio down, so one passing attempt out of three proves the true value.
if [ "${1:-}" = "--parallel" ]; then
  JOBS="${2:-$(nproc)}"
  PARALLEL_SUITES="test_parallel_exec|test_query_fuzz"
  for preset in asan-ubsan tsan; do
    echo "==> configure [$preset]"
    cmake --preset "$preset" >/dev/null
    echo "==> build [$preset]"
    cmake --build --preset "$preset" -j "$JOBS" \
      --target test_parallel_exec test_query_fuzz
    echo "==> parallel suites [$preset]"
    ctest --preset "$preset" -R "$PARALLEL_SUITES"
  done
  echo "==> parallel-worker sweep [default]"
  cmake --preset default >/dev/null
  cmake --build --preset default -j "$JOBS" --target bench_table1_q3
  PARALLEL_GATE_OK=0
  for attempt in 1 2 3; do
    if ! ./build/bench/bench_table1_q3 --parallel-sweep \
      --json=BENCH_parallel.json | tail -n 18; then
      echo "FAIL: parallel sweep reported a row-identity mismatch"
      exit 1
    fi
    if python3 - <<'EOF'
import json, sys

report = json.load(open("BENCH_parallel.json"))

failures = []
if not report["rows_identical"]:
    failures.append("parallel runs are not row-identical to serial")
queries = {q["query"]: q for q in report["queries"]}
for name in ("tpcd_q3", "tpcd_pricing"):
    if name not in queries:
        failures.append(f"sweep is missing {name}")
        continue
    by_workers = {w["workers"]: w for w in queries[name]["workers"]}
    if 4 not in by_workers:
        failures.append(f"{name}: sweep is missing the 4-worker mode")
        continue
    speedup = by_workers[4]["wall_speedup"]
    if speedup < 1.8:
        failures.append(
            f"{name}: wall-clock speedup {speedup:.2f}x at 4 workers is "
            f"below 1.8x (modeled {by_workers[4]['modeled_speedup']:.2f}x)")
    if by_workers[4]["exchange_batches"] <= 0:
        failures.append(f"{name}: 4-worker run reports no exchange batches")

if failures:
    for f in failures:
        print("    " + f)
    sys.exit(1)
for q in report["queries"]:
    print(f"    {q['query']}: " + ", ".join(
        f"{w['workers']}w: {w['wall_speedup']:.2f}x wall "
        f"({w['modeled_speedup']:.2f}x modeled)"
        for w in q["workers"]) + "; rows identical to serial")
EOF
    then
      PARALLEL_GATE_OK=1
      break
    fi
    echo "    (attempt $attempt below target; retrying)"
  done
  if [ "$PARALLEL_GATE_OK" -ne 1 ]; then
    echo "FAIL: parallel gate: wall-clock speedup under 1.8x on 3 attempts"
    exit 1
  fi
  echo "OK: parallel battery clean under asan-ubsan and tsan; sweep rows"
  echo "    identical to serial and wall-clock speedup within target;"
  echo "    BENCH_parallel.json written"
  exit 0
fi

# Observability gate: the metrics suite under both sanitizers (histogram
# recording is lock-free and thread-sharded — TSan is the gate that keeps
# it honest), then the instrumentation-overhead benchmark. Overhead is
# wall-clock on a shared box, so like the trace gate it retries: noise
# only ever inflates the measurement, and one pass proves the true cost
# is within budget.
if [ "${1:-}" = "--metrics" ]; then
  JOBS="${2:-$(nproc)}"
  for preset in asan-ubsan tsan; do
    echo "==> configure [$preset]"
    cmake --preset "$preset" >/dev/null
    echo "==> build [$preset]"
    cmake --build --preset "$preset" -j "$JOBS" --target test_metrics
    echo "==> metrics suite [$preset]"
    ctest --preset "$preset" -R "test_metrics"
  done
  echo "==> metrics overhead benchmark [default, 64 sessions]"
  cmake --preset default >/dev/null
  cmake --build --preset default -j "$JOBS" --target bench_service
  METRICS_GATE_OK=0
  for attempt in 1 2 3; do
    ./build/bench/bench_service --metrics BENCH_metrics.json >/dev/null
    if python3 - <<'EOF'
import json, sys

report = json.load(open("BENCH_metrics.json"))

balance = report["balance"]
failures = []
if not balance["balanced"]:
    failures.append(f"counters do not balance: {balance}")
if balance["submitted"] != balance["admitted"] + balance["shed"]:
    failures.append("submitted != admitted + shed")
if balance["admitted"] != balance["completed"] + balance["failed"]:
    failures.append("admitted != completed + failed")

metrics = report["metrics"]
for section in ("counters", "gauges", "histograms"):
    if section not in metrics:
        failures.append(f"exported registry JSON missing {section!r}")
if metrics["counters"].get("service.submitted", 0) <= 0:
    failures.append("service.submitted counter missing or zero")

with open(report["timeseries"]) as ts:
    samples = [json.loads(line) for line in ts]
if len(samples) != report["reporter_samples"]:
    failures.append(
        f"time series has {len(samples)} lines, reporter counted "
        f"{report['reporter_samples']}")
if samples and "delta" not in samples[-1]:
    failures.append("time series samples missing delta section")

if report["overhead_pct"] >= 2.0:
    failures.append(
        f"instrumentation overhead {report['overhead_pct']:.2f}% >= 2%")

if failures:
    for f in failures:
        print("    " + f)
    sys.exit(1)
print(f"    overhead {report['overhead_pct']:.2f}% "
      f"(qps {report['baseline_qps']:.1f} -> {report['metrics_qps']:.1f}), "
      f"{report['reporter_samples']} time-series samples, counters balance")
EOF
    then
      METRICS_GATE_OK=1
      break
    fi
    echo "    (attempt $attempt failed the gate; retrying)"
  done
  if [ "$METRICS_GATE_OK" -ne 1 ]; then
    echo "FAIL: metrics gate: overhead/balance checks failed on 3 attempts"
    exit 1
  fi
  echo "OK: metrics suite clean under asan-ubsan and tsan; exported JSON"
  echo "    parses and balances; BENCH_metrics.json written"
  exit 0
fi

JOBS="${1:-$(nproc)}"

for preset in default asan-ubsan; do
  echo "==> configure [$preset]"
  cmake --preset "$preset" >/dev/null
  echo "==> build [$preset]"
  cmake --build --preset "$preset" -j "$JOBS"
  echo "==> test [$preset]"
  ctest --preset "$preset" -j "$JOBS"
done

# Fuzz matrix gate: the randomized query fuzzer (including its
# fault-injection suite) across several toy-database seeds, all with
# runtime order verification enabled — every plan's claimed order and key
# properties are checked row by row while the results are compared against
# the reference evaluator.
echo "==> fuzz matrix gate [default, ORDOPT_VERIFY_ORDERS=1]"
for seed in 7 99 1234 4242 90001; do
  echo "    db seed $seed"
  ORDOPT_FUZZ_DB_SEED="$seed" ORDOPT_VERIFY_ORDERS=1 \
    ./build/tests/test_query_fuzz >/dev/null
done

# Q3 under runtime order verification: the paper's flagship query must
# report zero order/key violations end to end.
echo "==> Q3 verify-orders gate [default]"
echo "select l_orderkey, sum(l_extendedprice * (1 - l_discount)) as rev, \
o_orderdate, o_shippriority from customer, orders, lineitem \
where o_orderkey = l_orderkey and c_custkey = o_custkey \
and c_mktsegment = 'building' and o_orderdate < date('1995-03-15') \
and l_shipdate > date('1995-03-15') \
group by l_orderkey, o_orderdate, o_shippriority \
order by rev desc, o_orderdate" |
  ORDOPT_VERIFY_ORDERS=1 ./build/examples/ordopt_shell 0.01 >/dev/null

# Spill-file leak gate: rerun the spill suite under sanitizers with a
# tiny sort budget and a private temp dir (via ORDOPT_TMPDIR); any
# ordopt-spill-* file left behind after the run is a cleanup bug.
echo "==> spill leak gate [asan-ubsan]"
SPILL_TMP="$(mktemp -d -t ordopt-leak-gate.XXXXXX)"
trap 'rm -rf "$SPILL_TMP"' EXIT
ORDOPT_TMPDIR="$SPILL_TMP" ./build-asan/tests/test_spill >/dev/null
ORDOPT_TMPDIR="$SPILL_TMP" ./build-asan/tests/test_fault_injection >/dev/null
LEAKED="$(find "$SPILL_TMP" -type f -name 'ordopt-spill-*' | wc -l)"
if [ "$LEAKED" -ne 0 ]; then
  echo "FAIL: $LEAKED spill file(s) leaked in $SPILL_TMP:"
  find "$SPILL_TMP" -name 'ordopt-spill-*'
  exit 1
fi

# Trace export gate: run a traced query through the shell and validate
# every emitted line is standalone JSON (the ORDOPT_TRACE contract for
# external consumers).
echo "==> trace export gate [default]"
TRACE_FILE="$SPILL_TMP/q.trace.jsonl"
echo "select c_custkey, c_name from customer order by c_custkey limit 5" |
  ORDOPT_TRACE="$TRACE_FILE" ./build/examples/ordopt_shell 0.01 >/dev/null
if [ ! -s "$TRACE_FILE" ]; then
  echo "FAIL: traced query produced no $TRACE_FILE"
  exit 1
fi
if command -v python3 >/dev/null; then
  while IFS= read -r line; do
    echo "$line" | python3 -m json.tool >/dev/null || {
      echo "FAIL: invalid JSON line in trace: $line"
      exit 1
    }
  done <"$TRACE_FILE"
  echo "    $(wc -l <"$TRACE_FILE") JSON lines valid"
else
  echo "    (python3 not found; JSON validation skipped)"
fi

# Trace overhead gate: optimizer-level tracing must cost < 2% wall clock
# on Q3 (the execution path is identical; only plan-time events differ).
# Wall-clock noise on a shared box only ever inflates the measurement, so
# a pass on any attempt shows the true overhead is within target; retry a
# few times before declaring a regression.
echo "==> trace overhead gate [default]"
TRACE_GATE_OK=0
for attempt in 1 2 3; do
  if ./build/bench/bench_table1_q3 --trace-overhead --runs=10 --sf=0.01 |
    tail -n 4; then
    TRACE_GATE_OK=1
    break
  fi
  echo "    (attempt $attempt exceeded target; retrying)"
done
if [ "$TRACE_GATE_OK" -ne 1 ]; then
  echo "FAIL: trace overhead gate: kOptimizer overhead >= 2% on 3 attempts"
  exit 1
fi

plan_bench_gate build/BENCH_plan.json

# The TPC-D suite benchmark (tpcdbench/) builds src/ through a CMake
# package of its own, which the builds above never compile. Build it and
# run its harness self-tests, so a change to an engine API the benchmark
# calls (ExecutePlan, OperatorStats, OpKind) fails here rather than at
# benchmark time.
echo "==> tpcdbench build + self-tests"
python3 tpcdbench/run.py --selftest
cmake --build "${CARGO_TARGET_DIR:-.bench_build}/tpcdbench" -j "$JOBS" \
  --target tpcd_bench

# Benchmark correctness smoke: a short run of three workloads, each of which
# checks every result against the disabled-baseline reference — an
# end-to-end oracle for the hash operators, the exchange, and (in
# olap_sort_serial, the only workload that runs SortGroupBy) in-sort
# aggregation.
echo "==> tpcdbench correctness smoke"
for workload in service_mixed olap_hash_par4 olap_sort_serial; do
  SMOKE=$(python3 tpcdbench/run.py --workload "$workload" --seconds 2 \
    --trace 0 | tail -n 1)
  python3 - "$workload" "$SMOKE" <<'EOF'
import json, sys

name, line = sys.argv[1], sys.argv[2]
result = json.loads(line)
if result.get("correct") is not True or result.get("failed") != 0:
    print(f"FAIL: {name}: correct={result.get('correct')} "
          f"failed={result.get('failed')}")
    sys.exit(1)
print(f"    {name}: correct, {result['attempted']} attempted, 0 failed")
EOF
done

echo "OK: both configurations build and pass; fuzz matrix and Q3 clean"
echo "    under runtime order verification; no spill files leaked; trace"
echo "    export valid and within overhead budget; planning time within"
echo "    the recorded baseline; the TPC-D suite benchmark builds, its"
echo "    self-tests pass, and its smoke runs match the reference results."

# Source size, by the rule every size figure in CHANGES.md uses.
echo "==> source size (non-blank, non-comment .cc/.h lines)"
scripts/src_lines.sh
