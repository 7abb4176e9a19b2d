#ifndef ORDOPT_SERVICE_RESILIENCE_H_
#define ORDOPT_SERVICE_RESILIENCE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>

#include "common/metrics.h"
#include "common/retry.h"
#include "common/status.h"
#include "exec/query_guard.h"

namespace ordopt {

/// Infrastructure fault domains the service tracks independently: a flaky
/// disk under the spill directory must not take index scans with it, and a
/// poisoned planner path must not block cached executions. Failures that
/// say nothing about shared infrastructure health — user errors, per-query
/// guard trips, cancellations — classify as kNone and feed no breaker.
enum class FaultDomain {
  kStorage = 0,  ///< base-table access: B+-tree reads, CSV ingestion
  kSpill = 1,    ///< external-sort run files: write/read/merge/cleanup
  kPlanner = 2,  ///< plan construction
  kNone = 3,     ///< unclassified (user error, guard trip, unknown site)
};

inline constexpr int kNumFaultDomains = 3;

/// Maps a failed Status onto the domain whose breaker should see it. Only
/// kIoError and kInternal failures are infrastructure-shaped; the domain
/// is recovered from the failure message's probe-site vocabulary
/// ("spill", "storage.", "planner.") — the same names ORDOPT_FAULTS arms.
FaultDomain ClassifyFaultDomain(const Status& status);

const char* FaultDomainName(FaultDomain domain);

/// Circuit-breaker tuning shared by every domain.
struct BreakerConfig {
  /// Failures within the rolling window that trip the breaker open;
  /// <= 0 disables breakers entirely (Allow always passes).
  int failure_threshold = 5;
  /// Rolling window the threshold counts over.
  double window_seconds = 10.0;
  /// Cooldown after a trip before the breaker half-opens and lets one
  /// probe query through.
  double open_seconds = 0.25;
};

enum class BreakerState { kClosed, kOpen, kHalfOpen };

/// Per-fault-domain circuit breaker: trips open after
/// `failure_threshold` failures inside `window_seconds`, fast-fails every
/// request for `open_seconds`, then half-opens and admits exactly one
/// probe — a successful probe closes the breaker, a failed one re-opens
/// it. Thread-safe; the closed-state fast path is one relaxed atomic load.
class CircuitBreaker {
 public:
  CircuitBreaker() = default;
  explicit CircuitBreaker(BreakerConfig config) : config_(config) {}

  /// Admission decision. True → the request may run; `*probe` is set when
  /// this request is the half-open probe (the caller must report its
  /// outcome with the probe flag). False → fast-fail with kUnavailable.
  bool Allow(bool* probe);

  /// The request finished OK. Only meaningful work happens for probes
  /// (closing a half-open breaker); closed-state successes are free.
  void OnSuccess(bool probe);

  /// The request failed *in this breaker's domain*.
  void OnFailure(bool probe);

  /// The probe carrier failed for an unrelated reason (another domain, a
  /// guard trip): the probe token goes back so the next request re-probes.
  void OnProbeInconclusive();

  BreakerState state() const {
    return state_.load(std::memory_order_relaxed);
  }
  /// Times the breaker has tripped open.
  int64_t trips() const { return trips_.load(std::memory_order_relaxed); }
  /// Requests fast-failed while open (or while a probe was in flight).
  int64_t rejections() const {
    return rejections_.load(std::memory_order_relaxed);
  }

  /// Attaches an open-duration histogram: when the breaker re-closes after
  /// a trip, the microseconds the whole open episode lasted (first trip
  /// through probe success, including half-open re-trips) are recorded.
  /// `open_duration_us` must outlive the breaker; null detaches.
  void AttachMetrics(Histogram* open_duration_us);

 private:
  using Clock = std::chrono::steady_clock;

  /// Called with mu_ held.
  void TripLocked(Clock::time_point now);

  BreakerConfig config_;
  mutable std::mutex mu_;
  std::atomic<BreakerState> state_{BreakerState::kClosed};
  Clock::time_point open_until_{};
  bool probe_in_flight_ = false;
  std::deque<Clock::time_point> failures_;
  std::atomic<int64_t> trips_{0};
  std::atomic<int64_t> rejections_{0};
  /// Open-episode tracking for the attached histogram (guarded by mu_):
  /// an episode starts at the closed->open trip and ends when a probe
  /// success re-closes the breaker.
  Histogram* open_duration_us_ = nullptr;
  bool open_episode_ = false;
  Clock::time_point opened_at_{};
};

/// Failure-handling policy for one QueryService instance.
struct ResilienceConfig {
  /// Service-level retry: a query that fails with a transient status
  /// (kIoError — e.g. spill I/O that exhausted its own low-level RetryIo
  /// attempts) is re-admitted to the back of the queue, up to
  /// retry.max_attempts total tries, with retry's deterministic backoff
  /// between attempts.
  bool enable_retry = true;
  RetryPolicy retry;
  /// Per-fault-domain circuit breakers (storage / spill / planner).
  BreakerConfig breaker;
  /// Degraded-mode high-water mark: when the shared memory budget's
  /// occupancy reaches this fraction of its limit, new admissions run
  /// degraded — reduced sort budget (spill earlier) and plan-cache writes
  /// disabled — instead of waiting to be shed at full commitment.
  /// <= 0 disables; also inert when the budget is unlimited.
  double degraded_high_water = 0.85;
  /// Multiplier applied to cost_params.sort_memory_rows for degraded
  /// admissions (clamped to >= 16 rows).
  double degraded_sort_budget_factor = 0.25;
};

/// The QueryService's failure-policy brain: owns the three domain
/// breakers, decides degraded-mode admission from budget occupancy, and
/// centralizes the retry and plan-quarantine predicates so every layer
/// applies the same rules. Thread-safe.
class ResilienceManager {
 public:
  ResilienceManager(ResilienceConfig config, const SharedMemoryBudget* budget)
      : config_(config),
        budget_(budget),
        breakers_{CircuitBreaker(config.breaker), CircuitBreaker(config.breaker),
                  CircuitBreaker(config.breaker)} {}

  /// Execution gate, consulted when a worker picks a query up. OK → run,
  /// with `*probe_mask` carrying one bit per half-open domain this query
  /// probes (pass it back to OnQueryOutcome). kUnavailable → fast-fail
  /// without executing.
  Status AdmitExecution(uint32_t* probe_mask);

  /// Reports a finished query: classifies a failure onto its domain's
  /// breaker, settles any probe tokens, and returns the charged domain
  /// (kNone for success or unclassified failures).
  FaultDomain OnQueryOutcome(const Status& status, uint32_t probe_mask);

  /// True when new admissions should run degraded (budget occupancy at or
  /// over the high-water mark).
  bool InDegradedMode() const;

  /// True when a failed query should be re-admitted: retry is enabled,
  /// the status is transient, and tries remain (`attempts_so_far` counts
  /// completed tries including the first).
  bool ShouldRetry(const Status& status, int attempts_so_far) const {
    return config_.enable_retry && IsTransient(status) &&
           attempts_so_far < std::max(1, config_.retry.max_attempts);
  }

  /// The quarantine rule: a cached plan whose execution failed for a
  /// reason that is neither transient nor attributable to the caller
  /// (cancel, deadline, resource limits) is presumed poisoned — evict it
  /// and refuse to re-serve the key for the current stats epoch.
  static bool ShouldQuarantine(const Status& status) {
    if (status.ok()) return false;
    switch (status.code()) {
      case StatusCode::kIoError:            // transient: retry, don't blame
      case StatusCode::kCancelled:          // caller's decision
      case StatusCode::kTimeout:            // caller's deadline
      case StatusCode::kResourceExhausted:  // caller's limits / shared pool
      case StatusCode::kUnavailable:        // breaker fast-fail
      case StatusCode::kOutOfRange:         // the data's total, not the plan
        return false;
      default:
        return true;
    }
  }

  /// Registers this manager's observability on `registry`: per-domain
  /// callback gauges `breaker.<domain>.state` (0 closed / 1 open / 2
  /// half-open), `.trips`, and `.rejections`, plus a
  /// `breaker.<domain>.open_duration_us` histogram fed by each breaker
  /// when an open episode ends. Call once; the manager must outlive every
  /// Snap of the registry.
  void AttachMetrics(MetricsRegistry* registry);

  const RetryPolicy& retry_policy() const { return config_.retry; }
  const ResilienceConfig& config() const { return config_; }
  const CircuitBreaker& breaker(FaultDomain domain) const {
    return breakers_[static_cast<int>(domain)];
  }
  /// Breaker trips summed over all domains.
  int64_t total_trips() const;
  /// Requests fast-failed by any breaker.
  int64_t total_rejections() const;

 private:
  const ResilienceConfig config_;
  const SharedMemoryBudget* budget_;
  CircuitBreaker breakers_[kNumFaultDomains];
};

}  // namespace ordopt

#endif  // ORDOPT_SERVICE_RESILIENCE_H_
