#ifndef ORDOPT_SERVICE_PLAN_CACHE_H_
#define ORDOPT_SERVICE_PLAN_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "exec/engine.h"

namespace ordopt {

/// Counter snapshot of one cache's lifetime behavior.
struct PlanCacheStats {
  int64_t hits = 0;          ///< lookups served an entry (planning skipped)
  int64_t misses = 0;        ///< lookups that made the caller the planner
  int64_t evictions = 0;     ///< entries dropped by the LRU capacity bound
  int64_t invalidations = 0; ///< entries dropped for a stale stats epoch
  int64_t stampede_waits = 0;///< lookups that blocked on an in-flight plan
  /// Always 0: a cached plan serves every literal value of its template.
  /// Kept only because the suite benchmark reads it.
  int64_t literal_evictions = 0;
  /// Hits whose request the entry could not serve (RecordCustomPlan): a
  /// slot's type or the equality pattern among slots differed, or a
  /// selectivity moved too far, so the request was planned fresh.
  int64_t custom_plans = 0;
  /// Quarantine calls that newly quarantined a template.
  int64_t quarantined = 0;
  /// Lookups and publishes refused because the template is quarantined
  /// for the current stats epoch.
  int64_t quarantine_rejections = 0;
};

/// Fingerprint-keyed cache of optimized plans shared by every session of a
/// QueryService. The key is the *parameterized* query text
/// (ParameterizeQueryText: the token spelling with each literal slot
/// spelled `?`), so "price > 24" and "price>25" share one entry, and the
/// entry is a *generic plan*: QueryEngine::RunPrepared binds each
/// request's literals into a per-execution copy of it. That is sound
/// because no order, key or FD property of a plan depends on a literal's
/// value (§4.1: `col = const` yields `{} -> {col}` whatever the constant);
/// only cost does, and the engine plans a request fresh (a *custom plan*,
/// never published) when its literals are not provably served by the
/// entry — see DESIGN.md §11. Each slot is also stamped with the Database
/// stats epoch it was planned under, and a lookup whose epoch differs
/// drops the stale entry on the spot — the reduce cache's
/// epoch-invalidation rule lifted from Reduce/Test results to whole plans
/// (see Database::stats_epoch). Capacity is bounded with LRU eviction.
///
/// Stampede control: the first thread to miss on a key becomes its
/// *planner* (GetOrBeginPlanning returns nullptr) and must finish with
/// Publish or Abandon; concurrent lookups of the same key block until the
/// planner resolves instead of all re-planning the same query. If the
/// planner abandons (its query failed), one waiter is promoted to planner
/// and the rest keep waiting — so a failing query is re-tried by each
/// caller (it may fail for per-session reasons) but never planned twice
/// concurrently.
///
/// Quarantine: when a *cached* plan's execution fails non-transiently the
/// service calls Quarantine, which evicts the entry and blacklists the
/// template for the stats epoch it failed under — lookups miss (callers
/// replan fresh every time) and publishes are refused until the epoch
/// moves on. This keeps one poisoned plan from being re-served to every
/// session while statistics (and therefore plan choice) are unchanged.
///
/// All methods are thread-safe.
class PlanCache {
 public:
  /// `capacity` = max ready entries; 0 disables caching (every
  /// GetOrBeginPlanning returns planner-role and Publish drops the entry).
  /// With `registry`, the cache records its counters there (names
  /// `plan_cache.*`) plus a `plan_cache.entries` callback gauge and a
  /// `plan_cache.stampede_wait_us` histogram of time lookups spent blocked
  /// on an in-flight planner; the registry must outlive the cache. Without
  /// one the cache owns a private registry, so stats() always reads from
  /// one consistent snapshot either way.
  explicit PlanCache(size_t capacity, MetricsRegistry* registry = nullptr);
  ~PlanCache();

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Looks up `sql` (parameterizing internally) under `stats_epoch`.
  /// Returns the ready entry on a hit (same template, same epoch, not
  /// quarantined), whatever the request's literal values. Returns nullptr
  /// when the caller has been elected planner for this key: the caller
  /// MUST later call exactly one of Publish (success) or Abandon
  /// (failure), or every future lookup of the key will block forever. (Quarantined lookups also return nullptr
  /// without creating a marker — Publish/Abandon stay safe to call and
  /// are simply refused.)
  std::shared_ptr<const PreparedPlan> GetOrBeginPlanning(
      const std::string& sql, uint64_t stats_epoch);

  /// Non-blocking peek: the ready entry, or nullptr (never elects a
  /// planner, counts neither hit nor miss). The degraded-mode read path —
  /// a hit costs nothing and a miss creates no publish obligation.
  std::shared_ptr<const PreparedPlan> Peek(const std::string& sql,
                                           uint64_t stats_epoch) const;

  /// Publishes the planner's result for `sql` and wakes waiters.
  void Publish(const std::string& sql, uint64_t stats_epoch,
               PreparedPlan plan);

  /// Gives up the planner role for `sql` (the query failed before a plan
  /// existed); one waiter, if any, is promoted to planner.
  void Abandon(const std::string& sql, uint64_t stats_epoch);

  /// Evicts `sql`'s entry and refuses to cache its template again while
  /// the database is still at `stats_epoch` (the epoch the failure was
  /// observed under). Idempotent.
  void Quarantine(const std::string& sql, uint64_t stats_epoch);

  /// Counts a hit whose request was planned fresh instead of served (see
  /// PlanCacheStats::custom_plans).
  void RecordCustomPlan() { c_custom_plans_->Increment(); }

  /// Drops every ready entry (in-flight markers are left to their
  /// planners) and all quarantine marks.
  void Clear();

  size_t capacity() const { return capacity_; }
  /// Ready entries currently resident.
  size_t size() const;
  /// One registry snapshot — every counter is read from the same pass, so
  /// derived relations (hits + misses = lookups) never tear against each
  /// other the way independently-read atomics could.
  PlanCacheStats stats() const;
  /// hits / (hits + misses), 0 when nothing was looked up.
  double HitRate() const;

 private:
  struct Slot {
    /// nullptr while a planner is in flight; set by Publish.
    std::shared_ptr<const PreparedPlan> plan;
    uint64_t stats_epoch = 0;
    bool planning = true;
    /// Planner generation: bumped on Abandon so waiters can tell "my
    /// planner resolved" from spurious wakeups.
    int64_t generation = 0;
    /// LRU position, valid only for ready (published) slots.
    std::list<std::string>::iterator lru_pos;
    bool in_lru = false;
  };

  // All called with mu_ held.
  void TouchLocked(Slot* slot, const std::string& key);
  void EvictIfOverCapacityLocked();
  bool QuarantinedLocked(const std::string& key, uint64_t stats_epoch) const;

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<std::string, Slot> slots_;
  /// Most-recently-used keys at the front; only ready slots are listed.
  std::list<std::string> lru_;
  /// Template -> stats epoch it was quarantined under. Entries for old
  /// epochs are dropped lazily on lookup.
  mutable std::unordered_map<std::string, uint64_t> quarantine_;

  /// Fallback registry when the caller supplied none (standalone caches in
  /// tests); metrics_ points at it or at the caller's.
  std::unique_ptr<MetricsRegistry> owned_registry_;
  MetricsRegistry* metrics_ = nullptr;
  Counter* c_hits_ = nullptr;
  Counter* c_misses_ = nullptr;
  Counter* c_evictions_ = nullptr;
  Counter* c_invalidations_ = nullptr;
  Counter* c_stampede_waits_ = nullptr;
  Counter* c_custom_plans_ = nullptr;
  Counter* c_quarantined_ = nullptr;
  Counter* c_quarantine_rejections_ = nullptr;
  Histogram* h_stampede_wait_us_ = nullptr;
};

}  // namespace ordopt

#endif  // ORDOPT_SERVICE_PLAN_CACHE_H_
