#include "service/plan_cache.h"

#include <chrono>
#include <utility>

#include "parser/parser.h"

namespace ordopt {

PlanCache::PlanCache(size_t capacity, MetricsRegistry* registry)
    : capacity_(capacity) {
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<MetricsRegistry>();
    registry = owned_registry_.get();
  }
  metrics_ = registry;
  c_hits_ = registry->GetCounter("plan_cache.hits");
  c_misses_ = registry->GetCounter("plan_cache.misses");
  c_evictions_ = registry->GetCounter("plan_cache.evictions");
  c_invalidations_ = registry->GetCounter("plan_cache.invalidations");
  c_stampede_waits_ = registry->GetCounter("plan_cache.stampede_waits");
  c_custom_plans_ = registry->GetCounter("plan_cache.custom_plans");
  c_quarantined_ = registry->GetCounter("plan_cache.quarantined");
  c_quarantine_rejections_ =
      registry->GetCounter("plan_cache.quarantine_rejections");
  h_stampede_wait_us_ = registry->GetHistogram("plan_cache.stampede_wait_us");
  registry->RegisterCallbackGauge(
      "plan_cache.entries", [this] { return static_cast<int64_t>(size()); });
}

PlanCache::~PlanCache() {
  metrics_->UnregisterCallbackGauge("plan_cache.entries");
}

std::shared_ptr<const PreparedPlan> PlanCache::GetOrBeginPlanning(
    const std::string& sql, uint64_t stats_epoch) {
  std::string key = ParameterizeQueryText(sql);
  std::unique_lock<std::mutex> lock(mu_);
  bool counted_wait = false;
  std::chrono::steady_clock::time_point wait_start;
  // Time a lookup spent blocked on another thread's in-flight planning;
  // recorded only for lookups that actually waited, so the fast paths
  // never read a clock.
  auto record_wait = [&] {
    if (!counted_wait) return;
    h_stampede_wait_us_->Record(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - wait_start)
            .count());
  };
  while (true) {
    if (QuarantinedLocked(key, stats_epoch)) {
      // Quarantined: no entry is served and no planner is elected (a
      // marker would obligate a Publish that Quarantine refuses). Every
      // caller plans fresh until the epoch moves on.
      c_quarantine_rejections_->Increment();
      c_misses_->Increment();
      record_wait();
      return nullptr;
    }
    auto it = slots_.find(key);
    if (it == slots_.end()) {
      // Caller becomes the planner. The in-flight marker is invisible to
      // the LRU (it holds no plan yet).
      Slot slot;
      slot.stats_epoch = stats_epoch;
      slot.planning = true;
      slots_.emplace(key, std::move(slot));
      c_misses_->Increment();
      record_wait();
      return nullptr;
    }
    Slot& slot = it->second;
    if (!slot.planning) {
      if (slot.stats_epoch != stats_epoch) {
        // The statistics moved under the cached plan: drop it and take
        // the planner role for the new epoch.
        c_invalidations_->Increment();
        if (slot.in_lru) lru_.erase(slot.lru_pos);
        slots_.erase(it);
        continue;
      }
      c_hits_->Increment();
      TouchLocked(&slot, key);
      record_wait();
      return slot.plan;
    }
    // A planner is in flight (possibly under an older epoch — its result
    // will be checked when it lands). Wait for it to resolve.
    if (!counted_wait) {
      c_stampede_waits_->Increment();
      counted_wait = true;
      wait_start = std::chrono::steady_clock::now();
    }
    int64_t seen_generation = slot.generation;
    cv_.wait(lock, [&] {
      auto cur = slots_.find(key);
      return cur == slots_.end() || !cur->second.planning ||
             cur->second.generation != seen_generation;
    });
  }
}

std::shared_ptr<const PreparedPlan> PlanCache::Peek(
    const std::string& sql, uint64_t stats_epoch) const {
  std::string key = ParameterizeQueryText(sql);
  std::lock_guard<std::mutex> lock(mu_);
  if (QuarantinedLocked(key, stats_epoch)) return nullptr;
  auto it = slots_.find(key);
  if (it == slots_.end() || it->second.planning ||
      it->second.stats_epoch != stats_epoch) {
    return nullptr;
  }
  return it->second.plan;
}

void PlanCache::Publish(const std::string& sql, uint64_t stats_epoch,
                        PreparedPlan plan) {
  std::string key = ParameterizeQueryText(sql);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (QuarantinedLocked(key, stats_epoch)) {
      // Refused. Resolve a leftover planning marker anyway (a planner
      // elected just before the quarantine landed must not strand its
      // waiters — they wake, see the quarantine, and plan themselves).
      c_quarantine_rejections_->Increment();
      auto it = slots_.find(key);
      if (it != slots_.end() && it->second.planning) slots_.erase(it);
    } else {
      auto it = slots_.find(key);
      if (it == slots_.end()) return;  // Clear() raced the planner; drop it
      Slot& slot = it->second;
      slot.plan = std::make_shared<const PreparedPlan>(std::move(plan));
      slot.stats_epoch = stats_epoch;
      slot.planning = false;
      if (capacity_ == 0) {
        // Caching disabled: resolve waiters, keep nothing.
        slots_.erase(it);
      } else {
        TouchLocked(&slot, key);
        EvictIfOverCapacityLocked();
      }
    }
  }
  cv_.notify_all();
}

void PlanCache::Abandon(const std::string& sql, uint64_t stats_epoch) {
  (void)stats_epoch;
  std::string key = ParameterizeQueryText(sql);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = slots_.find(key);
    if (it == slots_.end() || !it->second.planning) return;
    // Erase the marker; the first waiter to wake re-misses and becomes
    // the next planner.
    ++it->second.generation;
    slots_.erase(it);
  }
  cv_.notify_all();
}

void PlanCache::Quarantine(const std::string& sql, uint64_t stats_epoch) {
  std::string key = ParameterizeQueryText(sql);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto q = quarantine_.find(key);
    if (q == quarantine_.end() || q->second != stats_epoch) {
      quarantine_[key] = stats_epoch;
      c_quarantined_->Increment();
    }
    // Evict the resident entry now; in-flight markers are left to their
    // planners (their Publish will be refused and will resolve waiters).
    auto it = slots_.find(key);
    if (it != slots_.end() && !it->second.planning) {
      if (it->second.in_lru) lru_.erase(it->second.lru_pos);
      slots_.erase(it);
    }
  }
}

void PlanCache::Clear() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = slots_.begin(); it != slots_.end();) {
      if (it->second.planning) {
        ++it;  // leave in-flight markers to their planners
      } else {
        if (it->second.in_lru) lru_.erase(it->second.lru_pos);
        it = slots_.erase(it);
      }
    }
    quarantine_.clear();
  }
  cv_.notify_all();
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

PlanCacheStats PlanCache::stats() const {
  MetricsSnapshot snap = metrics_->Snap();
  PlanCacheStats s;
  s.hits = snap.CounterValue("plan_cache.hits");
  s.misses = snap.CounterValue("plan_cache.misses");
  s.evictions = snap.CounterValue("plan_cache.evictions");
  s.invalidations = snap.CounterValue("plan_cache.invalidations");
  s.stampede_waits = snap.CounterValue("plan_cache.stampede_waits");
  s.custom_plans = snap.CounterValue("plan_cache.custom_plans");
  s.quarantined = snap.CounterValue("plan_cache.quarantined");
  s.quarantine_rejections =
      snap.CounterValue("plan_cache.quarantine_rejections");
  return s;
}

double PlanCache::HitRate() const {
  PlanCacheStats s = stats();
  int64_t lookups = s.hits + s.misses;
  return lookups == 0 ? 0.0
                      : static_cast<double>(s.hits) /
                            static_cast<double>(lookups);
}

void PlanCache::TouchLocked(Slot* slot, const std::string& key) {
  if (slot->in_lru) lru_.erase(slot->lru_pos);
  lru_.push_front(key);
  slot->lru_pos = lru_.begin();
  slot->in_lru = true;
}

void PlanCache::EvictIfOverCapacityLocked() {
  while (lru_.size() > capacity_) {
    const std::string& victim = lru_.back();
    auto it = slots_.find(victim);
    if (it != slots_.end()) slots_.erase(it);
    lru_.pop_back();
    c_evictions_->Increment();
  }
}

bool PlanCache::QuarantinedLocked(const std::string& key,
                                  uint64_t stats_epoch) const {
  auto it = quarantine_.find(key);
  if (it == quarantine_.end()) return false;
  if (it->second == stats_epoch) return true;
  // The epoch moved on: statistics changed, a fresh plan is a different
  // plan — the quarantine has served its purpose.
  quarantine_.erase(it);
  return false;
}

}  // namespace ordopt
