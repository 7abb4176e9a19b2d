#include "service/query_service.h"

#include <algorithm>
#include <utility>

#include "common/retry.h"
#include "common/str_util.h"

namespace ordopt {

const Result<QueryResult>& QueryTicket::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return done_; });
  return result_;
}

bool QueryTicket::done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_;
}

void QueryTicket::Complete(Result<QueryResult> result) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    result_ = std::move(result);
    done_ = true;
  }
  cv_.notify_all();
}

QueryService::QueryService(Database* db, ServiceConfig config)
    : db_(db),
      config_(config),
      plan_cache_(config.plan_cache_capacity, &metrics_),
      budget_(config.global_budget_bytes),
      resilience_(config.resilience, &budget_) {
  c_submitted_ = metrics_.GetCounter("service.submitted");
  c_admitted_ = metrics_.GetCounter("service.admitted");
  c_shed_queue_full_ = metrics_.GetCounter("service.shed_queue_full");
  c_shed_session_cap_ = metrics_.GetCounter("service.shed_session_cap");
  c_shed_budget_ = metrics_.GetCounter("service.shed_budget");
  c_completed_ = metrics_.GetCounter("service.completed");
  c_failed_ = metrics_.GetCounter("service.failed");
  c_retried_ = metrics_.GetCounter("service.retried");
  c_breaker_rejected_ = metrics_.GetCounter("service.breaker_rejected");
  c_degraded_ = metrics_.GetCounter("service.degraded");
  c_quarantined_ = metrics_.GetCounter("service.quarantined");

  degraded_engine_config_ = config_.engine_config;
  degraded_engine_config_.degraded_mode = true;
  degraded_engine_config_.cost_params.sort_memory_rows = std::max<int64_t>(
      16, static_cast<int64_t>(
              static_cast<double>(
                  config_.engine_config.cost_params.sort_memory_rows) *
              config_.resilience.degraded_sort_budget_factor));
  worker_engine_config_ = config_.engine_config;

  if (config_.enable_metrics) {
    h_queue_wait_us_ = metrics_.GetHistogram("service.queue_wait_us");
    h_latency_ok_us_ = metrics_.GetHistogram("service.latency_ok_us");
    h_latency_failed_us_ = metrics_.GetHistogram("service.latency_failed_us");
    g_inflight_ = metrics_.GetGauge("service.inflight");
    metrics_.RegisterCallbackGauge("service.queue_depth", [this] {
      return static_cast<int64_t>(queue_depth());
    });
    metrics_.RegisterCallbackGauge("service.degraded_mode", [this] {
      return resilience_.InDegradedMode() ? int64_t{1} : int64_t{0};
    });
    metrics_.RegisterCallbackGauge("budget.used_bytes",
                                   [this] { return budget_.used_bytes(); });
    metrics_.RegisterCallbackGauge("budget.peak_bytes",
                                   [this] { return budget_.peak_bytes(); });
    metrics_.RegisterCallbackGauge("budget.limit_bytes",
                                   [this] { return budget_.limit_bytes(); });
    metrics_.RegisterCallbackGauge("budget.rejections",
                                   [this] { return budget_.rejections(); });
    resilience_.AttachMetrics(&metrics_);
    worker_engine_config_.metrics = &metrics_;
    degraded_engine_config_.metrics = &metrics_;
  }

  int workers = std::max(1, config_.workers);
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryService::~QueryService() { Shutdown(); }

int64_t QueryService::OpenSession() {
  return OpenSession(config_.default_limits);
}

int64_t QueryService::OpenSession(QueryLimits limits) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  int64_t id = next_session_id_++;
  Session& session = sessions_[id];
  session.limits = limits;
  return id;
}

void QueryService::CloseSession(int64_t session_id) {
  std::vector<std::weak_ptr<QueryTicket>> to_cancel;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end() || !it->second.open) return;
    it->second.open = false;
    to_cancel = std::move(it->second.tickets);
    it->second.tickets.clear();
  }
  // Cancel outside the lock: RequestCancel is a relaxed store, but a
  // worker completing a ticket takes sessions_mu_ in FinishTicket.
  for (const std::weak_ptr<QueryTicket>& weak : to_cancel) {
    if (TicketRef ticket = weak.lock()) ticket->Cancel();
  }
}

Result<TicketRef> QueryService::Submit(int64_t session_id,
                                       const std::string& sql) {
  c_submitted_->Increment();

  // Admission gate 1: global memory budget fully committed. Checked before
  // touching the session so an exhausted pool sheds uniformly.
  if (budget_.Exhausted()) {
    c_shed_budget_->Increment();
    return Status::ResourceExhausted(StrFormat(
        "global memory budget exhausted: %lld/%lld bytes committed",
        static_cast<long long>(budget_.used_bytes()),
        static_cast<long long>(budget_.limit_bytes())));
  }

  // Admission gate 2: session exists, is open, and is under its in-flight
  // cap. The in-flight count is reserved here and released in
  // FinishTicket, so the cap covers queued + running.
  QueryLimits limits;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end() || !it->second.open) {
      return Status::NotFound(
          StrFormat("session %lld is not open",
                    static_cast<long long>(session_id)));
    }
    Session& session = it->second;
    if (config_.max_inflight_per_session > 0 &&
        session.inflight >= config_.max_inflight_per_session) {
      c_shed_session_cap_->Increment();
      return Status::ResourceExhausted(
          StrFormat("session %lld at its in-flight limit (%d)",
                    static_cast<long long>(session_id),
                    config_.max_inflight_per_session));
    }
    ++session.inflight;
    limits = session.limits;
  }

  TicketRef ticket(new QueryTicket(
      next_ticket_id_.fetch_add(1, std::memory_order_relaxed), session_id,
      sql, limits));
  ticket->guard_.set_shared_budget(&budget_);
  // The ticket id doubles as the query's end-to-end correlation id: the
  // guard carries it to the engine, which stamps it on the result, every
  // trace event, and the EXPLAIN ANALYZE summary. It survives
  // ResetForRetry, so all attempts of one ticket share one id.
  ticket->guard_.set_query_id(ticket->id());

  // Admission gate 3: bounded queue — shed, never block.
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_) {
      ReleaseSessionSlot(session_id, /*ticket=*/nullptr);
      return Status::Cancelled("query service is shut down");
    }
    size_t bound = std::max<size_t>(1, config_.queue_depth);
    if (queue_.size() >= bound) {
      ReleaseSessionSlot(session_id, /*ticket=*/nullptr);
      c_shed_queue_full_->Increment();
      return Status::ResourceExhausted(
          StrFormat("admission queue full (%lld queries queued)",
                    static_cast<long long>(queue_.size())));
    }
    queue_.push_back(ticket);
  }
  queue_cv_.notify_one();

  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    auto it = sessions_.find(session_id);
    if (it != sessions_.end()) {
      it->second.tickets.push_back(ticket);
      // Prune dead weak_ptrs so a long-lived session's vector stays
      // proportional to its in-flight count.
      if (it->second.tickets.size() >
          static_cast<size_t>(it->second.inflight) * 2 + 8) {
        auto& v = it->second.tickets;
        v.erase(std::remove_if(v.begin(), v.end(),
                               [](const std::weak_ptr<QueryTicket>& w) {
                                 return w.expired();
                               }),
                v.end());
      }
    }
  }

  c_admitted_->Increment();
  return ticket;
}

Result<QueryResult> QueryService::Execute(int64_t session_id,
                                          const std::string& sql) {
  ORDOPT_ASSIGN_OR_RETURN(TicketRef ticket, Submit(session_id, sql));
  return ticket->Wait();
}

void QueryService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  // Second and later calls find every worker already joined.
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

ServiceStats QueryService::stats() const {
  MetricsSnapshot snap = metrics_.Snap();
  ServiceStats s;
  s.submitted = snap.CounterValue("service.submitted");
  s.admitted = snap.CounterValue("service.admitted");
  s.shed_queue_full = snap.CounterValue("service.shed_queue_full");
  s.shed_session_cap = snap.CounterValue("service.shed_session_cap");
  s.shed_budget = snap.CounterValue("service.shed_budget");
  s.completed = snap.CounterValue("service.completed");
  s.failed = snap.CounterValue("service.failed");
  s.retried = snap.CounterValue("service.retried");
  s.breaker_rejected = snap.CounterValue("service.breaker_rejected");
  s.degraded = snap.CounterValue("service.degraded");
  s.quarantined = snap.CounterValue("service.quarantined");
  return s;
}

size_t QueryService::queue_depth() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return queue_.size();
}

void QueryService::WorkerLoop() {
  // Engine-per-worker: no shared mutable engine state, so workers only
  // meet at the queue, the plan cache, the budget, the breakers, and the
  // (sharded, relaxed-atomic) metrics registry.
  WorkerState state(db_, worker_engine_config_);
  while (true) {
    TicketRef ticket;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      ticket = std::move(queue_.front());
      queue_.pop_front();
    }
    RunTicket(&state, ticket);
  }
}

void QueryService::RunTicket(WorkerState* state, const TicketRef& ticket) {
  auto picked_up = std::chrono::steady_clock::now();
  if (ticket->attempts_ == 0) {
    ticket->queued_seconds_ =
        std::chrono::duration<double>(picked_up - ticket->submit_time_)
            .count();
    if (h_queue_wait_us_ != nullptr) {
      h_queue_wait_us_->Record(
          static_cast<int64_t>(ticket->queued_seconds_ * 1e6));
    }
  }

  // A cancel that lands while the query is still queued skips execution
  // (and planning) entirely.
  if (ticket->guard_.cancel_requested()) {
    FinishTicket(*ticket, /*ok=*/false);
    ticket->Complete(Status::Cancelled("query cancelled while queued"));
    return;
  }

  // Breaker gate: while a fault domain is melting down, admitted work
  // fast-fails instead of piling onto the broken resource. In half-open
  // state this query may carry probe tokens whose outcome re-closes (or
  // re-opens) the breaker.
  uint32_t probe_mask = 0;
  Status admit = resilience_.AdmitExecution(&probe_mask);
  if (!admit.ok()) {
    c_breaker_rejected_->Increment();
    FinishTicket(*ticket, /*ok=*/false);
    ticket->Complete(std::move(admit));
    return;
  }

  // Degraded-mode admission: over the budget's high-water mark new work
  // runs with the squeezed config (sorts spill earlier) rather than
  // queueing up to be shed at full commitment. The swap is cheap and
  // sticky — the engine keeps whichever config the last query needed.
  bool degraded = resilience_.InDegradedMode();
  if (degraded != state->degraded) {
    state->engine.set_config(degraded ? degraded_engine_config_
                                      : worker_engine_config_);
    state->degraded = degraded;
  }
  if (degraded) c_degraded_->Increment();

  bool from_cache = false;
  uint64_t epoch = 0;
  if (g_inflight_ != nullptr) g_inflight_->Add(1);
  Result<QueryResult> result =
      ExecuteAttempt(&state->engine, ticket, degraded, &from_cache, &epoch);
  if (g_inflight_ != nullptr) g_inflight_->Add(-1);

  ticket->exec_seconds_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    picked_up)
          .count();

  resilience_.OnQueryOutcome(result.status(), probe_mask);

  if (!result.ok() && from_cache &&
      ResilienceManager::ShouldQuarantine(result.status())) {
    // A plan that planned fine but fails execution non-transiently is
    // presumed poisoned: stop re-serving it while the same statistics
    // would just rebuild it.
    plan_cache_.Quarantine(ticket->sql_, epoch);
    c_quarantined_->Increment();
  }

  if (!result.ok() &&
      resilience_.ShouldRetry(result.status(), ticket->attempts_ + 1)) {
    // Transient failure with tries left: re-admit at the back of the
    // queue. The ticket stays pending and the session slot stays
    // reserved; only the guard resets (a cancel request survives).
    ticket->guard_.ResetForRetry();
    bool requeued = false;
    // Read under the lock: once requeued, another worker may take the
    // ticket and count its next attempt.
    int attempts = 0;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (!stopping_) {
        attempts = ++ticket->attempts_;
        queue_.push_back(ticket);
        requeued = true;
      }
    }
    if (requeued) {
      c_retried_->Increment();
      // Deterministic backoff, served by this worker *after* handing the
      // retry off so a healthy queue keeps draining.
      queue_cv_.notify_one();
      SleepForBackoff(resilience_.retry_policy(), attempts);
      return;
    }
    // Shutting down: no re-admission, the transient error stands.
  }

  if (result.ok()) {
    result.value().retry_attempts = ticket->attempts_;
  }
  FinishTicket(*ticket, result.ok());
  ticket->Complete(std::move(result));
}

Result<QueryResult> QueryService::ExecuteAttempt(QueryEngine* engine,
                                                 const TicketRef& ticket,
                                                 bool degraded,
                                                 bool* from_cache,
                                                 uint64_t* epoch) {
  *from_cache = false;
  *epoch = 0;
  if (plan_cache_.capacity() == 0) {
    return engine->Run(ticket->sql_, &ticket->guard_);
  }
  // Capture the epoch before planning so a stats refresh that lands
  // mid-optimization can only make the published entry *stale* (dropped
  // at next lookup), never wrongly fresh.
  *epoch = db_->stats_epoch();
  // A hit executes the cached generic plan at this ticket's literals, or
  // plans fresh when the engine finds the plan does not serve them.
  auto run_cached = [&](const PreparedPlan& cached) {
    *from_cache = true;
    Result<QueryResult> r =
        engine->RunPrepared(cached, ticket->sql_, &ticket->guard_);
    if (r.ok() && !r.value().custom_plan_reason.empty()) {
      plan_cache_.RecordCustomPlan();
    }
    return r;
  };
  if (degraded) {
    // Degraded admissions read the cache but never write it: Peek elects
    // no planner, so a miss carries no publish obligation and the squeezed
    // plan this attempt would build never pollutes the cache.
    std::shared_ptr<const PreparedPlan> cached =
        plan_cache_.Peek(ticket->sql_, *epoch);
    if (cached != nullptr) return run_cached(*cached);
    return engine->Run(ticket->sql_, &ticket->guard_);
  }
  std::shared_ptr<const PreparedPlan> cached =
      plan_cache_.GetOrBeginPlanning(ticket->sql_, *epoch);
  if (cached != nullptr) return run_cached(*cached);
  // This worker is the planner for the key: it must resolve the slot.
  // (Under quarantine the lookup elects no planner; Publish is refused
  // and Abandon no-ops, so the protocol below stays safe to run.)
  Result<QueryResult> planned = engine->Run(ticket->sql_, &ticket->guard_);
  if (planned.ok()) {
    plan_cache_.Publish(ticket->sql_, *epoch,
                        PreparedPlan::FromResult(planned.value()));
  } else {
    plan_cache_.Abandon(ticket->sql_, *epoch);
  }
  return planned;
}

void QueryService::FinishTicket(const QueryTicket& ticket, bool ok) {
  ReleaseSessionSlot(ticket.session_id(), &ticket);
  (ok ? c_completed_ : c_failed_)->Increment();
  Histogram* latency = ok ? h_latency_ok_us_ : h_latency_failed_us_;
  if (latency != nullptr) {
    latency->Record(static_cast<int64_t>(
        (ticket.queued_seconds_ + ticket.exec_seconds_) * 1e6));
  }
}

void QueryService::ReleaseSessionSlot(int64_t session_id,
                                      const QueryTicket* ticket) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  if (it->second.inflight > 0) --it->second.inflight;
  if (ticket != nullptr) {
    auto& v = it->second.tickets;
    v.erase(std::remove_if(v.begin(), v.end(),
                           [ticket](const std::weak_ptr<QueryTicket>& w) {
                             TicketRef t = w.lock();
                             return t == nullptr || t.get() == ticket;
                           }),
            v.end());
  }
}

}  // namespace ordopt
