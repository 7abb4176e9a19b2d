#include "exec/query_guard.h"

#include <algorithm>

#include "common/macros.h"
#include "common/str_util.h"

namespace ordopt {

namespace {

/// Racy-monotonic maximum for peak counters: exact peaks would need a lock
/// on every buffered row; a CAS loop keeps the recorded peak monotone and
/// within one concurrent update of the true maximum.
void AtomicMax(std::atomic<int64_t>* target, int64_t candidate) {
  int64_t cur = target->load(std::memory_order_relaxed);
  while (candidate > cur &&
         !target->compare_exchange_weak(cur, candidate,
                                        std::memory_order_relaxed)) {
  }
}

}  // namespace

int64_t ApproxRowBytes(const Row& row) {
  int64_t bytes = static_cast<int64_t>(sizeof(Row));
  for (const Value& v : row) {
    bytes += static_cast<int64_t>(sizeof(Value));
    if (v.type() == DataType::kString) {
      bytes += static_cast<int64_t>(v.AsString().size());
    }
  }
  return bytes;
}

void QueryGuard::Arm() {
  armed_ = true;
  start_time_ = std::chrono::steady_clock::now();
  events_until_check_.store(1, std::memory_order_relaxed);
}

void QueryGuard::ResetForRetry() {
  int64_t charged = shared_charged_bytes_.load(std::memory_order_relaxed);
  if (shared_budget_ != nullptr && charged > 0) {
    shared_budget_->Release(charged);
  }
  shared_charged_bytes_.store(0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(status_mu_);
    status_ = Status::OK();
  }
  tripped_.store(false, std::memory_order_release);
  armed_ = false;
  events_until_check_.store(1, std::memory_order_relaxed);
  rows_scanned_.store(0, std::memory_order_relaxed);
  rows_produced_.store(0, std::memory_order_relaxed);
  buffered_rows_.store(0, std::memory_order_relaxed);
  buffered_bytes_.store(0, std::memory_order_relaxed);
  buffered_rows_peak_.store(0, std::memory_order_relaxed);
  buffered_bytes_peak_.store(0, std::memory_order_relaxed);
}

void QueryGuard::Poison(Status status) {
  ORDOPT_CHECK_MSG(!status.ok(), "QueryGuard poisoned with OK status");
  std::lock_guard<std::mutex> lock(status_mu_);
  if (tripped_.load(std::memory_order_relaxed)) return;
  status_ = std::move(status);
  // Release: workers observing tripped_ via ok() see the Status write.
  tripped_.store(true, std::memory_order_release);
}

int64_t QueryGuard::OnRowsScanned(int64_t n) {
  if (n <= 0) return 0;
  const int64_t before =
      rows_scanned_.fetch_add(n, std::memory_order_relaxed);
  int64_t admitted = n;
  if (limits_.max_rows_scanned > 0 &&
      before + n > limits_.max_rows_scanned) {
    admitted = std::clamp<int64_t>(limits_.max_rows_scanned - before, 0, n);
    TripScanLimit(before + admitted + 1);
  } else if (!PeriodicCheck(n)) {
    admitted = 0;
  }
  // Rows past the tripping one were never read: take them back.
  if (admitted + 1 < n) {
    rows_scanned_.fetch_sub(n - admitted - 1, std::memory_order_relaxed);
  }
  return admitted;
}

void QueryGuard::TripScanLimit(int64_t scanned) {
  Poison(Status::ResourceExhausted(
      StrFormat("scan limit exceeded: %lld rows scanned, limit %lld",
                static_cast<long long>(scanned),
                static_cast<long long>(limits_.max_rows_scanned))));
}

bool QueryGuard::TripProducedLimit(int64_t produced) {
  Poison(Status::ResourceExhausted(
      StrFormat("output limit exceeded: %lld rows produced, limit %lld",
                static_cast<long long>(produced),
                static_cast<long long>(limits_.max_rows_produced))));
  return false;
}

bool QueryGuard::OnRowsBuffered(int64_t rows, int64_t bytes) {
  int64_t buffered_rows =
      buffered_rows_.fetch_add(rows, std::memory_order_relaxed) + rows;
  int64_t buffered_bytes =
      buffered_bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (shared_budget_ != nullptr && bytes > 0) {
    if (shared_budget_->TryCharge(bytes)) {
      shared_charged_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    } else {
      Poison(Status::ResourceExhausted(StrFormat(
          "global memory budget exhausted: query holds ~%lld bytes, pool "
          "%lld/%lld bytes committed",
          static_cast<long long>(buffered_bytes),
          static_cast<long long>(shared_budget_->used_bytes()),
          static_cast<long long>(shared_budget_->limit_bytes()))));
      return false;
    }
  }
  AtomicMax(&buffered_rows_peak_, buffered_rows);
  AtomicMax(&buffered_bytes_peak_, buffered_bytes);
  if (limits_.max_buffered_rows > 0 &&
      buffered_rows > limits_.max_buffered_rows) {
    Poison(Status::ResourceExhausted(
        StrFormat("buffer limit exceeded: %lld rows buffered in blocking "
                  "operators, limit %lld",
                  static_cast<long long>(buffered_rows),
                  static_cast<long long>(limits_.max_buffered_rows))));
    return false;
  }
  if (limits_.max_buffered_bytes > 0 &&
      buffered_bytes > limits_.max_buffered_bytes) {
    Poison(Status::ResourceExhausted(
        StrFormat("buffer limit exceeded: ~%lld bytes buffered in blocking "
                  "operators, limit %lld",
                  static_cast<long long>(buffered_bytes),
                  static_cast<long long>(limits_.max_buffered_bytes))));
    return false;
  }
  return PeriodicCheck(std::max<int64_t>(rows, 1));
}

void QueryGuard::OnBufferReleased(int64_t rows, int64_t bytes) {
  buffered_rows_.fetch_sub(rows, std::memory_order_relaxed);
  buffered_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  if (shared_budget_ != nullptr && bytes > 0) {
    // Release at most what this guard actually managed to charge: a trip
    // mid-buffer leaves the failed charge uncounted. CAS-bounded so
    // concurrent worker releases cannot collectively over-release.
    int64_t cur = shared_charged_bytes_.load(std::memory_order_relaxed);
    int64_t give_back = 0;
    do {
      give_back = std::min(bytes, cur);
      if (give_back <= 0) return;
    } while (!shared_charged_bytes_.compare_exchange_weak(
        cur, cur - give_back, std::memory_order_relaxed));
    shared_budget_->Release(give_back);
  }
}

bool QueryGuard::ForceCheck() {
  if (tripped_.load(std::memory_order_acquire)) return false;
  events_until_check_.store(kCheckIntervalRows, std::memory_order_relaxed);
  if (cancel_requested_.load(std::memory_order_relaxed)) {
    Poison(Status::Cancelled("query cancelled by caller"));
    return false;
  }
  if (armed_ && limits_.deadline_seconds > 0.0) {
    double elapsed = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start_time_)
                         .count();
    if (elapsed > limits_.deadline_seconds) {
      Poison(Status::Timeout(
          StrFormat("query deadline of %.3fs exceeded (ran %.3fs)",
                    limits_.deadline_seconds, elapsed)));
      return false;
    }
  }
  return true;
}

void QueryGuard::ReportTo(RuntimeMetrics* metrics) const {
  if (metrics == nullptr) return;
  metrics->rows_buffered_peak =
      std::max(metrics->rows_buffered_peak, buffered_rows_peak());
  metrics->bytes_buffered_peak =
      std::max(metrics->bytes_buffered_peak, buffered_bytes_peak());
}

namespace {

/// The calling thread's accounts with pending (uncharged) rows.
thread_local std::vector<BufferAccount*> t_pending_accounts;

}  // namespace

void BufferAccount::Enlist() { t_pending_accounts.push_back(this); }

bool BufferAccount::FlushPending() {
  std::vector<BufferAccount*>& pending = t_pending_accounts;
  bool ok = true;
  for (BufferAccount* account : pending) {
    ok &= account->guard_->OnRowsBuffered(account->pending_rows_,
                                          account->pending_bytes_);
    account->pending_rows_ = 0;
    account->pending_bytes_ = 0;
  }
  pending.clear();
  return ok;
}

bool BufferAccount::AddBytes(int64_t bytes) {
  if (guard_ == nullptr) return true;
  FlushPending();
  bytes_ += bytes;
  return guard_->OnRowsBuffered(0, bytes);
}

void BufferAccount::Update(const Row& old_row, const Row& new_row) {
  if (guard_ == nullptr) return;
  FlushPending();
  const int64_t old_bytes = ApproxRowBytes(old_row);
  const int64_t new_bytes = ApproxRowBytes(new_row);
  guard_->OnBufferReleased(0, old_bytes);
  bytes_ += new_bytes - old_bytes;
  guard_->OnRowsBuffered(0, new_bytes);
}

void BufferAccount::Release() {
  if (guard_ != nullptr && (rows_ > 0 || bytes_ > 0)) {
    FlushPending();
    guard_->OnBufferReleased(rows_, bytes_);
  }
  rows_ = 0;
  bytes_ = 0;
}

void ExecContext::Poison(Status status) const {
  if (guard != nullptr) {
    guard->Poison(std::move(status));
    return;
  }
  // No guard: this is a directly-constructed operator tree (tests,
  // benches); keep the historical fail-fast behavior for invariants.
  ORDOPT_CHECK_MSG(false, "executor error without a guard: %s",
                   status.ToString().c_str());
}

}  // namespace ordopt
