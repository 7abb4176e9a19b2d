#ifndef ORDOPT_EXEC_PARALLEL_MORSEL_H_
#define ORDOPT_EXEC_PARALLEL_MORSEL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

namespace ordopt {

/// Work distribution for one exchange's worker set (morsel-driven
/// parallelism): the chain's driving scan claims fixed-size ranges of its
/// scan domain — rid ranges for a heap or full forward clustered scan,
/// positions in the shared qualifying-rid vector for any other index
/// walk — with a single atomic
/// fetch-add, so fast workers naturally steal more morsels than slow ones
/// without any per-worker partition assignment.
///
/// Claims are monotonically increasing, which is load-bearing for
/// determinism: every worker's stream is ascending in provenance (the
/// serial emission ordinal), so the exchange's merge can resequence the
/// streams into exactly the serial row order.
class MorselScheduler {
 public:
  /// Rows per morsel. One execution batch by default: small enough that an
  /// 8-way split of a modest table keeps every worker busy, large enough
  /// that the claim cost (one fetch-add) vanishes per row.
  static constexpr int64_t kDefaultMorselRows = 1024;

  explicit MorselScheduler(int64_t morsel_rows = kDefaultMorselRows)
      : morsel_rows_(morsel_rows > 0 ? morsel_rows : 1) {}
  MorselScheduler(const MorselScheduler&) = delete;
  MorselScheduler& operator=(const MorselScheduler&) = delete;

  /// Claims the next unclaimed [begin, end) range of a domain of `total`
  /// items; false when the domain is exhausted. Thread-safe, wait-free.
  bool ClaimRange(int64_t total, int64_t* begin, int64_t* end) {
    int64_t b = next_.fetch_add(morsel_rows_, std::memory_order_relaxed);
    if (b >= total) return false;
    *begin = b;
    *end = b + morsel_rows_ < total ? b + morsel_rows_ : total;
    return true;
  }

  int64_t morsel_rows() const { return morsel_rows_; }

  /// Domain of a non-identity index walk (reverse, range-bounded or
  /// non-clustered; heap and full forward clustered scans claim rid ranges
  /// directly): the qualifying rids in index-walk order, shared by every
  /// worker. The first caller materializes them through `walk` (a cursor
  /// walk over its own ScanOp state); later callers — and the first
  /// caller's own morsel loop — read the shared vector, so the walk
  /// happens exactly once per exchange and row materialization is what
  /// parallelizes. The returned reference is stable for the scheduler's
  /// lifetime.
  const std::vector<int64_t>& EnsureRids(
      const std::function<void(std::vector<int64_t>*)>& walk) {
    std::lock_guard<std::mutex> lock(rids_mu_);
    if (!rids_ready_) {
      walk(&rids_);
      rids_ready_ = true;
    }
    return rids_;
  }

 private:
  const int64_t morsel_rows_;
  std::atomic<int64_t> next_{0};
  std::mutex rids_mu_;
  bool rids_ready_ = false;
  std::vector<int64_t> rids_;
};

}  // namespace ordopt

#endif  // ORDOPT_EXEC_PARALLEL_MORSEL_H_
