// Helpers of the TPC-D suite benchmark (tpcd_bench.cc), kept apart from
// its main so the self-tests (selftest.cc) can check them directly: the
// seeded request streams, result digests and ORDER BY checks, the tail
// percentile rule, and per-operator self time from OperatorProfile output.

#ifndef TPCDBENCH_HARNESS_H_
#define TPCDBENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/value.h"
#include "exec/executor.h"

namespace tpcdbench {

/// The five in-repo TPC-D queries, in round-robin order.
enum Template { kQ3 = 0, kPricing, kDistinct, kLate, kRegion, kTemplates };

/// Literal sets per template. Set 0 is the canonical text of
/// ordopt::tpcd_queries; the others shift the dates by a few days (and
/// swap the segment or region), so every set does about the same work.
constexpr int kLiteralSets = 4;

/// End-to-end metric name of a template's latency ("q3_ms", ...).
const char* TemplateMetric(int tmpl);

/// SQL text of `tmpl` with literal set `literal`.
std::string RequestSql(int tmpl, int literal);

/// One ORDER BY item of a template, as an output column position.
struct OrderKey {
  int column;
  bool desc;
};
const std::vector<OrderKey>& TemplateOrderBy(int tmpl);

struct Request {
  int tmpl = 0;
  int literal = 0;
};

/// The deterministic request sequence of one client. Round-robin streams
/// cycle through the five templates with the canonical literals (the
/// OLAP workloads); mixed streams draw a template and a literal set per
/// request from (seed, client).
class RequestStream {
 public:
  RequestStream(bool mixed, uint64_t seed, int client);
  Request Next();

 private:
  bool mixed_;
  ordopt::Rng rng_;
  int64_t issued_ = 0;
};

/// Order-insensitive digest of a result: row count plus the wrapping sum
/// of per-row hashes. Doubles hash at six significant digits, so two plans
/// that add the same numbers in another order still agree.
struct Digest {
  int64_t rows = 0;
  uint64_t checksum = 0;
  bool operator==(const Digest& other) const {
    return rows == other.rows && checksum == other.checksum;
  }
};
Digest DigestRows(const std::vector<ordopt::Row>& rows);

/// True when `rows` are sorted by `keys` (ties allowed).
bool FollowsOrderBy(const std::vector<ordopt::Row>& rows,
                    const std::vector<OrderKey>& keys);

/// The highest percentile, at most 99, that has at least ten of `samples`
/// beyond it; 0 when even the median has fewer. It moves smoothly with
/// the sample count, so a run with a few samples fewer than another
/// reports a nearby percentile, not a different cluster of the mix.
double TailPercentile(size_t samples);

/// Linear-interpolated quantile, `q` in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

/// On a shared host, speed can drift by a third within tens of seconds for
/// every thread alike (measured on a 4-vCPU cloud VM), so wall times are
/// scaled to a nominal host speed. A fixed kernel that does not call the
/// engine (seeded keys, std::sort, then an open-addressing hash build and
/// probe over ~1.5 MB) runs while the engine is idle; its time against
/// kNominalCalibrationSeconds gives the host's speed. The nominal figure is
/// a round value near the kernel's time on such a VM running fast, so
/// scaled times read close to wall-clock ones.
constexpr double kNominalCalibrationSeconds = 5e-3;

/// The median time of `reps` runs of the calibration kernel, in seconds.
double CalibrationSeconds(int reps);

/// The factor that scales a wall time measured between two calibrations
/// to the nominal host: kNominalCalibrationSeconds over their mean. It is
/// below 1 when the host ran slow.
double SpeedFactor(double calibration_before_s, double calibration_after_s);

/// Self time of one executed operator.
struct OperatorSelf {
  ordopt::OpKind kind;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
  int64_t rows_out = 0;
  int parent = -1;  ///< index into the returned vector, -1 for the root
};

/// Pairs `profile` (ExecutePlan's post-order output) with the nodes of
/// `plan` and returns one entry per operator, parents before children.
/// Self time is the operator's inclusive time minus its children's.
/// Below an Exchange, every operator's stats are summed over the workers,
/// so time under an exchange is summed worker time and subtracts only
/// from other worker time; the exchange itself keeps its whole wall time
/// on the consuming thread (waiting for and merging worker output) as
/// self time, because its children ran on other threads.
std::vector<OperatorSelf> OperatorSelfTimes(
    const ordopt::PlanNode& plan,
    const std::vector<ordopt::OperatorProfile>& profile);

}  // namespace tpcdbench

#endif  // TPCDBENCH_HARNESS_H_
