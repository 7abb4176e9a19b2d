#ifndef ORDOPT_EXEC_SPILL_H_
#define ORDOPT_EXEC_SPILL_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/retry.h"
#include "common/status.h"
#include "common/value.h"
#include "exec/runtime_metrics.h"

namespace ordopt {

/// Knobs for the sort spill subsystem. `sort_memory_rows` is the one
/// number the cost model and the executor share: the planner prices a
/// two-pass spill above it (CostParams::sort_memory_rows), and SortOp
/// actually writes runs above it — QueryEngine copies the cost-model
/// value in so the two can never drift.
struct SpillConfig {
  /// Rows a sort may hold in memory before writing a sorted run to disk.
  /// Zero or negative disables spilling (pure in-memory sort).
  int64_t sort_memory_rows = 200000;
  /// Directory for run files. Empty resolves to $ORDOPT_TMPDIR, then the
  /// system temp directory (ResolveSpillTempDir).
  std::string temp_dir;
  /// Retry policy for run-file I/O: transient kIoError failures are
  /// retried with deterministic backoff before the query degrades to a
  /// clean error.
  RetryPolicy retry;
};

/// Resolves the effective spill directory: `configured` when non-empty,
/// else the ORDOPT_TMPDIR environment variable (read per call so tests
/// and sandboxed CI can override it), else the system temp directory.
std::string ResolveSpillTempDir(const std::string& configured);

/// One sorted run on disk. The file is unlinked as soon as it is created
/// and lives on only through the open handle, so the kernel frees its
/// bytes when the handle closes — however the process ends, a killed one
/// included. The destructor closes the handle. SpillManager performs all
/// I/O; this object only owns the handle and the name (kept for error
/// messages).
class SpillRun {
 public:
  SpillRun(const SpillRun&) = delete;
  SpillRun& operator=(const SpillRun&) = delete;
  ~SpillRun();

  const std::string& path() const { return path_; }
  int64_t rows() const { return rows_; }
  int64_t bytes() const { return bytes_; }

 private:
  friend class SpillManager;
  SpillRun() = default;
  /// Closes the handle, freeing the file's bytes; idempotent.
  void Close();

  std::string path_;
  std::FILE* file_ = nullptr;
  int64_t rows_ = 0;
  int64_t bytes_ = 0;
  int64_t read_rows_ = 0;  ///< rows consumed so far (read-pass page charge)
};

/// Per-query owner of sort spill files: writes sorted runs (retrying
/// transient I/O failures per the policy), streams them back for the
/// k-way merge, and removes them. Counts runs/rows/bytes and retries
/// into RuntimeMetrics, and charges the sequential page reads/writes the
/// cost model prices for an external sort. Fault sites:
/// exec.sort.spill.write, exec.sort.spill.read, exec.spill.cleanup
/// (exec.sort.spill.merge is probed by SortOp at merge startup).
class SpillManager {
 public:
  SpillManager(SpillConfig config, RuntimeMetrics* metrics);
  SpillManager(const SpillManager&) = delete;
  SpillManager& operator=(const SpillManager&) = delete;

  const SpillConfig& config() const { return config_; }
  /// The resolved directory run files are created in.
  const std::string& temp_dir() const { return temp_dir_; }

  /// Writes `rows` (already sorted) as one run file, open for reading on
  /// return. A failed attempt closes the partial file and is retried
  /// while transient; a permanent failure (or exhausted retries) returns
  /// the error with nothing left on disk.
  Result<std::unique_ptr<SpillRun>> WriteRun(const std::vector<Row>& rows);

  /// Reads the next row of `run` into `*out`; sets `*eof` instead at end
  /// of run. Failed reads are retried from the same offset while
  /// transient.
  Status ReadNext(SpillRun* run, Row* out, bool* eof);

  /// Closes the run's handle now (the accounted cleanup path — probes
  /// exec.spill.cleanup). The RAII destructor remains as the
  /// unconditional backstop for paths that cannot report a Status.
  Status ReleaseRun(std::unique_ptr<SpillRun> run);

 private:
  /// One write attempt: creates and unlinks the file, writes every row,
  /// rewinds it for reading. Closes the partial file on failure.
  Status TryWriteRun(const std::vector<Row>& rows, SpillRun* run);

  SpillConfig config_;
  RuntimeMetrics* metrics_;
  std::string temp_dir_;
};

}  // namespace ordopt

#endif  // ORDOPT_EXEC_SPILL_H_
