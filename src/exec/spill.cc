#include "exec/spill.h"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "common/fault_injection.h"
#include "common/str_util.h"
#include "storage/table.h"

namespace ordopt {

namespace {

/// Columns-per-row sanity bound while deserializing: anything above this
/// means the run file is corrupt, not merely large.
constexpr uint32_t kMaxSpillColumns = 1u << 20;

/// Process-wide run-file sequence number; combined with the pid it keeps
/// names unique across concurrent queries and concurrent test binaries
/// sharing one temp directory.
std::atomic<int64_t> g_spill_file_seq{0};

void AppendRaw(std::string* buf, const void* data, size_t n) {
  buf->append(static_cast<const char*>(data), n);
}

template <typename T>
void AppendPod(std::string* buf, T v) {
  AppendRaw(buf, &v, sizeof(v));
}

/// Row wire format: uint32 column count, then per value a uint8 DataType
/// tag followed by its payload (int64/double: 8 raw bytes; string: uint32
/// length + bytes; null: nothing). Host byte order — run files never
/// outlive the query that wrote them, let alone the machine.
void SerializeRow(const Row& row, std::string* buf) {
  AppendPod(buf, static_cast<uint32_t>(row.size()));
  for (const Value& v : row) {
    AppendPod(buf, static_cast<uint8_t>(v.type()));
    switch (v.type()) {
      case DataType::kNull:
        break;
      case DataType::kInt64:
      case DataType::kDate:
        AppendPod(buf, v.AsInt());
        break;
      case DataType::kDouble:
        AppendPod(buf, v.AsDouble());
        break;
      case DataType::kString: {
        const std::string& s = v.AsString();
        AppendPod(buf, static_cast<uint32_t>(s.size()));
        AppendRaw(buf, s.data(), s.size());
        break;
      }
    }
  }
}

Status ReadFailure(const char* what, const std::string& path) {
  return Status::IoError(StrFormat(
      "spill run %s: %s failed: %s", path.c_str(), what,
      errno != 0 ? std::strerror(errno) : "unexpected end of file"));
}

/// Reads exactly `n` bytes; distinguishes clean EOF (only legal at a row
/// boundary, handled by the caller) from truncation and device errors.
Status ReadExact(std::FILE* f, void* out, size_t n, const std::string& path,
                 const char* what) {
  if (std::fread(out, 1, n, f) != n) return ReadFailure(what, path);
  return Status::OK();
}

Status DeserializeRow(std::FILE* f, const std::string& path, Row* out,
                      bool* eof) {
  uint32_t cols = 0;
  errno = 0;
  size_t got = std::fread(&cols, 1, sizeof(cols), f);
  if (got == 0 && std::feof(f)) {
    *eof = true;
    return Status::OK();
  }
  if (got != sizeof(cols)) return ReadFailure("row header read", path);
  if (cols > kMaxSpillColumns) {
    return Status::Internal(
        StrFormat("spill run %s is corrupt: %u columns", path.c_str(), cols));
  }
  out->clear();
  out->reserve(cols);
  for (uint32_t i = 0; i < cols; ++i) {
    uint8_t tag = 0;
    ORDOPT_RETURN_NOT_OK(ReadExact(f, &tag, sizeof(tag), path, "value tag"));
    switch (static_cast<DataType>(tag)) {
      case DataType::kNull:
        out->push_back(Value::Null());
        break;
      case DataType::kInt64:
      case DataType::kDate: {
        int64_t v = 0;
        ORDOPT_RETURN_NOT_OK(ReadExact(f, &v, sizeof(v), path, "int value"));
        out->push_back(static_cast<DataType>(tag) == DataType::kInt64
                           ? Value::Int(v)
                           : Value::Date(v));
        break;
      }
      case DataType::kDouble: {
        double v = 0;
        ORDOPT_RETURN_NOT_OK(
            ReadExact(f, &v, sizeof(v), path, "double value"));
        out->push_back(Value::Double(v));
        break;
      }
      case DataType::kString: {
        uint32_t len = 0;
        ORDOPT_RETURN_NOT_OK(
            ReadExact(f, &len, sizeof(len), path, "string length"));
        std::string s(len, '\0');
        if (len > 0) {
          ORDOPT_RETURN_NOT_OK(
              ReadExact(f, s.data(), len, path, "string bytes"));
        }
        out->push_back(Value::Str(std::move(s)));
        break;
      }
      default:
        return Status::Internal(StrFormat(
            "spill run %s is corrupt: value tag %d", path.c_str(), tag));
    }
  }
  return Status::OK();
}

}  // namespace

std::string ResolveSpillTempDir(const std::string& configured) {
  if (!configured.empty()) return configured;
  // Read per call: tests and sandboxed CI set ORDOPT_TMPDIR after startup.
  const char* env = std::getenv("ORDOPT_TMPDIR");
  if (env != nullptr && env[0] != '\0') return env;
  std::error_code ec;
  std::filesystem::path p = std::filesystem::temp_directory_path(ec);
  if (!ec && !p.empty()) return p.string();
  return "/tmp";
}

SpillRun::~SpillRun() { Close(); }

void SpillRun::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

SpillManager::SpillManager(SpillConfig config, RuntimeMetrics* metrics)
    : config_(std::move(config)),
      metrics_(metrics),
      temp_dir_(ResolveSpillTempDir(config_.temp_dir)) {}

Status SpillManager::TryWriteRun(const std::vector<Row>& rows,
                                 SpillRun* run) {
  run->Close();  // drop the partial file of a failed attempt
  std::string path = StrFormat(
      "%s/ordopt-spill-%lld-%lld.run", temp_dir_.c_str(),
      static_cast<long long>(::getpid()),
      static_cast<long long>(g_spill_file_seq.fetch_add(1) + 1));
  errno = 0;
  std::FILE* f = std::fopen(path.c_str(), "wb+");
  if (f == nullptr) {
    return Status::IoError(StrFormat("cannot create spill run %s: %s",
                                     path.c_str(), std::strerror(errno)));
  }
  // Unlinked at once: the handle is the run's only reference, so no exit
  // path — a killed process included — leaves the file behind.
  if (std::remove(path.c_str()) != 0) {
    Status st = Status::IoError(StrFormat("cannot unlink spill run %s: %s",
                                          path.c_str(), std::strerror(errno)));
    std::fclose(f);
    return st;
  }
  run->path_ = std::move(path);
  run->file_ = f;
  int64_t bytes = 0;
  std::string buf;
  for (const Row& row : rows) {
    buf.clear();
    SerializeRow(row, &buf);
    errno = 0;
    if (std::fwrite(buf.data(), 1, buf.size(), f) != buf.size()) {
      Status st = Status::IoError(StrFormat("spill run write failed: %s",
                                            std::strerror(errno)));
      run->Close();
      return st;
    }
    bytes += static_cast<int64_t>(buf.size());
  }
  errno = 0;
  if (std::fflush(f) != 0) {
    Status st = Status::IoError(StrFormat("spill run flush failed: %s",
                                          std::strerror(errno)));
    run->Close();
    return st;
  }
  std::rewind(f);
  run->rows_ = static_cast<int64_t>(rows.size());
  run->bytes_ = bytes;
  run->read_rows_ = 0;
  return Status::OK();
}

Result<std::unique_ptr<SpillRun>> SpillManager::WriteRun(
    const std::vector<Row>& rows) {
  std::unique_ptr<SpillRun> run(new SpillRun());
  Status st = RetryIo(config_.retry, &metrics_->spill_retries,
                      [this, &rows, r = run.get()]() -> Status {
                        ORDOPT_FAULT_POINT("exec.sort.spill.write");
                        return TryWriteRun(rows, r);
                      });
  if (!st.ok()) return st;  // `run`'s destructor closes a partial file
  metrics_->spill_runs += 1;
  metrics_->spill_rows += run->rows();
  metrics_->spill_bytes += run->bytes();
  // The write pass streams the run out sequentially (the cost model's
  // first extra pass); the merge read pass is charged as the run is
  // consumed.
  metrics_->seq_pages += (run->rows() + kRowsPerPage - 1) / kRowsPerPage;
  return run;
}

Status SpillManager::ReadNext(SpillRun* run, Row* out, bool* eof) {
  *eof = false;
  if (run->file_ == nullptr) {
    return Status::Internal("spill run read after release");
  }
  long offset = std::ftell(run->file_);
  if (offset < 0) {
    return Status::IoError(StrFormat("spill run %s: ftell failed: %s",
                                     run->path_.c_str(),
                                     std::strerror(errno)));
  }
  Status st =
      RetryIo(config_.retry, &metrics_->spill_retries, [&]() -> Status {
        ORDOPT_FAULT_POINT("exec.sort.spill.read");
        // Re-seek so a retried attempt restarts the row cleanly.
        if (std::fseek(run->file_, offset, SEEK_SET) != 0) {
          return Status::IoError(StrFormat("spill run %s: seek failed: %s",
                                           run->path_.c_str(),
                                           std::strerror(errno)));
        }
        return DeserializeRow(run->file_, run->path_, out, eof);
      });
  if (st.ok() && !*eof) {
    // Merge read pass: one sequential page per kRowsPerPage rows.
    if (run->read_rows_ % kRowsPerPage == 0) ++metrics_->seq_pages;
    ++run->read_rows_;
  }
  return st;
}

Status SpillManager::ReleaseRun(std::unique_ptr<SpillRun> run) {
  if (run == nullptr || run->file_ == nullptr) return Status::OK();
  // Whatever the retry loop concludes, `run`'s destructor closes the
  // handle: the injected-fault and exhausted-retry paths still free it.
  SpillRun* r = run.get();
  return RetryIo(config_.retry, &metrics_->spill_retries, [r]() -> Status {
    ORDOPT_FAULT_POINT("exec.spill.cleanup");
    r->Close();
    return Status::OK();
  });
}

}  // namespace ordopt
