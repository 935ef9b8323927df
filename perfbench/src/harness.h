// Shared pieces of the end-to-end benchmark: options, exact-percentile
// samples, the result report, layer spans and their analysis, a counting
// rdb::Env, and the corpus helpers every workload uses.
//
// The benchmark drives xmlrdb only through the public functions of its
// modules (xml, xpath, shred, rdb, publish, net, shard). A layer span is a
// ScopedSpan of category "bench" opened by this benchmark around one call
// into a layer; the engine's own spans (categories sql, xpath, shred, ...)
// are recorded alongside but only the bench spans are analysed.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/trace.h"
#include "rdb/database.h"
#include "rdb/durability.h"
#include "rdb/env.h"
#include "shred/mapping.h"
#include "xml/node.h"
#include "xpath/xpath_ast.h"

namespace perfbench {

using xmlrdb::Result;
using xmlrdb::Status;

/// Category of every span this benchmark records.
inline constexpr char kBenchCategory[] = "bench";

/// The WAL sync policy of every durable store in every workload: the
/// engine's default (fsync at each commit), which the shard router also
/// uses for its shards.
inline constexpr char kWalSyncPolicy[] = "commit";

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string run_dir;  ///< per-run directory for durable stores
  std::string git_sha = "unknown";
};

/// Raw samples with exact order statistics (linear interpolation between
/// the two closest ranks). No bucketing: the reported p99 is a sample value
/// or lies between two adjacent ones.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Sum() const;
  double Mean() const;

 private:
  std::vector<double> values_;
};

/// The run's result: metrics with units, run context, and the correctness
/// tally. Print() writes one human-readable line per metric, a context line,
/// and as the last line the JSON object the benchmark contract asks for.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  std::vector<std::string> MetricNames() const;
  void Context(const std::string& key, const std::string& value);
  void Context(const std::string& key, double value);

  /// Counts one attempted operation; `ok` false counts it as failed.
  void CountOp(bool ok);
  void CountOps(int64_t attempted, int64_t failed);

  /// Records a failed check outside the counted operations (set-up,
  /// recovery). Any failure makes the run incorrect.
  void Fail(const std::string& what);

  bool correct() const { return failures_ == 0 && failed_ == 0; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

  void Print() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, std::string> context_;  ///< values as JSON text
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t failures_ = 0;
};

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// Runs `release` (untimed) and then `fn` (timed) repeatedly, at least
/// kMinRepeats times and until kMinRepeatSeconds have passed, and appends
/// each `fn` duration in seconds to `secs`. Used for set-up and recovery:
/// on a shared host their short repetitions vary by up to 30% from one
/// half-second to the next, so they are spread over a span of time like
/// the timed window's operations. `release` drops what the previous
/// repetition built, so tearing it down is not part of the figure.
Status RepeatTimed(const std::function<void()>& release,
                   const std::function<Status()>& fn,
                   std::vector<double>* secs);

/// The median of one RepeatTimed series or, with `repeat` false, the time
/// of a single run: a run that does not report the figure still needs the
/// work done once, for its checks.
double MedianSeconds(const std::function<void()>& release,
                     const std::function<Status()>& fn, bool repeat,
                     Status* status);

// -- Tracing -----------------------------------------------------------------

/// Turns the global trace collector and metrics capture on for the traced
/// phase of a run. The collector's capacity is set far above what one run
/// records; Finish() fails the run when anything was dropped anyway.
class TracePhase {
 public:
  TracePhase();
  ~TracePhase();
  TracePhase(const TracePhase&) = delete;
  TracePhase& operator=(const TracePhase&) = delete;

  /// Stops recording; returns the bench spans and the registry delta.
  void Finish(Report* report);

  const std::vector<xmlrdb::TraceEvent>& spans() const { return spans_; }
  const xmlrdb::MetricsSnapshot& counters() const { return counters_; }
  const xmlrdb::HistogramSnapshot& lock_wait() const { return lock_wait_; }
  int64_t recorded() const { return recorded_; }

 private:
  std::unique_ptr<xmlrdb::ScopedMetricsCapture> capture_;
  xmlrdb::HistogramSnapshot lock_wait_before_;
  xmlrdb::HistogramSnapshot lock_wait_;
  std::vector<xmlrdb::TraceEvent> spans_;
  xmlrdb::MetricsSnapshot counters_;
  int64_t recorded_ = 0;
  bool finished_ = false;
};

/// Per-layer figures derived from the bench spans of a traced phase. Spans
/// of one operation share a request id; the root span of an operation is
/// named "op". A span's parent is the innermost span of the same request
/// whose interval contains it (across threads: the server's handler spans
/// nest inside the client's net span). Self time is a span's duration
/// minus the time its child spans cover.
struct LayerTimes {
  /// Span name -> per-operation total duration, one sample per operation
  /// that called the layer (microseconds).
  std::map<std::string, Samples> per_op_us;
  /// Layer (span-name prefix before '.') -> summed self time (us).
  std::map<std::string, double> self_us;
  double op_us = 0;  ///< summed duration of the "op" spans
  int64_t ops = 0;
};
LayerTimes AnalyzeSpans(const std::vector<xmlrdb::TraceEvent>& spans);

/// Adds the span-derived per-layer metrics every workload prints: the
/// per-op median of each named layer span and each layer's self-time share.
void ReportLayerTimes(const LayerTimes& times, int64_t trace_events,
                      Report* report);

/// Adds the rdb.* figures derived from a registry delta over `ops`
/// operations yielding `results` answer values, and the statement
/// lock-wait histogram of the traced phase.
void ReportRdbCounters(const xmlrdb::MetricsSnapshot& delta,
                       const xmlrdb::HistogramSnapshot& lock_wait, int64_t ops,
                       int64_t results, int64_t plancache_evictions,
                       Report* report);

// -- Durability ---------------------------------------------------------------

/// An rdb::Env over the default POSIX Env that counts fsyncs (with each
/// one's duration) and the bytes appended to WAL files.
class CountingEnv : public xmlrdb::rdb::Env {
 public:
  CountingEnv() : base_(xmlrdb::rdb::Env::Default()) {}

  Result<std::unique_ptr<xmlrdb::rdb::WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override;
  Result<std::string> ReadFileToString(const std::string& path) override {
    return base_->ReadFileToString(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Status CreateDirs(const std::string& path) override {
    return base_->CreateDirs(path);
  }
  Result<std::vector<std::string>> ListDir(const std::string& path) override {
    return base_->ListDir(path);
  }
  Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status RemoveDirRecursive(const std::string& path) override {
    return base_->RemoveDirRecursive(path);
  }

  int64_t syncs() const { return syncs_.load(); }
  int64_t wal_bytes() const { return wal_bytes_.load(); }
  /// Durations (us) of every Sync since the last call.
  Samples TakeSyncMicros();

 private:
  class File;

  xmlrdb::rdb::Env* base_;
  std::atomic<int64_t> syncs_{0};
  std::atomic<int64_t> wal_bytes_{0};
  std::mutex mu_;
  Samples sync_us_;  ///< guarded by mu_
};

/// One mapping over its own durable database under `dir`.
struct DurableStore {
  std::string name;
  std::unique_ptr<xmlrdb::shred::Mapping> mapping;
  std::unique_ptr<xmlrdb::rdb::Database> db;
};

/// Opens (recovering when the directory holds a store) the durable store of
/// mapping `name` under `dir`, with the kWalSyncPolicy WAL; a fresh
/// directory gets the mapping's tables. `stats` receives what recovery did.
Result<DurableStore> OpenDurableStore(xmlrdb::rdb::Env* env,
                                      const std::string& dir,
                                      const std::string& name,
                                      xmlrdb::rdb::RecoveryStats* stats = nullptr);

/// Closes every store of `stores` and reopens store i from `dirs[i]` (its
/// checkpoint plus WAL tail), repeated as MedianSeconds does; returns the
/// median reopen time in seconds. `replayed` receives the WAL records the
/// last reopen replayed, summed over the stores.
double MedianReopenSeconds(xmlrdb::rdb::Env* env,
                           const std::vector<DurableStore*>& stores,
                           const std::vector<std::string>& dirs, bool repeat,
                           int64_t* replayed, Status* status);

/// Plan-cache evictions so far, summed over `dbs`.
int64_t PlanCacheEvictions(const std::vector<xmlrdb::rdb::Database*>& dbs);

/// Adds the WAL figures of a traced phase: bytes and fsyncs per operation,
/// and the median fsync time.
void ReportWal(int64_t wal_bytes, int64_t syncs, Samples sync_us, int64_t ops,
               Report* report);

// -- Corpus -------------------------------------------------------------------

/// Every mapping the workloads store into, in this order.
const std::vector<std::string>& MappingNames();

/// The mappings with their own sweep_ms metric. Blob answers every query
/// from its cached document text and costs under 1% of a sweep, so it is
/// covered by the aggregate metrics only.
const std::vector<std::string>& SweepMappings();

/// Adds sweep_ms.<mapping> for every SweepMappings() entry: the median of
/// `sweep_us[m]`, indexed like MappingNames().
void ReportSweepMs(const std::vector<Samples>& sweep_us, Report* report);

/// Creates a mapping by name; "inline" is built from the XMark DTD.
Result<std::unique_ptr<xmlrdb::shred::Mapping>> MakeMapping(
    const std::string& name);

/// Generates an XMark document at `scale` from `seed` and returns it as
/// text; every workload stores documents by parsing such text.
std::string XMarkText(double scale, uint64_t seed);

/// Parses `text` inside an "xml.parse" span.
Result<std::unique_ptr<xmlrdb::xml::Document>> ParseXml(
    const std::string& text);

/// The twelve auction queries, parsed.
struct Query {
  std::string id;
  std::string text;
  xmlrdb::xpath::PathExpr path;
};
Result<std::vector<Query>> AuctionQueries();

/// True when `got` is the oracle answer for mapping `mapping`: the same
/// values in document order, or for "inline", whose order across inlined
/// tables only approximates document order, the same values in any order.
bool AnswerMatches(const std::string& mapping, std::vector<std::string> got,
                   std::vector<std::string> oracle);

/// Oracle answer: the string values of `path` evaluated on the DOM.
Result<std::vector<std::string>> OracleAnswer(
    const xmlrdb::xpath::PathExpr& path, const xmlrdb::xml::Document& doc);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
