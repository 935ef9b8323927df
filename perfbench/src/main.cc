// xmlrdb_perfbench: runs one benchmark workload and prints its metrics.
//
//   xmlrdb_perfbench --workload query|serve|ingest --seed N --seconds S
//                    --trace 0|1 --run-dir DIR [--git-sha SHA]
//
// Prints one line per metric ("metric <name> <value> <unit>"), a context
// line, and as the last line a JSON object {"correct", "attempted",
// "failed", "metrics"}. Exits 0 only when every answer check passed.
// Durable stores live under DIR, which is created fresh and removed on exit.

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <set>
#include <string>
#include <thread>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Metrics a run without --trace must print, on every workload.
const std::set<std::string>& EndToEndMetrics() {
  static const std::set<std::string> kNames = {
      "setup_s",        "ops_per_s",         "p50_us",
      "p99_us",         "rss_mb",            "sweep_ms.edge",
      "sweep_ms.binary", "sweep_ms.interval", "sweep_ms.dewey",
      "sweep_ms.inline", "shred_mb_per_s",    "stored_bytes_per_xml_byte",
      "wal_bytes_per_xml_byte"};
  return kNames;
}

/// Per-layer metrics a traced run prints, with their units.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"xml.parse_us", "us"},
      {"xpath.parse_us", "us"},
      {"shred.eval_us", "us"},
      {"shred.string_values_us", "us"},
      {"shred.store_us", "us"},
      {"shred.update_us", "us"},
      {"shred.remove_us", "us"},
      {"publish.document_us", "us"},
      {"rdb.stmts_per_op", "count"},
      {"rdb.rows_scanned_per_result", "count"},
      {"rdb.batches_per_op", "count"},
      {"rdb.plancache_hit_ratio", "ratio"},
      {"rdb.plancache_evictions", "count"},
      {"rdb.lock_wait_p99_us", "us"},
      {"rdb.version_bytes", "B"},
      {"rdb.wal_bytes_per_op", "B"},
      {"rdb.syncs_per_op", "count"},
      {"rdb.sync_us", "us"},
      {"rdb.checkpoint_us", "us"},
      {"rdb.records_replayed", "count"},
      {"rdb.recover_s", "s"},
      {"net.rpc_us", "us"},
      {"net.queue_wait_us", "us"},
      {"net.exec_us", "us"},
      {"net.wire_us", "us"},
      {"net.busy_ratio", "ratio"},
      {"shard.routed_us", "us"},
      {"shard.write_us", "us"},
      {"shard.fanout_us", "us"},
      {"shard.request_skew", "ratio"},
      {"shard.read_write_overlap_ratio", "ratio"},
      {"xml.self_share", "ratio"},
      {"xpath.self_share", "ratio"},
      {"shred.self_share", "ratio"},
      {"rdb.self_share", "ratio"},
      {"publish.self_share", "ratio"},
      {"net.self_share", "ratio"},
      {"shard.self_share", "ratio"},
      {"trace.events_per_op", "count"},
      {"trace.overhead_ratio", "ratio"},
  };
  return kMetrics;
}

/// Per-layer metrics outside the span layers that a workload never
/// measures, because it does not call the layer: these alone print as 0.
/// Every other declared metric must be measured, so a layer that runs but
/// is not reported fails the run.
std::set<std::string> NotExercised(const std::string& workload) {
  const std::set<std::string> net_and_shard = {
      "net.queue_wait_us", "net.exec_us", "net.wire_us", "net.busy_ratio",
      "shard.request_skew", "shard.read_write_overlap_ratio"};
  std::set<std::string> out;
  if (workload != "serve") out = net_and_shard;
  if (workload == "query") {
    // No write in the timed window: the WAL is idle.
    out.insert({"rdb.wal_bytes_per_op", "rdb.syncs_per_op", "rdb.sync_us"});
  }
  return out;
}

int Usage(const char* why) {
  std::cerr << "xmlrdb_perfbench: " << why
            << "\nusage: xmlrdb_perfbench --workload query|serve|ingest "
               "--seed N --seconds S --trace 0|1 --run-dir DIR [--git-sha SHA]\n";
  return 2;
}

/// Creates the run directory on construction and removes it on exit.
class RunDir {
 public:
  explicit RunDir(std::string path) : path_(std::move(path)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~RunDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;

 private:
  std::string path_;
};

int Main(int argc, char** argv) {
  Options opt;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--run-dir") {
      opt.run_dir = value;
    } else if (flag == "--git-sha") {
      opt.git_sha = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("every flag takes a value");
  if (!have_trace) return Usage("--trace must be 0 or 1");
  if (opt.run_dir.empty()) return Usage("--run-dir is required");
  if (!(opt.seconds > 0)) return Usage("--seconds must be positive");

  Status (*run)(const Options&, Report*) = nullptr;
  if (opt.workload == "query") run = RunQueryWorkload;
  if (opt.workload == "serve") run = RunServeWorkload;
  if (opt.workload == "ingest") run = RunIngestWorkload;
  if (run == nullptr) return Usage("unknown workload");

  Report report;
  report.Context("workload", opt.workload);
  report.Context("seed", static_cast<double>(opt.seed));
  report.Context("seconds", opt.seconds);
  report.Context("trace", opt.trace ? 1 : 0);
  report.Context("git_sha", opt.git_sha);
  report.Context("xmlrdb_build_type", PERFBENCH_BUILD_TYPE);
  report.Context("nproc", std::thread::hardware_concurrency());
  report.Context("wal_sync_policy", kWalSyncPolicy);
  Status st;
  {
    RunDir dir(opt.run_dir);
    st = run(opt, &report);
  }
  if (!st.ok()) {
    std::cerr << "xmlrdb_perfbench: " << opt.workload
              << " failed: " << st.ToString() << "\n";
    return 1;
  }
  std::set<std::string> expected;
  const std::set<std::string> not_exercised =
      opt.trace ? NotExercised(opt.workload) : std::set<std::string>();
  if (opt.trace) {
    for (const auto& [name, unit] : PerLayerMetrics()) {
      if (!not_exercised.count(name)) expected.insert(name);
    }
  } else {
    expected = EndToEndMetrics();
  }
  const std::vector<std::string> names = report.MetricNames();
  if (std::set<std::string>(names.begin(), names.end()) != expected) {
    std::cerr << "xmlrdb_perfbench: " << opt.workload
              << " measured a different metric set than it declares\n";
    return 1;
  }
  for (const auto& [name, unit] : PerLayerMetrics()) {
    if (not_exercised.count(name)) report.Metric(name, 0, unit);
  }
  report.Print();
  if (!report.correct()) {
    std::cerr << "xmlrdb_perfbench: " << report.failed() << " of "
              << report.attempted() << " operations failed their check\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
