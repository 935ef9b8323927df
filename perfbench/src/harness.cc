#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/json.h"
#include "common/stopwatch.h"
#include "shred/inline_mapping.h"
#include "shred/registry.h"
#include "workload/queries.h"
#include "workload/xmark.h"
#include "xml/dtd.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xpath/dom_eval.h"

namespace perfbench {

using xmlrdb::Stopwatch;

// -- Samples ------------------------------------------------------------------

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = std::clamp(q, 0.0, 1.0) * (sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo);
}

double Samples::Sum() const {
  double sum = 0;
  for (double v : values_) sum += v;
  return sum;
}

double Samples::Mean() const {
  return values_.empty() ? 0 : Sum() / values_.size();
}

double Median(std::vector<double> values) {
  Samples s;
  for (double v : values) s.Add(v);
  return s.Median();
}

namespace {

constexpr int kMinRepeats = 5;
constexpr double kMinRepeatSeconds = 2.5;

Status Repeat(const std::function<void()>& release,
              const std::function<Status()>& fn, int min_repeats,
              double min_seconds, std::vector<double>* secs) {
  Stopwatch span;
  for (int n = 0; n < min_repeats || span.ElapsedSeconds() < min_seconds; ++n) {
    release();
    Stopwatch timer;
    RETURN_IF_ERROR(fn());
    secs->push_back(timer.ElapsedSeconds());
  }
  return Status::OK();
}

}  // namespace

Status RepeatTimed(const std::function<void()>& release,
                   const std::function<Status()>& fn,
                   std::vector<double>* secs) {
  return Repeat(release, fn, kMinRepeats, kMinRepeatSeconds, secs);
}

double MedianSeconds(const std::function<void()>& release,
                     const std::function<Status()>& fn, bool repeat,
                     Status* status) {
  std::vector<double> secs;
  *status = repeat ? RepeatTimed(release, fn, &secs)
                   : Repeat(release, fn, 1, 0, &secs);
  return Median(secs);
}

// -- Report -------------------------------------------------------------------

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_[name] = {value, unit};
}

std::vector<std::string> Report::MetricNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [name, m] : metrics_) out.push_back(name);
  return out;
}

void Report::Context(const std::string& key, const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  context_[key] = xmlrdb::json::Quote(value);
}

void Report::Context(const std::string& key, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  context_[key] = JsonNumber(value);
}

void Report::CountOp(bool ok) { CountOps(1, ok ? 0 : 1); }

void Report::CountOps(int64_t attempted, int64_t failed) {
  std::lock_guard<std::mutex> lock(mu_);
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++failures_;
  if (failures_ <= 20) std::cerr << "perfbench: check failed: " << what << "\n";
}

void Report::Print() const {
  for (const auto& [name, m] : metrics_) {
    std::printf("metric %-32s %16.6f %s\n", name.c_str(), m.first,
                m.second.c_str());
  }
  std::string ctx = "{";
  for (const auto& [key, value] : context_) {
    if (ctx.size() > 1) ctx += ", ";
    ctx += xmlrdb::json::Quote(key) + ": " + value;
  }
  std::printf("context %s}\n", ctx.c_str());
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += xmlrdb::json::Quote(name) + ": {\"value\": " + JsonNumber(m.first) +
           ", \"unit\": " + xmlrdb::json::Quote(m.second) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

// -- Tracing ------------------------------------------------------------------

namespace {

/// Far above the events one traced phase records (measured at under 2M
/// for every workload); the buffer grows only as events arrive.
constexpr size_t kTraceCapacity = 16u << 20;

xmlrdb::HistogramSnapshot LockWaitSnapshot() {
  return xmlrdb::MetricsRegistry::Global()
      .GetHistogram("stmt.lock_wait_us")
      .Snapshot();
}

}  // namespace

TracePhase::TracePhase() {
  xmlrdb::TraceCollector& collector = xmlrdb::TraceCollector::Global();
  collector.Clear();
  collector.set_capacity(kTraceCapacity);
  capture_ = std::make_unique<xmlrdb::ScopedMetricsCapture>();
  lock_wait_before_ = LockWaitSnapshot();
  collector.set_enabled(true);
}

TracePhase::~TracePhase() {
  xmlrdb::TraceCollector::Global().set_enabled(false);
}

void TracePhase::Finish(Report* report) {
  if (finished_) return;
  finished_ = true;
  xmlrdb::TraceCollector& collector = xmlrdb::TraceCollector::Global();
  collector.set_enabled(false);
  counters_ = capture_->Delta();
  lock_wait_ = LockWaitSnapshot();
  for (int i = 0; i < xmlrdb::HistogramSnapshot::kNumBuckets; ++i) {
    lock_wait_.buckets[i] -= lock_wait_before_.buckets[i];
  }
  lock_wait_.count -= lock_wait_before_.count;
  lock_wait_.sum -= lock_wait_before_.sum;
  capture_.reset();
  if (collector.dropped() != 0) {
    report->Fail("trace collector dropped " +
                 std::to_string(collector.dropped()) + " spans");
  }
  std::vector<xmlrdb::TraceEvent> all = collector.Snapshot();
  collector.Clear();
  recorded_ = static_cast<int64_t>(all.size());
  for (auto& event : all) {
    if (event.category == kBenchCategory) spans_.push_back(std::move(event));
  }
}

LayerTimes AnalyzeSpans(const std::vector<xmlrdb::TraceEvent>& spans) {
  std::map<uint64_t, std::vector<const xmlrdb::TraceEvent*>> by_request;
  for (const auto& span : spans) {
    if (span.request_id != 0) by_request[span.request_id].push_back(&span);
  }
  LayerTimes out;
  for (auto& [request, group] : by_request) {
    (void)request;
    // Outer spans first: by start, then longest first.
    std::sort(group.begin(), group.end(), [](const auto* a, const auto* b) {
      if (a->start_us != b->start_us) return a->start_us < b->start_us;
      if (a->dur_us != b->dur_us) return a->dur_us > b->dur_us;
      return a->id < b->id;
    });
    std::vector<double> child_us(group.size(), 0);
    std::vector<size_t> stack;
    for (size_t i = 0; i < group.size(); ++i) {
      const int64_t end = group[i]->start_us + group[i]->dur_us;
      while (!stack.empty()) {
        const auto* top = group[stack.back()];
        if (end <= top->start_us + top->dur_us) break;
        stack.pop_back();
      }
      if (!stack.empty()) child_us[stack.back()] += group[i]->dur_us;
      stack.push_back(i);
    }
    std::map<std::string, double> op_layer_us;
    bool has_op = false;
    for (size_t i = 0; i < group.size(); ++i) {
      const auto* span = group[i];
      if (span->name == "op") {
        has_op = true;
        out.op_us += span->dur_us;
        continue;
      }
      op_layer_us[span->name] += span->dur_us;
      const std::string layer = span->name.substr(0, span->name.find('.'));
      out.self_us[layer] += std::max(0.0, span->dur_us - child_us[i]);
    }
    if (!has_op) continue;
    ++out.ops;
    for (const auto& [name, us] : op_layer_us) out.per_op_us[name].Add(us);
  }
  return out;
}

namespace {

/// Every layer span a workload may open, with the metric it reports as.
const std::vector<std::pair<std::string, std::string>>& LayerSpanMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kSpans = {
      {"xml.parse", "xml.parse_us"},
      {"xpath.parse", "xpath.parse_us"},
      {"shred.eval", "shred.eval_us"},
      {"shred.string_values", "shred.string_values_us"},
      {"shred.store", "shred.store_us"},
      {"shred.update", "shred.update_us"},
      {"shred.remove", "shred.remove_us"},
      {"publish.document", "publish.document_us"},
      {"rdb.checkpoint", "rdb.checkpoint_us"},
      {"net.rpc", "net.rpc_us"},
      {"shard.routed", "shard.routed_us"},
      {"shard.write", "shard.write_us"},
      {"shard.fanout", "shard.fanout_us"},
  };
  return kSpans;
}

const std::vector<std::string>& Layers() {
  static const std::vector<std::string> kLayers = {
      "xml", "xpath", "shred", "rdb", "publish", "net", "shard"};
  return kLayers;
}

int64_t Counter(const xmlrdb::MetricsSnapshot& counters,
                const std::string& name) {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

}  // namespace

void ReportLayerTimes(const LayerTimes& times, int64_t trace_events,
                      Report* report) {
  for (const auto& [span, metric] : LayerSpanMetrics()) {
    auto it = times.per_op_us.find(span);
    report->Metric(metric, it == times.per_op_us.end() ? 0 : it->second.Median(),
                   "us");
  }
  for (const auto& layer : Layers()) {
    auto it = times.self_us.find(layer);
    const double self = it == times.self_us.end() ? 0 : it->second;
    report->Metric(layer + ".self_share", times.op_us > 0 ? self / times.op_us : 0,
                   "ratio");
  }
  report->Metric("trace.events_per_op",
                 times.ops > 0 ? static_cast<double>(trace_events) / times.ops : 0,
                 "count");
}

void ReportRdbCounters(const xmlrdb::MetricsSnapshot& c,
                       const xmlrdb::HistogramSnapshot& lock_wait, int64_t ops,
                       int64_t results, int64_t plancache_evictions,
                       Report* report) {
  const double n = std::max<int64_t>(ops, 1);
  report->Metric("rdb.stmts_per_op", Counter(c, "sql.statements") / n, "count");
  report->Metric("rdb.rows_scanned_per_result",
                 static_cast<double>(Counter(c, "exec.rows_scanned")) /
                     std::max<int64_t>(results, 1),
                 "count");
  report->Metric("rdb.batches_per_op", Counter(c, "exec.batches") / n, "count");
  const int64_t hits = Counter(c, "plancache.hits");
  const int64_t lookups = hits + Counter(c, "plancache.misses");
  report->Metric("rdb.plancache_hit_ratio",
                 lookups > 0 ? static_cast<double>(hits) / lookups : 0, "ratio");
  report->Metric("rdb.plancache_evictions",
                 static_cast<double>(plancache_evictions), "count");
  report->Metric("rdb.lock_wait_p99_us", lock_wait.p99(), "us");
}

// -- Durability ---------------------------------------------------------------

class CountingEnv::File : public xmlrdb::rdb::WritableFile {
 public:
  File(CountingEnv* env, std::unique_ptr<xmlrdb::rdb::WritableFile> base,
       bool is_wal)
      : env_(env), base_(std::move(base)), is_wal_(is_wal) {}

  Status Append(std::string_view data) override {
    if (is_wal_) env_->wal_bytes_.fetch_add(static_cast<int64_t>(data.size()));
    return base_->Append(data);
  }

  Status Sync() override {
    Stopwatch timer;
    Status st = base_->Sync();
    const double us = timer.ElapsedMicros();
    env_->syncs_.fetch_add(1);
    std::lock_guard<std::mutex> lock(env_->mu_);
    env_->sync_us_.Add(us);
    return st;
  }

  Status Close() override { return base_->Close(); }

 private:
  CountingEnv* env_;
  std::unique_ptr<xmlrdb::rdb::WritableFile> base_;
  bool is_wal_;
};

Result<std::unique_ptr<xmlrdb::rdb::WritableFile>> CountingEnv::NewWritableFile(
    const std::string& path, bool truncate) {
  ASSIGN_OR_RETURN(auto file, base_->NewWritableFile(path, truncate));
  const std::string base = path.substr(path.find_last_of('/') + 1);
  return std::unique_ptr<xmlrdb::rdb::WritableFile>(
      std::make_unique<File>(this, std::move(file), base.rfind("wal_", 0) == 0));
}

Samples CountingEnv::TakeSyncMicros() {
  std::lock_guard<std::mutex> lock(mu_);
  Samples out = std::move(sync_us_);
  sync_us_ = Samples();
  return out;
}

Result<DurableStore> OpenDurableStore(xmlrdb::rdb::Env* env,
                                      const std::string& dir,
                                      const std::string& name,
                                      xmlrdb::rdb::RecoveryStats* stats) {
  xmlrdb::rdb::DurableOptions options;
  options.wal.sync_policy = xmlrdb::rdb::WalOptions::SyncPolicy::kCommit;
  xmlrdb::rdb::RecoveryStats recovery;
  DurableStore store;
  store.name = name;
  ASSIGN_OR_RETURN(store.mapping, MakeMapping(name));
  ASSIGN_OR_RETURN(store.db, xmlrdb::rdb::OpenDurableDatabase(env, dir, options,
                                                              &recovery));
  if (recovery.cold_start) RETURN_IF_ERROR(store.mapping->Initialize(store.db.get()));
  if (stats != nullptr) *stats = recovery;
  return store;
}

double MedianReopenSeconds(xmlrdb::rdb::Env* env,
                           const std::vector<DurableStore*>& stores,
                           const std::vector<std::string>& dirs, bool repeat,
                           int64_t* replayed, Status* status) {
  std::vector<std::string> names;
  for (const DurableStore* store : stores) names.push_back(store->name);
  return MedianSeconds(
      [&] {
        for (DurableStore* store : stores) *store = DurableStore{};
      },
      [&]() -> Status {
        *replayed = 0;
        for (size_t i = 0; i < stores.size(); ++i) {
          xmlrdb::rdb::RecoveryStats stats;
          ASSIGN_OR_RETURN(*stores[i],
                           OpenDurableStore(env, dirs[i], names[i], &stats));
          *replayed += stats.records_replayed;
        }
        return Status::OK();
      },
      repeat, status);
}

int64_t PlanCacheEvictions(const std::vector<xmlrdb::rdb::Database*>& dbs) {
  int64_t n = 0;
  for (const auto* db : dbs) n += db->plan_cache().stats().evictions;
  return n;
}

void ReportWal(int64_t wal_bytes, int64_t syncs, Samples sync_us, int64_t ops,
               Report* report) {
  const double n = std::max<int64_t>(ops, 1);
  report->Metric("rdb.wal_bytes_per_op", wal_bytes / n, "B");
  report->Metric("rdb.syncs_per_op", syncs / n, "count");
  report->Metric("rdb.sync_us", sync_us.Median(), "us");
}

// -- Corpus -------------------------------------------------------------------

const std::vector<std::string>& MappingNames() {
  static const std::vector<std::string> kNames = {"edge",  "binary", "interval",
                                                  "dewey", "inline", "blob"};
  return kNames;
}

const std::vector<std::string>& SweepMappings() {
  static const std::vector<std::string> kNames = {"edge", "binary", "interval",
                                                  "dewey", "inline"};
  return kNames;
}

void ReportSweepMs(const std::vector<Samples>& sweep_us, Report* report) {
  const auto& sweeps = SweepMappings();
  for (size_t m = 0; m < MappingNames().size(); ++m) {
    const std::string& name = MappingNames()[m];
    if (std::find(sweeps.begin(), sweeps.end(), name) == sweeps.end()) continue;
    report->Metric("sweep_ms." + name, sweep_us[m].Median() / 1e3, "ms");
  }
}

Result<std::unique_ptr<xmlrdb::shred::Mapping>> MakeMapping(
    const std::string& name) {
  if (name != "inline") return xmlrdb::shred::CreateMapping(name);
  ASSIGN_OR_RETURN(auto dtd, xmlrdb::xml::ParseDtd(xmlrdb::workload::XMarkDtd()));
  ASSIGN_OR_RETURN(auto mapping, xmlrdb::shred::InlineMapping::Create(*dtd, "site"));
  return std::unique_ptr<xmlrdb::shred::Mapping>(std::move(mapping));
}

std::string XMarkText(double scale, uint64_t seed) {
  xmlrdb::workload::XMarkConfig config;
  config.scale = scale;
  config.seed = seed;
  return xmlrdb::xml::Serialize(*xmlrdb::workload::GenerateXMark(config));
}

Result<std::unique_ptr<xmlrdb::xml::Document>> ParseXml(
    const std::string& text) {
  xmlrdb::ScopedSpan span("xml.parse", kBenchCategory);
  return xmlrdb::xml::Parse(text);
}

Result<std::vector<Query>> AuctionQueries() {
  std::vector<Query> out;
  for (const auto& q : xmlrdb::workload::AuctionQueries()) {
    ASSIGN_OR_RETURN(auto path, xmlrdb::xpath::ParseXPath(q.xpath));
    out.push_back({q.id, q.xpath, std::move(path)});
  }
  return out;
}

bool AnswerMatches(const std::string& mapping, std::vector<std::string> got,
                   std::vector<std::string> oracle) {
  if (mapping == "inline") {
    std::sort(got.begin(), got.end());
    std::sort(oracle.begin(), oracle.end());
  }
  return got == oracle;
}

Result<std::vector<std::string>> OracleAnswer(
    const xmlrdb::xpath::PathExpr& path, const xmlrdb::xml::Document& doc) {
  ASSIGN_OR_RETURN(auto nodes, xmlrdb::xpath::EvalOnDom(path, *doc.doc_node()));
  std::vector<std::string> out;
  out.reserve(nodes.size());
  for (const auto* node : nodes) out.push_back(node->StringValue());
  return out;
}

}  // namespace perfbench
