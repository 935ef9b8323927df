// Workload "serve": an in-process net::Server on loopback answering XPath
// requests through one ShardRouter per mapping, each with kShards durable
// shards holding kDocs small XMark documents (scale 0.05, distinct seeds;
// 0.13-0.48 MB of tables each, so one document fits in L2). kConnections
// blocking net::Client connections run a closed loop, because RPC callers
// wait for each reply. The seeded mix per client is 90% reads and 10%
// writes, the split the repository's serving and concurrency benchmarks
// measure (bench_server S1/mixed_90_10, bench_concurrency C1):
//
//   * 85% routed reads: Q1-Q12 on a uniformly chosen document, walking a
//     shuffled pass over every (query, mapping) pair;
//   * 5% fan-out reads (doc 0): a selective query over every document of
//     one mapping, merged in document order;
//   * 10% scratch Store + Remove of the client's own document (XMark scale
//     0.01) through a uniformly chosen router. No wire verb stores
//     documents, so these skip net.
//
// A write's two commits each wait for an fsync, so it takes 1.3 to 2.5
// times a routed read's time, and 3-5% of reads run beside a write on the
// same router (traced as shard.read_write_overlap_ratio). That is above
// the 1% tail p99_us samples, so a reader that waits for a writer moves
// p99_us.
// Scratch documents at the base documents' scale made every timing spread
// about twice as wide and doubled rss_mb with version garbage.
//
// Why: net, shard and MVCC (readers beside writers) sit on the request
// path, while each request's engine work is small.

#include <algorithm>
#include <atomic>
#include <optional>
#include <random>
#include <thread>

#include "common/resource_tracker.h"
#include "common/stopwatch.h"
#include "harness.h"
#include "net/client.h"
#include "net/server.h"
#include "shard/shard_router.h"
#include "workloads.h"
#include "xml/parser.h"

namespace perfbench {
namespace {

using xmlrdb::ScopedRequestId;
using xmlrdb::ScopedSpan;
using xmlrdb::Stopwatch;
using xmlrdb::shard::ShardRouter;

constexpr double kScale = 0.05;
constexpr double kScratchScale = 0.01;
constexpr int kDocs = 12;
constexpr int kShards = 2;
/// Two client connections leave spare cores on a 4-core host; with four,
/// contention from outside the process moved serve's throughput by up to
/// 40% between runs.
constexpr int kConnections = 2;
/// net::ServerConfig's default worker count, one per core of a 4-core host.
constexpr int kServerWorkers = 4;
constexpr double kFanoutShare = 0.05;
constexpr double kScratchShare = 0.10;
/// Fan-out reads use the selective queries (Q2: one person by id; Q8: one
/// item by position).
const std::vector<size_t> kFanoutQueries = {1, 7};
/// Separates documents in a flattened fan-out answer: "\x1f<docid>".
constexpr char kDocMarker = '\x1f';

struct Corpus {
  std::vector<Query> queries;
  std::vector<std::string> texts;  ///< the kDocs documents
  /// oracle[d][q]: answer of query q on document d.
  std::vector<std::vector<std::vector<std::string>>> oracle;
  /// Scratch documents, one per connection, and their fan-out answers
  /// scratch_oracle[c][q].
  std::vector<std::unique_ptr<xmlrdb::xml::Document>> scratch;
  std::vector<std::vector<std::vector<std::string>>> scratch_oracle;
  std::vector<std::unique_ptr<ShardRouter>> routers;  ///< MappingNames() order
  std::vector<xmlrdb::shred::DocId> docs;  ///< base ids, same in every router
  double parse_store_s = 0;
  int64_t wal_bytes = 0;
  int64_t xml_bytes = 0;
};

/// Scratch writes in flight per router, and how many reads ran beside one.
/// A read ran beside a write when a write on its router was in flight as
/// the read started, or a write on that router started before it ended.
struct WriteActivity {
  explicit WriteActivity(size_t routers)
      : in_flight(routers), started(routers) {}

  /// What a read on router r saw of its writes as it started.
  struct Mark {
    bool writing;
    int64_t started;
  };
  Mark BeginRead(size_t r) const {
    return {in_flight[r].load() > 0, started[r].load()};
  }
  void EndRead(size_t r, Mark mark) {
    reads.fetch_add(1);
    if (mark.writing || started[r].load() != mark.started) {
      reads_beside_write.fetch_add(1);
    }
  }

  std::vector<std::atomic<int>> in_flight;
  std::vector<std::atomic<int64_t>> started;
  std::atomic<int64_t> reads{0};
  std::atomic<int64_t> reads_beside_write{0};
};

/// Marks a scratch write on router `r` for its lifetime.
class ScopedWrite {
 public:
  ScopedWrite(WriteActivity* activity, size_t r) : activity_(activity), r_(r) {
    activity_->in_flight[r_].fetch_add(1);
    activity_->started[r_].fetch_add(1);
  }
  ~ScopedWrite() { activity_->in_flight[r_].fetch_sub(1); }
  ScopedWrite(const ScopedWrite&) = delete;
  ScopedWrite& operator=(const ScopedWrite&) = delete;

 private:
  WriteActivity* activity_;
  size_t r_;
};

Result<std::unique_ptr<ShardRouter>> OpenRouter(const Options& opt,
                                                CountingEnv* env,
                                                const std::string& name) {
  xmlrdb::shard::ShardRouterOptions options;
  options.shards = kShards;
  options.env = env;
  options.dir_prefix = opt.run_dir + "/serve_" + name;
  options.start_version_gc = true;
  return ShardRouter::Create([name] { return MakeMapping(name); }, options);
}

Status Setup(const Options& opt, CountingEnv* env, Corpus* corpus) {
  ASSIGN_OR_RETURN(corpus->queries, AuctionQueries());
  for (int d = 0; d < kDocs; ++d) {
    corpus->texts.push_back(XMarkText(kScale, opt.seed * 1000 + d));
    ASSIGN_OR_RETURN(auto dom, xmlrdb::xml::Parse(corpus->texts.back()));
    corpus->oracle.emplace_back();
    for (const auto& q : corpus->queries) {
      ASSIGN_OR_RETURN(auto answer, OracleAnswer(q.path, *dom));
      corpus->oracle.back().push_back(std::move(answer));
    }
  }
  for (int c = 0; c < kConnections; ++c) {
    ASSIGN_OR_RETURN(auto dom,
                     xmlrdb::xml::Parse(XMarkText(
                         kScratchScale, opt.seed * 1000 + 500 + c)));
    corpus->scratch_oracle.emplace_back();
    for (const auto& q : corpus->queries) {
      ASSIGN_OR_RETURN(auto answer, OracleAnswer(q.path, *dom));
      corpus->scratch_oracle.back().push_back(std::move(answer));
    }
    corpus->scratch.push_back(std::move(dom));
  }
  corpus->parse_store_s = 0;
  corpus->xml_bytes = 0;
  const int64_t wal_before = env->wal_bytes();
  for (const auto& name : MappingNames()) {
    RETURN_IF_ERROR(env->RemoveDirRecursive(opt.run_dir + "/serve_" + name));
    ASSIGN_OR_RETURN(auto router, OpenRouter(opt, env, name));
    std::vector<xmlrdb::shred::DocId> ids;
    for (const auto& text : corpus->texts) {
      Stopwatch timer;
      ASSIGN_OR_RETURN(auto doc, ParseXml(text));
      ASSIGN_OR_RETURN(auto id, router->Store(*doc));
      corpus->parse_store_s += timer.ElapsedSeconds();
      corpus->xml_bytes += text.size();
      ids.push_back(id);
    }
    if (!corpus->docs.empty() && ids != corpus->docs) {
      return Status::Internal("routers assigned different document ids");
    }
    corpus->docs = ids;
    corpus->routers.push_back(std::move(router));
  }
  corpus->wal_bytes = env->wal_bytes() - wal_before;
  return Status::OK();
}

/// Answers one request on `router`: doc > 0 routes to the document's
/// shard, doc <= 0 fans out over every document and flattens the
/// per-document answers behind kDocMarker entries.
Result<std::vector<std::string>> Read(ShardRouter* router, int64_t doc,
                                      const std::string& xpath) {
  xmlrdb::xpath::PathExpr path;
  {
    ScopedSpan span("xpath.parse", kBenchCategory);
    ASSIGN_OR_RETURN(path, xmlrdb::xpath::ParseXPath(xpath));
  }
  if (doc > 0) {
    ScopedSpan span("shard.routed", kBenchCategory);
    return router->EvalPathStrings(path, doc);
  }
  ScopedSpan span("shard.fanout", kBenchCategory);
  ASSIGN_OR_RETURN(auto per_doc, router->EvalPathStringsAll(path));
  std::vector<std::string> flat;
  for (auto& part : per_doc) {
    flat.push_back(kDocMarker + std::to_string(part.doc));
    for (auto& v : part.values) flat.push_back(std::move(v));
  }
  return flat;
}

/// The server-side XPath handler: reads from the router of the request's
/// mapping, counting the reads that ran beside a scratch write.
xmlrdb::net::XPathHandler MakeHandler(Corpus* corpus, WriteActivity* activity) {
  return [corpus, activity](int64_t doc, const std::string& mapping,
                            const std::string& xpath)
             -> Result<std::vector<std::string>> {
    const auto& names = MappingNames();
    const auto it = std::find(names.begin(), names.end(), mapping);
    if (it == names.end()) {
      return Status::InvalidArgument("unknown mapping '" + mapping + "'");
    }
    const size_t r = it - names.begin();
    const WriteActivity::Mark mark = activity->BeginRead(r);
    auto answer = Read(corpus->routers[r].get(), doc, xpath);
    activity->EndRead(r, mark);
    return answer;
  };
}

/// Checks a flattened fan-out answer: every base document with its oracle
/// answer (a document with no match may be absent), in ascending id order;
/// any other document must be a live scratch document, so its answer must
/// be one of the scratch documents' answers.
bool FanoutMatches(const Corpus& corpus, const std::string& mapping, size_t q,
                   const std::vector<std::string>& flat) {
  std::vector<std::pair<int64_t, std::vector<std::string>>> parts;
  for (const auto& v : flat) {
    if (!v.empty() && v[0] == kDocMarker) {
      parts.push_back({std::stoll(v.substr(1)), {}});
    } else if (parts.empty()) {
      return false;
    } else {
      parts.back().second.push_back(v);
    }
  }
  size_t next_base = 0;
  int64_t last_doc = 0;
  for (const auto& [doc, values] : parts) {
    if (doc <= last_doc) return false;
    last_doc = doc;
    while (next_base < corpus.docs.size() && corpus.docs[next_base] < doc) {
      if (!corpus.oracle[next_base][q].empty()) return false;
      ++next_base;
    }
    if (next_base < corpus.docs.size() && corpus.docs[next_base] == doc) {
      if (!AnswerMatches(mapping, values, corpus.oracle[next_base][q])) {
        return false;
      }
      ++next_base;
      continue;
    }
    bool scratch = false;
    for (const auto& answers : corpus.scratch_oracle) {
      scratch = scratch || AnswerMatches(mapping, values, answers[q]);
    }
    if (!scratch) return false;
  }
  for (; next_base < corpus.docs.size(); ++next_base) {
    if (!corpus.oracle[next_base][q].empty()) return false;
  }
  return true;
}

/// What one client thread measured.
struct ClientResult {
  Samples latency_us;
  std::vector<double> pass_us;                 ///< whole passes
  std::vector<Samples> sweep_us;               ///< [mapping], one per pass
  Samples queue_us, exec_us, wire_us;          ///< traced requests only
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t results = 0;
  Status error;  ///< a connection-level failure ends the client
};

void RunClient(Corpus* corpus, WriteActivity* activity, uint16_t port,
               int client, bool traced, double seconds, uint64_t seed,
               ClientResult* out, Report* report) {
  xmlrdb::net::Client conn;
  out->error = conn.Connect("127.0.0.1", port);
  if (out->error.ok()) out->error = conn.Hello();
  if (!out->error.ok()) return;
  conn.set_tracing(traced);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0, 1);
  std::uniform_int_distribution<size_t> pick_doc(0, corpus->docs.size() - 1);
  std::uniform_int_distribution<size_t> pick_mapping(0, corpus->routers.size() - 1);
  std::uniform_int_distribution<size_t> pick_fanout(0, kFanoutQueries.size() - 1);
  const size_t nq = corpus->queries.size();
  const size_t nm = corpus->routers.size();
  out->sweep_us.assign(nm, Samples());
  uint64_t next_request = (static_cast<uint64_t>(client) + 1) << 40;
  std::vector<std::pair<size_t, size_t>> pass;
  std::vector<double> pass_mapping_us(nm, 0);
  double pass_total_us = 0;
  size_t pass_pos = 0;
  Stopwatch clock;
  while (clock.ElapsedSeconds() < seconds) {
    if (pass_pos == pass.size()) {
      if (!pass.empty()) {
        out->pass_us.push_back(pass_total_us);
        for (size_t m = 0; m < nm; ++m) {
          out->sweep_us[m].Add(pass_mapping_us[m]);
        }
      }
      pass.clear();
      for (size_t q = 0; q < nq; ++q) {
        for (size_t m = 0; m < nm; ++m) pass.push_back({q, m});
      }
      std::shuffle(pass.begin(), pass.end(), rng);
      pass_pos = 0;
      pass_total_us = 0;
      pass_mapping_us.assign(nm, 0);
    }
    const double draw = unit(rng);
    const uint64_t request = ++next_request;
    ScopedRequestId request_scope(request);
    conn.set_next_request_id(request);
    ++out->attempted;
    bool ok = false;
    double us = 0;
    if (draw < kScratchShare) {
      // Scratch document lifecycle through the router (no wire verb).
      const size_t m = pick_mapping(rng);
      ShardRouter* router = corpus->routers[m].get();
      ScopedSpan op("op", kBenchCategory);
      Stopwatch timer;
      Status st;
      {
        ScopedSpan span("shard.write", kBenchCategory);
        ScopedWrite write(activity, m);
        auto id = router->Store(*corpus->scratch[client]);
        st = id.ok() ? router->Remove(id.value()) : id.status();
      }
      us = timer.ElapsedMicros();
      ok = st.ok();
      if (!ok) report->Fail("scratch store/remove: " + st.ToString());
    } else {
      const bool fanout = draw < kScratchShare + kFanoutShare;
      size_t q, m;
      int64_t doc = 0;
      size_t d = 0;
      if (fanout) {
        q = kFanoutQueries[pick_fanout(rng)];
        m = pick_mapping(rng);
      } else {
        std::tie(q, m) = pass[pass_pos++];
        d = pick_doc(rng);
        doc = corpus->docs[d];
      }
      Result<std::vector<std::string>> answer = std::vector<std::string>{};
      {
        ScopedSpan op("op", kBenchCategory);
        Stopwatch timer;
        {
          ScopedSpan span("net.rpc", kBenchCategory);
          answer = conn.XPath(doc, MappingNames()[m], corpus->queries[q].text);
        }
        us = timer.ElapsedMicros();
      }
      if (answer.ok()) {
        out->results += answer.value().size();
        ok = fanout ? FanoutMatches(*corpus, MappingNames()[m], q, answer.value())
                    : AnswerMatches(MappingNames()[m], answer.value(),
                                    corpus->oracle[d][q]);
      }
      if (!ok) {
        report->Fail(std::string(fanout ? "fan-out " : "routed ") +
                     corpus->queries[q].id + " on " + MappingNames()[m] +
                     (answer.ok() ? ": wrong answer"
                                  : ": " + answer.status().ToString()));
      }
      if (!fanout) {
        pass_total_us += us;
        pass_mapping_us[m] += us;
      }
      if (traced && answer.ok()) {
        const auto& timing = conn.last_server_timing();
        out->queue_us.Add(timing.queue_us);
        out->exec_us.Add(timing.exec_us);
        out->wire_us.Add(std::max(0.0, us - timing.queue_us - timing.exec_us));
      }
    }
    if (!ok) ++out->failed;
    out->latency_us.Add(us);
  }
}

/// Runs kConnections clients for `seconds` and merges what they measured.
Status RunClients(Corpus* corpus, WriteActivity* activity, uint16_t port,
                  bool traced, double seconds, uint64_t seed,
                  ClientResult* merged, double* elapsed_s,
                  double* peak_version_bytes, Report* report) {
  std::vector<ClientResult> results(kConnections);
  std::vector<std::thread> threads;
  Stopwatch clock;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back(RunClient, corpus, activity, port, c, traced,
                         seconds, seed * 1000003 + c, &results[c], report);
  }
  while (clock.ElapsedSeconds() < seconds) {
    *peak_version_bytes = std::max<double>(
        *peak_version_bytes,
        xmlrdb::ResourceTracker::Global().Get("mvcc.version_bytes"));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  for (auto& t : threads) t.join();
  *elapsed_s = clock.ElapsedSeconds();
  merged->sweep_us.assign(corpus->routers.size(), Samples());
  for (auto& r : results) {
    RETURN_IF_ERROR(r.error);
    merged->latency_us.Append(r.latency_us);
    merged->pass_us.insert(merged->pass_us.end(), r.pass_us.begin(), r.pass_us.end());
    for (size_t m = 0; m < r.sweep_us.size(); ++m) {
      merged->sweep_us[m].Append(r.sweep_us[m]);
    }
    merged->queue_us.Append(r.queue_us);
    merged->exec_us.Append(r.exec_us);
    merged->wire_us.Append(r.wire_us);
    merged->attempted += r.attempted;
    merged->failed += r.failed;
    merged->results += r.results;
  }
  report->CountOps(merged->attempted, merged->failed);
  return Status::OK();
}

std::vector<xmlrdb::rdb::Database*> Databases(const Corpus& corpus) {
  std::vector<xmlrdb::rdb::Database*> dbs;
  for (const auto& router : corpus.routers) {
    for (int s = 0; s < router->num_shards(); ++s) {
      dbs.push_back(router->shard_db(s));
    }
  }
  return dbs;
}

}  // namespace

Status RunServeWorkload(const Options& opt, Report* report) {
  CountingEnv env;
  Corpus corpus;
  std::vector<double> parse_store_s;
  Options setup_opt = opt;
  const auto release = [&] { corpus = Corpus{}; };
  const auto setup = [&]() -> Status {
    RETURN_IF_ERROR(Setup(setup_opt, &env, &corpus));
    parse_store_s.push_back(corpus.parse_store_s);
    return Status::OK();
  };
  std::vector<double> setup_secs;
  RETURN_IF_ERROR(RepeatTimed(release, setup, &setup_secs));
  int64_t footprint = 0;
  for (const auto& router : corpus.routers) {
    for (const auto& info : router->SnapshotShards()) footprint += info.footprint_bytes;
  }

  xmlrdb::rdb::Database server_db;
  xmlrdb::net::ServerConfig config;
  config.workers = kServerWorkers;
  xmlrdb::net::Server server(&server_db, config);
  WriteActivity activity(corpus.routers.size());
  server.set_xpath_handler(MakeHandler(&corpus, &activity));
  RETURN_IF_ERROR(server.Start());

  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  ClientResult run;
  double elapsed_s = 0;
  double version_bytes = 0;
  Status st = RunClients(&corpus, &activity, server.port(), false, untraced_s,
                         opt.seed, &run, &elapsed_s, &version_bytes, report);
  if (st.ok() && opt.trace) {
    const auto server_before = server.stats();
    const int64_t evictions_before = PlanCacheEvictions(Databases(corpus));
    const int64_t reads_before = activity.reads.load();
    const int64_t beside_before = activity.reads_beside_write.load();
    const int64_t wal_before = env.wal_bytes();
    const int64_t syncs_before = env.syncs();
    env.TakeSyncMicros();
    ClientResult traced;
    double traced_s = 0;
    double traced_version_bytes = 0;
    {
      TracePhase phase;
      st = RunClients(&corpus, &activity, server.port(), true,
                      opt.seconds - untraced_s, opt.seed ^ 0x7472616365ULL,
                      &traced, &traced_s, &traced_version_bytes, report);
      phase.Finish(report);
      ReportRdbCounters(phase.counters(), phase.lock_wait(), traced.attempted,
                        traced.results,
                        PlanCacheEvictions(Databases(corpus)) -
                            evictions_before,
                        report);
      ReportLayerTimes(AnalyzeSpans(phase.spans()), phase.recorded(), report);
    }
    ReportWal(env.wal_bytes() - wal_before, env.syncs() - syncs_before,
              env.TakeSyncMicros(), traced.attempted, report);
    report->Metric("rdb.version_bytes", traced_version_bytes, "B");
    const double reads = activity.reads.load() - reads_before;
    report->Metric("shard.read_write_overlap_ratio",
                   (activity.reads_beside_write.load() - beside_before) /
                       std::max(1.0, reads),
                   "ratio");
    report->Metric("net.queue_wait_us", traced.queue_us.Median(), "us");
    report->Metric("net.exec_us", traced.exec_us.Median(), "us");
    report->Metric("net.wire_us", traced.wire_us.Median(), "us");
    const auto server_after = server.stats();
    const double busy = server_after.busy_rejected - server_before.busy_rejected;
    const double admitted = server_after.requests - server_before.requests;
    report->Metric("net.busy_ratio", busy / std::max(1.0, busy + admitted), "ratio");
    report->Metric("trace.overhead_ratio",
                   Median(traced.pass_us) / Median(run.pass_us), "ratio");
  }
  server.Stop();
  RETURN_IF_ERROR(st);
  if (run.pass_us.empty()) return Status::Internal("no whole pass in the run");

  double max_requests = 0, sum_requests = 0, shards = 0;
  for (const auto& router : corpus.routers) {
    for (const auto& info : router->SnapshotShards()) {
      max_requests = std::max<double>(max_requests, info.requests);
      sum_requests += info.requests;
      ++shards;
    }
  }

  // Restart: checkpoint every router, close it, and reopen its shards.
  for (const auto& router : corpus.routers) RETURN_IF_ERROR(router->Checkpoint());
  xmlrdb::MetricsSnapshot recovery_counts;
  const double recover_s = MedianSeconds(
      [&] {
        for (auto& router : corpus.routers) router.reset();
      },
      [&]() -> Status {
        std::optional<xmlrdb::ScopedMetricsCapture> capture;
        if (opt.trace) capture.emplace();
        for (size_t m = 0; m < corpus.routers.size(); ++m) {
          ASSIGN_OR_RETURN(corpus.routers[m], OpenRouter(opt, &env, MappingNames()[m]));
        }
        if (capture) recovery_counts = capture->Delta();
        return Status::OK();
      },
      opt.trace, &st);
  RETURN_IF_ERROR(st);
  for (size_t m = 0; m < corpus.routers.size(); ++m) {
    if (corpus.routers[m]->DocIds() != corpus.docs) {
      report->Fail("after reopen: document set of " + MappingNames()[m]);
      continue;
    }
    for (size_t d = 0; d < corpus.docs.size(); ++d) {
      auto answer = corpus.routers[m]->EvalPathStrings(corpus.queries[0].path,
                                                       corpus.docs[d]);
      if (!answer.ok() ||
          !AnswerMatches(MappingNames()[m], answer.value(), corpus.oracle[d][0])) {
        report->Fail("after reopen: Q1 on " + MappingNames()[m]);
      }
    }
  }

  if (!opt.trace) {
    report->Metric("rss_mb", PeakRssMb(), "MB");
    // A second set-up series after the run, so setup_s samples the host at
    // both ends of the run. It stores under a fresh directory: removing the
    // run's stores is not set-up work.
    setup_opt.run_dir = opt.run_dir + "/after";
    RETURN_IF_ERROR(RepeatTimed(release, setup, &setup_secs));
    const double xml_bytes = static_cast<double>(corpus.xml_bytes);
    report->Metric("setup_s", Median(setup_secs), "s");
    report->Metric("ops_per_s", run.latency_us.size() / elapsed_s, "1/s");
    report->Metric("p50_us", run.latency_us.Median(), "us");
    report->Metric("p99_us", run.latency_us.Quantile(0.99), "us");
    ReportSweepMs(run.sweep_us, report);
    report->Metric("shred_mb_per_s", xml_bytes / 1e6 / Median(parse_store_s), "MB/s");
    report->Metric("stored_bytes_per_xml_byte", footprint / xml_bytes, "ratio");
    report->Metric("wal_bytes_per_xml_byte", corpus.wal_bytes / xml_bytes, "ratio");
  } else {
    report->Metric("rdb.recover_s", recover_s, "s");
    report->Metric("shard.request_skew", shards > 0 ? max_requests / (sum_requests / shards) : 0,
                   "ratio");
    auto it = recovery_counts.find("recovery.records_replayed");
    report->Metric("rdb.records_replayed",
                   it == recovery_counts.end() ? 0 : static_cast<double>(it->second),
                   "count");
  }
  report->Context("latency_samples", static_cast<double>(run.latency_us.size()));
  report->Context("passes", static_cast<double>(run.pass_us.size()));
  report->Context("setup_repeats", static_cast<double>(setup_secs.size()));
  report->Context("scratch_write_share", kScratchShare);
  report->Context("scratch_xmark_scale", kScratchScale);
  report->Context("fanout_share", kFanoutShare);
  report->Context("xmark_scale", kScale);
  report->Context("docs_per_mapping", kDocs);
  report->Context("shards_per_router", kShards);
  report->Context("connections", kConnections);
  report->Context("server_workers", kServerWorkers);
  return Status::OK();
}

}  // namespace perfbench
