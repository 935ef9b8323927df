// Workload "query": embedded answers, one client thread, closed loop.
//
// The corpus is one XMark document (scale 0.5: about 90 KB of XML; 1-4 MB
// of tables per mapping, above a 2 MB L2 for all but inline and blob)
// stored in each of the six mappings, each over its own durable database.
// At scale 1.0 (2-8 MB) run-to-run spread was two to three times larger on
// a shared 4-core host, where other tenants contend for the caches. One operation answers one
// (query, mapping) pair from Q1-Q12 x six as string values: parse the
// XPath, evaluate it to node ids, fetch the string values. A pass is one
// seeded shuffle of all 72 pairs; sweep_ms.<mapping> is the median over
// passes of that mapping's twelve answer times.
//
// Why: nearly all time goes to the shred evaluator, the rdb executor and
// string-value work, and the rdb counters repeat exactly. Net, shard and
// the WAL are not on the request path.

#include <algorithm>
#include <random>

#include "common/resource_tracker.h"
#include "common/stopwatch.h"
#include "harness.h"
#include "rdb/durability.h"
#include "shred/evaluator.h"
#include "workloads.h"
#include "xml/parser.h"

namespace perfbench {
namespace {

using xmlrdb::MetricsRegistry;
using xmlrdb::ScopedRequestId;
using xmlrdb::ScopedSpan;
using xmlrdb::Stopwatch;

constexpr double kScale = 0.5;
/// Traced passes whose registry delta gives the rdb.* counts; a fixed
/// number of whole passes over a warm plan cache, so the counts repeat
/// exactly from run to run.
constexpr int kCountedPasses = 2;

struct Corpus {
  std::string text;
  std::vector<Query> queries;
  /// oracle[q]: string values of query q on the DOM.
  std::vector<std::vector<std::string>> oracle;
  std::vector<DurableStore> stores;  ///< MappingNames() order
  std::vector<xmlrdb::shred::DocId> docs;
  double parse_store_s = 0;
  int64_t wal_bytes = 0;
};

std::string StoreDir(const Options& opt, const std::string& mapping) {
  return opt.run_dir + "/query_" + mapping;
}

/// Generates the document, computes the oracle answers, and stores the
/// document in every mapping (parse + store). No checkpoint: writing 1-4 MB
/// of tables per mapping made set-up time follow the shared disk's
/// bandwidth, which drifted by up to 2x between runs.
Status Setup(const Options& opt, CountingEnv* env, Corpus* corpus) {
  corpus->text = XMarkText(kScale, opt.seed);
  ASSIGN_OR_RETURN(corpus->queries, AuctionQueries());
  ASSIGN_OR_RETURN(auto dom, xmlrdb::xml::Parse(corpus->text));
  for (const auto& q : corpus->queries) {
    ASSIGN_OR_RETURN(auto answer, OracleAnswer(q.path, *dom));
    corpus->oracle.push_back(std::move(answer));
  }
  corpus->parse_store_s = 0;
  const int64_t wal_before = env->wal_bytes();
  for (const auto& name : MappingNames()) {
    const std::string dir = StoreDir(opt, name);
    RETURN_IF_ERROR(env->RemoveDirRecursive(dir));
    ASSIGN_OR_RETURN(DurableStore store, OpenDurableStore(env, dir, name));
    Stopwatch timer;
    ASSIGN_OR_RETURN(auto doc, ParseXml(corpus->text));
    ASSIGN_OR_RETURN(auto id, store.mapping->Store(*doc, store.db.get()));
    corpus->parse_store_s += timer.ElapsedSeconds();
    corpus->stores.push_back(std::move(store));
    corpus->docs.push_back(id);
  }
  corpus->wal_bytes = env->wal_bytes() - wal_before;
  return Status::OK();
}

/// Answers query `q` on store `m`; returns the values or an error.
Result<std::vector<std::string>> Answer(Corpus* corpus, size_t q, size_t m) {
  DurableStore& store = corpus->stores[m];
  xmlrdb::xpath::PathExpr path;
  {
    ScopedSpan span("xpath.parse", kBenchCategory);
    ASSIGN_OR_RETURN(path, xmlrdb::xpath::ParseXPath(corpus->queries[q].text));
  }
  xmlrdb::shred::NodeSet nodes;
  {
    ScopedSpan span("shred.eval", kBenchCategory);
    ASSIGN_OR_RETURN(nodes, xmlrdb::shred::EvalPath(path, store.mapping.get(),
                                                    store.db.get(),
                                                    corpus->docs[m]));
  }
  ScopedSpan span("shred.string_values", kBenchCategory);
  return store.mapping->StringValues(store.db.get(), corpus->docs[m], nodes);
}

struct PassResult {
  double total_us = 0;
  std::vector<double> mapping_us;  ///< per MappingNames() index
  int64_t results = 0;
};

/// Runs one shuffled pass over every (query, mapping) pair, or stops early
/// at `deadline_s` on `clock`. Returns false when the pass was cut short.
bool RunPass(Corpus* corpus, std::mt19937_64* rng, const Stopwatch& clock,
             double deadline_s, uint64_t* next_request, Samples* latency_us,
             PassResult* pass, Report* report) {
  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t q = 0; q < corpus->queries.size(); ++q) {
    for (size_t m = 0; m < corpus->stores.size(); ++m) pairs.push_back({q, m});
  }
  std::shuffle(pairs.begin(), pairs.end(), *rng);
  pass->mapping_us.assign(corpus->stores.size(), 0);
  for (const auto& [q, m] : pairs) {
    if (clock.ElapsedSeconds() >= deadline_s) return false;
    ScopedRequestId request((*next_request)++);
    Result<std::vector<std::string>> answer = std::vector<std::string>{};
    double us = 0;
    {
      ScopedSpan op("op", kBenchCategory);
      Stopwatch timer;
      answer = Answer(corpus, q, m);
      us = timer.ElapsedMicros();
    }
    const bool ok = answer.ok() && AnswerMatches(corpus->stores[m].name,
                                                 answer.value(),
                                                 corpus->oracle[q]);
    if (!ok) {
      report->Fail(corpus->queries[q].id + " on " + corpus->stores[m].name +
                   (answer.ok() ? ": wrong answer"
                                : ": " + answer.status().ToString()));
    }
    report->CountOp(ok);
    if (answer.ok()) pass->results += answer.value().size();
    latency_us->Add(us);
    pass->total_us += us;
    pass->mapping_us[m] += us;
  }
  return true;
}

std::vector<xmlrdb::rdb::Database*> Databases(const Corpus& corpus) {
  std::vector<xmlrdb::rdb::Database*> dbs;
  for (const auto& store : corpus.stores) dbs.push_back(store.db.get());
  return dbs;
}

}  // namespace

Status RunQueryWorkload(const Options& opt, Report* report) {
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
  const double xml_mb = corpus.text.size() * MappingNames().size() / 1e6;
  size_t footprint = 0;
  for (const auto& store : corpus.stores) {
    ASSIGN_OR_RETURN(size_t bytes, store.mapping->FootprintBytes(*store.db));
    footprint += bytes;
  }

  std::mt19937_64 rng(opt.seed);
  uint64_t next_request = 1;
  {
    // Warm-up pass (untimed): fills the plan caches and checks every answer.
    Samples ignored;
    PassResult pass;
    Stopwatch clock;
    RunPass(&corpus, &rng, clock, 1e9, &next_request, &ignored, &pass, report);
  }

  // Timed passes. With --trace 1 the first half runs untraced and the
  // second traced, and their pass times give trace.overhead_ratio.
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  Samples latency_us;
  std::vector<Samples> sweep_us(corpus.stores.size());
  std::vector<double> pass_us;
  Stopwatch clock;
  bool whole = true;
  while (whole) {
    PassResult pass;
    whole = RunPass(&corpus, &rng, clock, untraced_s, &next_request,
                    &latency_us, &pass, report);
    if (!whole) break;
    pass_us.push_back(pass.total_us);
    for (size_t m = 0; m < corpus.stores.size(); ++m) {
      sweep_us[m].Add(pass.mapping_us[m]);
    }
  }
  const double elapsed_s = clock.ElapsedSeconds();
  if (pass_us.empty()) return Status::Internal("no whole pass in the run");

  if (opt.trace) {
    // Counted passes over a warm cache with their own seed, then more whole
    // passes until the traced half is used up.
    std::mt19937_64 traced_rng(opt.seed ^ 0x7472616365ULL);
    TracePhase phase;
    const auto before = MetricsRegistry::Global().Snapshot();
    const int64_t evictions_before = PlanCacheEvictions(Databases(corpus));
    Samples traced_latency;
    std::vector<double> traced_pass_us;
    int64_t counted_results = 0;
    xmlrdb::MetricsSnapshot counted;
    int64_t evictions = 0;
    double version_bytes = 0;
    Stopwatch traced_clock;
    for (int i = 0;; ++i) {
      PassResult pass;
      const double deadline = i < kCountedPasses ? 1e9 : opt.seconds - untraced_s;
      if (!RunPass(&corpus, &traced_rng, traced_clock, deadline, &next_request,
                   &traced_latency, &pass, report)) {
        break;
      }
      traced_pass_us.push_back(pass.total_us);
      version_bytes = std::max<double>(
          version_bytes,
          xmlrdb::ResourceTracker::Global().Get("mvcc.version_bytes"));
      if (i < kCountedPasses) counted_results += pass.results;
      if (i + 1 == kCountedPasses) {
        counted = MetricsRegistry::Delta(before, MetricsRegistry::Global().Snapshot());
        evictions = PlanCacheEvictions(Databases(corpus)) - evictions_before;
      }
    }
    phase.Finish(report);
    const int64_t counted_ops =
        kCountedPasses * static_cast<int64_t>(corpus.queries.size() * corpus.stores.size());
    ReportRdbCounters(counted, phase.lock_wait(), counted_ops, counted_results,
                      evictions, report);
    report->Metric("rdb.version_bytes", version_bytes, "B");
    ReportLayerTimes(AnalyzeSpans(phase.spans()), phase.recorded(), report);
    report->Metric("trace.overhead_ratio", Median(traced_pass_us) / Median(pass_us),
                   "ratio");
  }

  // Restart: close every store and reopen it, replaying its WAL.
  std::vector<DurableStore*> stores;
  std::vector<std::string> dirs;
  for (auto& store : corpus.stores) {
    stores.push_back(&store);
    dirs.push_back(StoreDir(opt, store.name));
  }
  int64_t replayed = 0;
  Status st;
  const double recover_s =
      MedianReopenSeconds(&env, stores, dirs, opt.trace, &replayed, &st);
  RETURN_IF_ERROR(st);
  // The recovered stores must still give every oracle answer.
  for (size_t m = 0; m < corpus.stores.size(); ++m) {
    for (size_t q = 0; q < corpus.queries.size(); ++q) {
      auto answer = Answer(&corpus, q, m);
      if (!answer.ok() || !AnswerMatches(corpus.stores[m].name, answer.value(),
                                         corpus.oracle[q])) {
        report->Fail("after reopen: " + corpus.queries[q].id + " on " +
                     corpus.stores[m].name);
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
    report->Metric("setup_s", Median(setup_secs), "s");
    report->Metric("ops_per_s", latency_us.size() / elapsed_s, "1/s");
    report->Metric("p50_us", latency_us.Median(), "us");
    report->Metric("p99_us", latency_us.Quantile(0.99), "us");
    ReportSweepMs(sweep_us, report);
    report->Metric("shred_mb_per_s", xml_mb / Median(parse_store_s), "MB/s");
    report->Metric("stored_bytes_per_xml_byte", footprint / (xml_mb * 1e6), "ratio");
    report->Metric("wal_bytes_per_xml_byte", corpus.wal_bytes / (xml_mb * 1e6),
                   "ratio");
  } else {
    report->Metric("rdb.recover_s", recover_s, "s");
    report->Metric("rdb.records_replayed", static_cast<double>(replayed), "count");
  }
  report->Context("latency_samples", static_cast<double>(latency_us.size()));
  report->Context("passes", static_cast<double>(pass_us.size()));
  report->Context("setup_repeats", static_cast<double>(setup_secs.size()));
  report->Context("xmark_scale", kScale);
  report->Context("xml_bytes_per_doc", static_cast<double>(corpus.text.size()));
  report->Context("client_threads", 1);
  return Status::OK();
}

}  // namespace perfbench
