// Workload "ingest": embedded, one thread, one durable store per mapping
// (WAL fsync at each commit). One operation is one document lifecycle on
// one mapping, the mappings taking turns in a seeded order:
//
//   xml::Parse of the document text; Mapping::Store; kUpdatePairs
//   InsertSubtree/DeleteSubtree pairs (a <person> under /site/people);
//   publish::PublishDocument, checked against the canonical input; Remove
//   of the store's oldest document once kLiveWindow documents are live.
//
// Every kCheckpointEvery operations on a store it is checkpointed. After
// the lifecycle window each store is checkpointed, and kLiveWindow more
// lifecycles of fixed pool documents give every WAL the same tail and every
// store the same live documents. Reopening every store from checkpoint
// plus tail is timed (rdb.recover_s), and the recovered stores are checked.
// After every fourth untraced lifecycle, a Q1-Q12 sweep of the document it
// stored (a read-after-write check, outside the lifecycle's time) gives
// sweep_ms.<mapping>: spread over the whole window and over the pool, it
// is as steady as the lifecycle figures. ops_per_s is lifecycles per second
// of lifecycle time.
//
// Why: the rdb layer runs inserts, logging and recovery instead of scans.
// A read-side gain that costs write time, space or recovery shows here;
// the XPath evaluator (outside the read-after-write sweeps) and net are not
// on the request path.

#include <algorithm>
#include <deque>
#include <random>

#include "common/resource_tracker.h"
#include "common/stopwatch.h"
#include "harness.h"
#include "publish/publisher.h"
#include "shred/evaluator.h"
#include "workloads.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace perfbench {
namespace {

using xmlrdb::ScopedRequestId;
using xmlrdb::ScopedSpan;
using xmlrdb::Stopwatch;
using xmlrdb::shred::DocId;

constexpr double kScale = 0.05;
constexpr int kPoolDocs = 16;
constexpr int kLiveWindow = 4;
constexpr int kUpdatePairs = 2;
constexpr int kCheckpointEvery = 24;
/// A read-after-write sweep follows every fourth lifecycle. After every
/// one, a 25 s run held about 750 lifecycles, which left p99_us with
/// fewer than ten samples beyond it; now it holds about 1000.
constexpr int kSweepEvery = 4;

struct PoolDoc {
  std::string text;
  std::string canonical;
  std::vector<std::vector<std::string>> oracle;  ///< per query
};

struct Store {
  DurableStore store;
  std::deque<std::pair<DocId, int>> live;  ///< (doc id, pool index), oldest first
  int64_t ops = 0;
};

struct State {
  std::vector<Query> queries;
  std::vector<PoolDoc> pool;
  std::vector<Store> stores;  ///< MappingNames() order
};

std::string StoreDir(const Options& opt, const std::string& mapping) {
  return opt.run_dir + "/ingest_" + mapping;
}

Status Setup(const Options& opt, CountingEnv* env, State* state) {
  ASSIGN_OR_RETURN(state->queries, AuctionQueries());
  for (int i = 0; i < kPoolDocs; ++i) {
    PoolDoc doc;
    doc.text = XMarkText(kScale, opt.seed * 1000 + i);
    ASSIGN_OR_RETURN(auto dom, xmlrdb::xml::Parse(doc.text));
    doc.canonical = xmlrdb::xml::Canonicalize(*dom);
    for (const auto& q : state->queries) {
      ASSIGN_OR_RETURN(auto answer, OracleAnswer(q.path, *dom));
      doc.oracle.push_back(std::move(answer));
    }
    state->pool.push_back(std::move(doc));
  }
  // Every store starts with a full live window, so the timed lifecycles
  // run in steady state from the first one.
  for (const auto& name : MappingNames()) {
    const std::string dir = StoreDir(opt, name);
    RETURN_IF_ERROR(env->RemoveDirRecursive(dir));
    Store store;
    ASSIGN_OR_RETURN(store.store, OpenDurableStore(env, dir, name));
    for (int i = 0; i < kLiveWindow; ++i) {
      ASSIGN_OR_RETURN(auto dom, xmlrdb::xml::Parse(state->pool[i].text));
      ASSIGN_OR_RETURN(auto id, store.store.mapping->Store(*dom, store.store.db.get()));
      store.live.push_back({id, i});
    }
    state->stores.push_back(std::move(store));
  }
  return Status::OK();
}

/// The child elements named `name` of `parent`.
Result<xmlrdb::shred::NodeSet> Children(DurableStore& s, DocId doc,
                                        const xmlrdb::rdb::Value& parent,
                                        const std::string& name) {
  ASSIGN_OR_RETURN(auto steps, s.mapping->Step(s.db.get(), doc, {parent},
                                               xmlrdb::xpath::Axis::kChild, name));
  xmlrdb::shred::NodeSet out;
  for (auto& step : steps) out.push_back(std::move(step.node));
  return out;
}

/// Appends a <person> under /site/people and deletes it again.
Status UpdatePair(DurableStore& s, DocId doc, int64_t serial) {
  ASSIGN_OR_RETURN(auto root, s.mapping->RootElement(s.db.get(), doc));
  ASSIGN_OR_RETURN(auto people, Children(s, doc, root, "people"));
  if (people.size() != 1) return Status::Internal("no /site/people");
  const std::string id = "perfbench" + std::to_string(serial);
  ASSIGN_OR_RETURN(auto person, xmlrdb::xml::ParseFragment(
                                    "<person id=\"" + id + "\"><name>Probe " + id +
                                    "</name><emailaddress>mailto:" + id +
                                    "@example.org</emailaddress></person>"));
  ASSIGN_OR_RETURN(auto before, Children(s, doc, people[0], "person"));
  RETURN_IF_ERROR(s.mapping->InsertSubtree(s.db.get(), doc, people[0], *person));
  ASSIGN_OR_RETURN(auto after, Children(s, doc, people[0], "person"));
  std::vector<xmlrdb::rdb::Value> added;
  for (const auto& node : after) {
    if (std::find(before.begin(), before.end(), node) == before.end()) {
      added.push_back(node);
    }
  }
  if (added.size() != 1) return Status::Internal("inserted person not found");
  return s.mapping->DeleteSubtree(s.db.get(), doc, added[0]);
}

struct OpTimes {
  double total_us = 0;
  double parse_store_s = 0;
  size_t xml_bytes = 0;
};

/// One document lifecycle on `store`. Checks run outside the timed parts.
Status Lifecycle(State* state, Store* store, int pool_index, int64_t serial,
                 OpTimes* times, Report* report) {
  DurableStore& s = store->store;
  const PoolDoc& input = state->pool[pool_index];
  std::string published;
  {
    ScopedSpan op("op", kBenchCategory);
    Stopwatch timer;
    ASSIGN_OR_RETURN(auto dom, ParseXml(input.text));
    DocId id = 0;
    {
      ScopedSpan span("shred.store", kBenchCategory);
      ASSIGN_OR_RETURN(id, s.mapping->Store(*dom, s.db.get()));
    }
    times->parse_store_s = timer.ElapsedSeconds();
    times->xml_bytes = input.text.size();
    store->live.push_back({id, pool_index});
    for (int i = 0; i < kUpdatePairs; ++i) {
      ScopedSpan span("shred.update", kBenchCategory);
      RETURN_IF_ERROR(UpdatePair(s, id, serial * kUpdatePairs + i));
    }
    {
      ScopedSpan span("publish.document", kBenchCategory);
      ASSIGN_OR_RETURN(published,
                       xmlrdb::publish::PublishDocument(s.mapping.get(), s.db.get(), id));
    }
    if (static_cast<int>(store->live.size()) > kLiveWindow) {
      ScopedSpan span("shred.remove", kBenchCategory);
      RETURN_IF_ERROR(s.mapping->Remove(store->live.front().first, s.db.get()));
      store->live.pop_front();
    }
    if (++store->ops % kCheckpointEvery == 0) {
      ScopedSpan span("rdb.checkpoint", kBenchCategory);
      RETURN_IF_ERROR(s.db->Checkpoint());
    }
    times->total_us = timer.ElapsedMicros();
  }
  ASSIGN_OR_RETURN(auto reparsed, xmlrdb::xml::Parse(published));
  const bool ok = xmlrdb::xml::Canonicalize(*reparsed) == input.canonical;
  if (!ok) report->Fail("published document differs from input on " + s.name);
  report->CountOp(ok);
  return Status::OK();
}

/// Answers Q1-Q12 on document `id` (pool document `pool_index`) of store
/// `m`, checking each answer; returns the summed answer time in us.
double SweepDoc(State* state, size_t m, DocId id, int pool_index,
                const std::string& when, Report* report) {
  DurableStore& s = state->stores[m].store;
  double total_us = 0;
  for (size_t q = 0; q < state->queries.size(); ++q) {
    Stopwatch timer;
    auto answer = xmlrdb::shred::EvalPathStrings(state->queries[q].path,
                                                 s.mapping.get(), s.db.get(), id);
    total_us += timer.ElapsedMicros();
    if (!answer.ok() || !AnswerMatches(s.name, answer.value(),
                                       state->pool[pool_index].oracle[q])) {
      report->Fail(when + ": " + state->queries[q].id + " on " + s.name);
    }
  }
  return total_us;
}

/// What a run of lifecycles measured.
struct LoopResult {
  Samples latency_us;
  /// Per store: Q1-Q12 answer time on the document each lifecycle stored.
  std::vector<Samples> sweep_us;
  double parse_store_s = 0;
  double xml_bytes = 0;
  int64_t ops = 0;
  double lifecycle_s = 0;  ///< summed lifecycle time, sweeps excluded
};

/// Runs lifecycles, the mappings taking turns in a seeded order, until
/// `seconds` pass. With `sweeps`, every kSweepEvery-th lifecycle is followed
/// by a Q1-Q12 sweep of the document it stored (outside the lifecycle's
/// time).
Status RunLoop(State* state, std::mt19937_64* rng, double seconds, bool sweeps,
               int64_t* serial, uint64_t* next_request, LoopResult* out,
               Report* report) {
  std::vector<size_t> order(state->stores.size());
  out->sweep_us.resize(state->stores.size());
  std::uniform_int_distribution<int> pick_doc(0, kPoolDocs - 1);
  size_t pos = order.size();
  Stopwatch clock;
  while (clock.ElapsedSeconds() < seconds) {
    if (pos == order.size()) {
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::shuffle(order.begin(), order.end(), *rng);
      pos = 0;
    }
    const size_t m = order[pos++];
    Store* store = &state->stores[m];
    ScopedRequestId request((*next_request)++);
    OpTimes times;
    const int pool_index = pick_doc(*rng);
    RETURN_IF_ERROR(Lifecycle(state, store, pool_index, (*serial)++, &times, report));
    if (sweeps && out->ops % kSweepEvery == 0) {
      out->sweep_us[m].Add(SweepDoc(state, m, store->live.back().first, pool_index,
                                    "after store", report));
    }
    out->latency_us.Add(times.total_us);
    out->lifecycle_s += times.total_us / 1e6;
    out->parse_store_s += times.parse_store_s;
    out->xml_bytes += times.xml_bytes;
    ++out->ops;
  }
  return Status::OK();
}

std::vector<xmlrdb::rdb::Database*> Databases(const State& state) {
  std::vector<xmlrdb::rdb::Database*> dbs;
  for (const auto& store : state.stores) dbs.push_back(store.store.db.get());
  return dbs;
}

}  // namespace

Status RunIngestWorkload(const Options& opt, Report* report) {
  CountingEnv env;
  State state;
  const auto release = [&] { state = State{}; };
  Options setup_opt = opt;
  const auto setup = [&] { return Setup(setup_opt, &env, &state); };
  std::vector<double> setup_secs;
  RETURN_IF_ERROR(RepeatTimed(release, setup, &setup_secs));

  std::mt19937_64 rng(opt.seed);
  int64_t serial = 0;
  uint64_t next_request = 1;
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  // The read-after-write sweeps run only without --trace. With it, neither
  // half sweeps, so the halves differ only in tracing and their lifecycle
  // times give trace.overhead_ratio.
  const bool sweeps = !opt.trace;
  LoopResult run;
  const int64_t wal_before = env.wal_bytes();
  RETURN_IF_ERROR(RunLoop(&state, &rng, untraced_s, sweeps, &serial,
                          &next_request, &run, report));
  const int64_t run_wal_bytes = env.wal_bytes() - wal_before;

  if (opt.trace) {
    const int64_t traced_wal_before = env.wal_bytes();
    const int64_t syncs_before = env.syncs();
    env.TakeSyncMicros();
    LoopResult traced;
    double version_bytes = 0;
    const int64_t evictions_before = PlanCacheEvictions(Databases(state));
    {
      TracePhase phase;
      RETURN_IF_ERROR(RunLoop(&state, &rng, opt.seconds - untraced_s, sweeps,
                              &serial, &next_request, &traced, report));
      version_bytes = xmlrdb::ResourceTracker::Global().Get("mvcc.version_bytes");
      phase.Finish(report);
      ReportRdbCounters(phase.counters(), phase.lock_wait(), traced.ops, traced.ops,
                        PlanCacheEvictions(Databases(state)) - evictions_before,
                        report);
      ReportLayerTimes(AnalyzeSpans(phase.spans()), phase.recorded(), report);
    }
    ReportWal(env.wal_bytes() - traced_wal_before, env.syncs() - syncs_before,
              env.TakeSyncMicros(), traced.ops, report);
    report->Metric("rdb.version_bytes", version_bytes, "B");
    report->Metric("trace.overhead_ratio",
                   traced.latency_us.Mean() / run.latency_us.Mean(), "ratio");
  }

  // The same WAL tail in every store and run: checkpoint, then one
  // lifecycle of each of the first kLiveWindow pool documents, which leaves
  // exactly those documents live.
  for (Store& store : state.stores) {
    RETURN_IF_ERROR(store.store.db->Checkpoint());
    store.ops = 0;  // restarts the cadence: no checkpoint inside the tail
    for (int i = 0; i < kLiveWindow; ++i) {
      ScopedRequestId request(next_request++);
      OpTimes times;
      RETURN_IF_ERROR(Lifecycle(&state, &store, i, serial++, &times, report));
    }
  }

  // Restart: reopen every store from its checkpoint plus WAL tail.
  std::vector<DurableStore*> stores;
  std::vector<std::string> dirs;
  for (Store& store : state.stores) {
    stores.push_back(&store.store);
    dirs.push_back(StoreDir(opt, store.store.name));
  }
  int64_t replayed = 0;
  Status st;
  const double recover_s =
      MedianReopenSeconds(&env, stores, dirs, opt.trace, &replayed, &st);
  RETURN_IF_ERROR(st);

  // The recovered stores hold exactly the live documents, unchanged.
  double live_xml_bytes = 0;
  int64_t footprint = 0;
  for (Store& store : state.stores) {
    DurableStore& s = store.store;
    ASSIGN_OR_RETURN(auto ids, s.mapping->ListDocIds(s.db.get()));
    std::vector<DocId> expected;
    for (const auto& [id, pool_index] : store.live) {
      expected.push_back(id);
      live_xml_bytes += state.pool[pool_index].text.size();
      auto published = xmlrdb::publish::PublishDocument(s.mapping.get(), s.db.get(), id);
      auto reparsed = published.ok() ? xmlrdb::xml::Parse(published.value())
                                     : Result<std::unique_ptr<xmlrdb::xml::Document>>(
                                           published.status());
      if (!reparsed.ok() ||
          xmlrdb::xml::Canonicalize(*reparsed.value()) != state.pool[pool_index].canonical) {
        report->Fail("after reopen: document differs on " + s.name);
      }
    }
    std::sort(expected.begin(), expected.end());
    if (ids != expected) report->Fail("after reopen: document set of " + s.name);
    ASSIGN_OR_RETURN(size_t bytes, s.mapping->FootprintBytes(*s.db));
    footprint += bytes;
  }

  // The recovered stores answer every query correctly.
  for (size_t m = 0; m < state.stores.size(); ++m) {
    for (const auto& [id, pool_index] : state.stores[m].live) {
      SweepDoc(&state, m, id, pool_index, "after reopen", report);
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
    report->Metric("ops_per_s", run.ops / run.lifecycle_s, "1/s");
    report->Metric("p50_us", run.latency_us.Median(), "us");
    report->Metric("p99_us", run.latency_us.Quantile(0.99), "us");
    ReportSweepMs(run.sweep_us, report);
    report->Metric("shred_mb_per_s", run.xml_bytes / 1e6 / run.parse_store_s, "MB/s");
    report->Metric("stored_bytes_per_xml_byte", footprint / live_xml_bytes, "ratio");
    report->Metric("wal_bytes_per_xml_byte", run_wal_bytes / run.xml_bytes, "ratio");
  } else {
    report->Metric("rdb.recover_s", recover_s, "s");
    report->Metric("rdb.records_replayed", static_cast<double>(replayed), "count");
  }
  report->Context("latency_samples", static_cast<double>(run.latency_us.size()));
  report->Context("sweeps_per_store", static_cast<double>(run.sweep_us[0].size()));
  report->Context("setup_repeats", static_cast<double>(setup_secs.size()));
  report->Context("xmark_scale", kScale);
  report->Context("live_window", kLiveWindow);
  report->Context("checkpoint_every_ops", kCheckpointEvery);
  report->Context("client_threads", 1);
  return Status::OK();
}

}  // namespace perfbench
