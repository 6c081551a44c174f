// Copyright (c) 2026 The db2graph-repro Authors.
//
// Observability coverage: the metrics registry primitives, the QueryTrace
// spans and renderings, Db2Graph::Explain() / the profile() terminal, the
// slow-query log, stats Snapshot()/Reset(), and the GremlinService
// queue-depth / shutdown surface.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/trace.h"
#include "core/db2graph.h"
#include "core/gremlin_service.h"
#include "linkbench/linkbench.h"
#include "linkbench/partitioned.h"

namespace db2graph::core {
namespace {

using gremlin::Traverser;

// Deterministic clock: every NowMicros() call advances by a fixed step,
// so any Begin/End pair is at least one step apart.
class FakeClock : public TraceClock {
 public:
  explicit FakeClock(uint64_t step) : step_(step) {}
  uint64_t NowMicros() const override {
    return now_.fetch_add(step_, std::memory_order_relaxed) + step_;
  }

 private:
  uint64_t step_;
  mutable std::atomic<uint64_t> now_{0};
};

// ----------------------------------------------------------------------
// Metrics primitives
// ----------------------------------------------------------------------

TEST(MetricsTest, CounterMirrorsAtomicSurface) {
  metrics::Counter c;
  EXPECT_EQ(c.load(), 0u);
  c.fetch_add(3);
  c.fetch_add(4, std::memory_order_relaxed);
  EXPECT_EQ(c.load(std::memory_order_relaxed), 7u);
  c = 0;
  EXPECT_EQ(c.load(), 0u);
}

TEST(MetricsTest, GaugeGoesUpAndDown) {
  metrics::Gauge g;
  g.Set(5);
  g.Add(3);
  g.Sub(10);
  EXPECT_EQ(g.Value(), -2);
}

TEST(MetricsTest, HistogramPercentilesFromBucketBounds) {
  metrics::Histogram h;
  EXPECT_EQ(h.Percentile(0.5), 0u);  // empty
  for (uint64_t i = 1; i <= 100; ++i) h.Observe(i);
  EXPECT_EQ(h.Count(), 100u);
  EXPECT_EQ(h.Sum(), 5050u);
  // Exponential buckets: the p50 sample (rank 50) lands in (32,64],
  // p95/p99 in (64,128].
  EXPECT_EQ(h.Percentile(0.5), 64u);
  EXPECT_EQ(h.Percentile(0.95), 128u);
  EXPECT_EQ(h.Percentile(0.99), 128u);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0u);
}

TEST(MetricsTest, RegistryRendersTextAndJson) {
  metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Global();
  registry.GetCounter("trace_test.counter")->fetch_add(3);
  registry.GetGauge("trace_test.gauge")->Set(-2);
  registry.GetHistogram("trace_test.histogram")->Observe(5);

  std::string text = registry.RenderText();
  EXPECT_NE(text.find("counter trace_test.counter 3"), std::string::npos)
      << text;
  EXPECT_NE(text.find("gauge trace_test.gauge -2"), std::string::npos);
  EXPECT_NE(text.find("histogram trace_test.histogram"), std::string::npos);

  Json json = registry.RenderJson();
  const Json* counters = json.Find("counters");
  ASSERT_NE(counters, nullptr);
  const Json* counter = counters->Find("trace_test.counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->as_int(), 3);
  const Json* histograms = json.Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const Json* histogram = histograms->Find("trace_test.histogram");
  ASSERT_NE(histogram, nullptr);
  ASSERT_NE(histogram->Find("count"), nullptr);
  EXPECT_EQ(histogram->Find("count")->as_int(), 1);

  // Stable pointers: a second lookup returns the same metric.
  EXPECT_EQ(registry.GetCounter("trace_test.counter")->load(), 3u);
}

// ----------------------------------------------------------------------
// QueryTrace mechanics
// ----------------------------------------------------------------------

TEST(QueryTraceTest, SpansNestAndCollectRecords) {
  FakeClock clock(10);
  QueryTrace trace(&clock);
  trace.SetScript("g.V(1)");
  int outer = trace.BeginStep("GraphStep", "V(1)", 1);
  trace.AddTableConsulted("Patient");
  trace.AddTablePruned("Disease");
  trace.AddCacheMiss();
  trace.AddFanout(1, 4);
  SqlTraceRecord record;
  record.table = "Patient";
  record.sql = "SELECT * FROM \"Patient\"";
  record.access_path = "index";
  record.rows_returned = 1;
  trace.RecordSql(record);
  int inner = trace.BeginStep("ValuesStep", "values(name)", 1);
  trace.EndStep(inner, 1);
  trace.EndStep(outer, 1);
  trace.Finish(123);

  std::vector<StepTraceSpan> spans = trace.Spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[0].tables_consulted,
            std::vector<std::string>{"Patient"});
  EXPECT_EQ(spans[0].tables_pruned, std::vector<std::string>{"Disease"});
  EXPECT_EQ(spans[0].cache_misses, 1u);
  EXPECT_EQ(spans[0].fanout_tasks, 4u);
  ASSERT_EQ(spans[0].statements.size(), 1u);
  EXPECT_EQ(spans[0].statements[0].access_path, "index");
  EXPECT_GE(spans[0].micros, 10u);  // fake clock: >= one step per pair
  EXPECT_EQ(trace.total_micros(), 123u);

  std::string text = trace.RenderText();
  EXPECT_NE(text.find("GraphStep V(1)"), std::string::npos) << text;
  EXPECT_NE(text.find("sql[Patient, index]"), std::string::npos);
  EXPECT_NE(text.find("total: 123us"), std::string::npos);

  Json json = trace.ToJson();
  EXPECT_EQ(json.Find("script")->as_string(), "g.V(1)");
  EXPECT_EQ(json.Find("steps")->items().size(), 2u);
}

TEST(QueryTraceTest, RecordsOutsideOpenSpansAreDropped) {
  QueryTrace trace;
  trace.AddTableConsulted("Orphan");  // no open span
  trace.AddCacheHit();
  EXPECT_TRUE(trace.Spans().empty());
}

TEST(QueryTraceTest, ChromeTraceExportsCompleteEvents) {
  FakeClock clock(10);
  QueryTrace trace(&clock);
  trace.SetScript("g.V(1).out()");
  trace.SetPlanSource("compiled");
  int outer = trace.BeginStep("GraphStep", "V(1)", 1);
  SqlTraceRecord record;
  record.table = "Person";
  record.sql = "SELECT * FROM \"Person\"";
  record.access_path = "index";
  record.micros = 5;
  trace.RecordSql(record);
  trace.EndStep(outer, 1);
  trace.Finish(100);

  Json chrome = trace.ToChromeTrace();
  const Json* events = chrome.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  // One step span, one SQL statement.
  ASSERT_GE(events->items().size(), 2u);
  const Json* meta = chrome.Find("metadata");
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->Find("script")->as_string(), "g.V(1).out()");
  EXPECT_EQ(meta->Find("plan")->as_string(), "compiled");
  EXPECT_EQ(meta->Find("total_micros")->as_int(), 100);
  bool saw_step = false, saw_sql = false;
  for (const Json& ev : events->items()) {
    const Json* ph = ev.Find("ph");
    if (ph == nullptr || ph->as_string() != "X") continue;
    const std::string& name = ev.Find("name")->as_string();
    // Complete events carry timestamps and durations in micros.
    EXPECT_NE(ev.Find("ts"), nullptr);
    EXPECT_NE(ev.Find("dur"), nullptr);
    EXPECT_NE(ev.Find("tid"), nullptr);
    if (name.find("GraphStep") != std::string::npos) saw_step = true;
    if (name.find("SELECT") != std::string::npos ||
        name.find("Person") != std::string::npos) {
      saw_sql = true;
    }
  }
  EXPECT_TRUE(saw_step);
  EXPECT_TRUE(saw_sql);
  // Round-trips through the JSON parser (loadable by chrome://tracing).
  Result<Json> reparsed = Json::Parse(chrome.Dump(0));
  EXPECT_TRUE(reparsed.ok());
}

TEST(SlowQueryLogTest, RingWrapsAtCapacityDroppingOldest) {
  SlowQueryLog log(3);
  for (int i = 0; i < 5; ++i) {
    SlowQueryLog::Entry e;
    e.script = "q" + std::to_string(i);
    e.elapsed_micros = static_cast<uint64_t>(i);
    log.Record(std::move(e));
  }
  std::vector<SlowQueryLog::Entry> entries = log.Entries();
  ASSERT_EQ(entries.size(), 3u);  // oldest two (q0, q1) dropped
  EXPECT_EQ(entries[0].script, "q2");
  EXPECT_EQ(entries[2].script, "q4");
}

TEST(SlowQueryLogTest, SetCapacityShrinksAndGrows) {
  SlowQueryLog log(4);
  EXPECT_EQ(log.capacity(), 4u);
  for (int i = 0; i < 4; ++i) {
    SlowQueryLog::Entry e;
    e.script = "q" + std::to_string(i);
    log.Record(std::move(e));
  }
  log.SetCapacity(2);  // shrink drops the oldest entries
  EXPECT_EQ(log.capacity(), 2u);
  std::vector<SlowQueryLog::Entry> entries = log.Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].script, "q2");
  EXPECT_EQ(entries[1].script, "q3");

  log.SetCapacity(0);  // clamped to >= 1
  EXPECT_EQ(log.capacity(), 1u);
  EXPECT_EQ(log.Entries().size(), 1u);
}

TEST(SlowQueryLogTest, ThresholdAndClear) {
  SlowQueryLog log(8);
  EXPECT_EQ(log.threshold_ms(), 0);
  log.SetThresholdMs(25);
  EXPECT_EQ(log.threshold_ms(), 25);
  SlowQueryLog::Entry e;
  e.script = "slow";
  log.Record(std::move(e));
  EXPECT_EQ(log.Entries().size(), 1u);
  log.Clear();
  EXPECT_TRUE(log.Entries().empty());
  EXPECT_EQ(log.threshold_ms(), 25);  // Clear drops entries, not config
  log.SetThresholdMs(0);
}

// ----------------------------------------------------------------------
// Explain / profile() end-to-end (the acceptance traversal)
// ----------------------------------------------------------------------

constexpr char kSocialConfig[] = R"json({
  "v_tables": [
    {
      "table_name": "Person",
      "id": "id",
      "fix_label": true,
      "label": "'person'",
      "properties": ["id", "name", "age"]
    }
  ],
  "e_tables": [
    {
      "table_name": "Follows",
      "src_v_table": "Person",
      "src_v": "src",
      "dst_v_table": "Person",
      "dst_v": "dst",
      "implicit_edge_id": true,
      "fix_label": true,
      "label": "'follows'"
    }
  ]
})json";

class ExplainProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE Person (
        id BIGINT PRIMARY KEY,
        name VARCHAR(100),
        age BIGINT
      );
      CREATE TABLE Follows (
        src BIGINT,
        dst BIGINT,
        FOREIGN KEY (src) REFERENCES Person (id),
        FOREIGN KEY (dst) REFERENCES Person (id)
      );
      CREATE INDEX idx_follows_src ON Follows (src);
      INSERT INTO Person VALUES
        (5, 'Eve', 44), (6, 'Frank', 28), (7, 'Grace', 35);
      INSERT INTO Follows VALUES (5, 6), (5, 7), (6, 7);
    )sql")
                    .ok());
    Result<std::unique_ptr<Db2Graph>> graph =
        Db2Graph::Open(&db_, kSocialConfig);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    graph_ = std::move(*graph);
  }

  static constexpr char kQuery[] =
      "g.V(5).out('follows').has('age', gt(30)).values('name')";

  sql::Database db_;
  std::unique_ptr<Db2Graph> graph_;
};

TEST_F(ExplainProfileTest, ExplainEmitsStrategiesSqlAndAccessPaths) {
  Result<Db2Graph::ExplainResult> explain = graph_->Explain(kQuery);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();

  // Strategy rewrites are attributed by name.
  const Json* strategies = explain->json.Find("strategies");
  ASSERT_NE(strategies, nullptr);
  std::vector<std::string> names;
  for (const Json& s : strategies->items()) {
    names.push_back(s.Find("strategy")->as_string());
    EXPECT_NE(s.Find("before")->as_string(), s.Find("after")->as_string());
  }
  auto has = [&](const std::string& n) {
    return std::find(names.begin(), names.end(), n) != names.end();
  };
  EXPECT_TRUE(has("GraphStepVertexStepMutation")) << explain->text;
  EXPECT_TRUE(has("PredicatePushdown")) << explain->text;
  EXPECT_TRUE(has("ProjectionPushdown")) << explain->text;

  // Every GSA step carries its generated SQL with predicted access path
  // and a row-count bound.
  const Json* steps = explain->json.Find("steps");
  ASSERT_NE(steps, nullptr);
  ASSERT_FALSE(steps->items().empty());
  size_t statements_seen = 0;
  bool saw_index_probe = false;
  for (const Json& step : steps->items()) {
    ASSERT_NE(step.Find("step"), nullptr);
    const Json* statements = step.Find("statements");
    ASSERT_NE(statements, nullptr);
    for (const Json& stmt : statements->items()) {
      ++statements_seen;
      EXPECT_NE(stmt.Find("sql")->as_string().find("SELECT"),
                std::string::npos);
      EXPECT_FALSE(stmt.Find("access_path")->as_string().empty());
      ASSERT_NE(stmt.Find("rows_estimated"), nullptr);
      saw_index_probe |=
          stmt.Find("access_path")->as_string() == "index probe";
    }
  }
  EXPECT_GE(statements_seen, 2u) << explain->text;
  // The mutated edge lookup constrains indexed "src": predicted probe.
  EXPECT_TRUE(saw_index_probe) << explain->text;
  EXPECT_NE(explain->text.find("sql["), std::string::npos);
}

TEST_F(ExplainProfileTest, ProfileReturnsPerStepTimingsMatchingExplain) {
  FakeClock clock(10);
  graph_->SetTraceClockForTesting(&clock);
  Result<std::vector<Traverser>> out =
      graph_->Execute(std::string(kQuery) + ".profile()");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 1u);
  ASSERT_EQ((*out)[0].kind, Traverser::Kind::kValue);

  Result<Json> profile = Json::Parse((*out)[0].value.as_string());
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_GT(profile->Find("total_micros")->as_int(), 0);
  const Json* steps = profile->Find("steps");
  ASSERT_NE(steps, nullptr);
  ASSERT_FALSE(steps->items().empty());
  std::vector<std::string> profiled_kinds;
  for (const Json& step : steps->items()) {
    // Fake clock: every span is at least one 10us tick wide.
    EXPECT_GE(step.Find("micros")->as_int(), 10);
    ASSERT_NE(step.Find("in"), nullptr);
    ASSERT_NE(step.Find("out"), nullptr);
    profiled_kinds.push_back(step.Find("step")->as_string());
  }

  // profile() executed the same compiled plan Explain previews: the step
  // sequences match.
  Result<Db2Graph::ExplainResult> explain = graph_->Explain(kQuery);
  ASSERT_TRUE(explain.ok());
  std::vector<std::string> explained_kinds;
  for (const Json& step : explain->json.Find("steps")->items()) {
    explained_kinds.push_back(step.Find("step")->as_string());
  }
  EXPECT_EQ(profiled_kinds, explained_kinds);

  // The executed trace additionally carries real row counts.
  bool saw_rows = false;
  for (const Json& step : steps->items()) {
    for (const Json& stmt : step.Find("statements")->items()) {
      saw_rows |= stmt.Find("rows_returned")->as_int() > 0;
    }
  }
  EXPECT_TRUE(saw_rows);
}

TEST_F(ExplainProfileTest, SlowQueryLogCapturesOffendersWithTraces) {
  SlowQueryLog::Global().Clear();
  SlowQueryLog::Global().SetThresholdMs(1);
  // 1ms-per-tick clock: any query's wall time crosses the 1ms threshold.
  FakeClock clock(1000);
  graph_->SetTraceClockForTesting(&clock);
  ASSERT_TRUE(graph_->Execute("g.V(5).values('name')").ok());
  SlowQueryLog::Global().SetThresholdMs(0);

  std::vector<SlowQueryLog::Entry> entries = SlowQueryLog::Global().Entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].script, "g.V(5).values('name')");
  EXPECT_GE(entries[0].elapsed_micros, 1000u);
  Result<Json> trace = Json::Parse(entries[0].trace_json);
  ASSERT_TRUE(trace.ok());
  EXPECT_FALSE(trace->Find("steps")->items().empty());
  SlowQueryLog::Global().Clear();
}

TEST_F(ExplainProfileTest, UntracedExecutionRecordsNothing) {
  SlowQueryLog::Global().Clear();
  ASSERT_TRUE(graph_->Execute("g.V(5).values('name')").ok());
  EXPECT_TRUE(SlowQueryLog::Global().Entries().empty());
}

TEST_F(ExplainProfileTest, ProfileInsideSubTraversalIsRejected) {
  Result<std::vector<Traverser>> out =
      graph_->Execute("g.V(5).where(__.profile())");
  EXPECT_FALSE(out.ok());
}

// ----------------------------------------------------------------------
// Trace correctness on a partitioned overlay
// ----------------------------------------------------------------------

class PartitionedTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    linkbench::Config config;
    config.num_vertices = 500;
    dataset_ = linkbench::GeneratePartitioned(config);
    ASSERT_TRUE(linkbench::LoadIntoPartitionedDatabase(&db_, dataset_).ok());
    Result<std::unique_ptr<Db2Graph>> graph = Db2Graph::Open(
        &db_, linkbench::MakePartitionedOverlay(/*prefixed_ids=*/false));
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    graph_ = std::move(*graph);
  }

  linkbench::Dataset dataset_;
  sql::Database db_;
  std::unique_ptr<Db2Graph> graph_;
};

TEST_F(PartitionedTraceTest, TraceShowsTablesConsultedAndCacheTransitions) {
  // Plain integer ids cannot pin a table: the lookup consults all 10
  // partitions, recording one SQL statement per partition, and misses the
  // cold cache. At dop 4 the per-table statements fan out.
  QueryTrace cold;
  ExecOptions cold_opts;
  cold_opts.trace = &cold;
  cold_opts.config = ExecConfig().parallelism(4);
  Result<std::vector<Traverser>> first = graph_->Execute("g.V(17)", cold_opts);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->size(), 1u);
  std::vector<StepTraceSpan> spans = cold.Spans();
  ASSERT_FALSE(spans.empty());
  const StepTraceSpan& lookup = spans[0];
  EXPECT_EQ(lookup.tables_consulted.size(), 10u);
  EXPECT_EQ(lookup.tables_pruned.size(), 0u);
  EXPECT_EQ(lookup.cache_misses, 1u);
  EXPECT_EQ(lookup.cache_hits, 0u);
  EXPECT_EQ(lookup.statements.size(), 10u);
  EXPECT_GT(lookup.fanout_tasks, 0u);

  // Warm repeat: served from the cache, no SQL at all.
  QueryTrace warm;
  ExecOptions warm_opts;
  warm_opts.trace = &warm;
  Result<std::vector<Traverser>> second = graph_->Execute("g.V(17)", warm_opts);
  ASSERT_TRUE(second.ok());
  spans = warm.Spans();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans[0].cache_hits, 1u);
  EXPECT_TRUE(spans[0].statements.empty());
}

TEST_F(PartitionedTraceTest, PrefixPinnedLookupTracesPrunedTables) {
  // The paper-config shape: a prefixed id pins the exact table, so the
  // trace shows one consulted table and the rest pruned.
  sql::Database db;
  ASSERT_TRUE(db.ExecuteScript(R"sql(
    CREATE TABLE Patient (
      patientID BIGINT PRIMARY KEY,
      name VARCHAR(100)
    );
    CREATE TABLE Disease (
      diseaseID BIGINT PRIMARY KEY,
      conceptName VARCHAR(100)
    );
    INSERT INTO Patient VALUES (1, 'Alice');
    INSERT INTO Disease VALUES (10, 'diabetes');
  )sql")
                  .ok());
  constexpr char kConfig[] = R"json({
    "v_tables": [
      {
        "table_name": "Patient",
        "prefixed_id": true,
        "id": "'patient'::patientID",
        "fix_label": true,
        "label": "'patient'",
        "properties": ["patientID", "name"]
      },
      {
        "table_name": "Disease",
        "id": "diseaseID",
        "fix_label": true,
        "label": "'disease'",
        "properties": ["diseaseID", "conceptName"]
      }
    ],
    "e_tables": []
  })json";
  Result<std::unique_ptr<Db2Graph>> graph = Db2Graph::Open(&db, kConfig);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();

  QueryTrace trace;
  ExecOptions trace_opts;
  trace_opts.trace = &trace;
  Result<std::vector<Traverser>> out =
      (*graph)->Execute("g.V('patient::1')", trace_opts);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 1u);
  std::vector<StepTraceSpan> spans = trace.Spans();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans[0].tables_consulted,
            std::vector<std::string>{"Patient"});
  EXPECT_EQ(spans[0].tables_pruned, std::vector<std::string>{"Disease"});
  ASSERT_EQ(spans[0].statements.size(), 1u);
  EXPECT_EQ(spans[0].statements[0].table, "Patient");
}

// ----------------------------------------------------------------------
// Stats snapshots
// ----------------------------------------------------------------------

TEST(StatsSnapshotTest, ExecStatsSnapshotAndReset) {
  sql::Database db;
  ASSERT_TRUE(db.ExecuteScript(R"sql(
    CREATE TABLE T (id BIGINT PRIMARY KEY, v BIGINT);
    INSERT INTO T VALUES (1, 10), (2, 20);
  )sql")
                  .ok());
  db.stats().Reset();
  ASSERT_TRUE(db.Execute("SELECT v FROM T WHERE id = 1").ok());
  sql::ExecStats::Counts counts = db.stats().Snapshot();
  EXPECT_EQ(counts.selects, 1u);
  EXPECT_GE(counts.index_probes, 1u);
  EXPECT_EQ(counts.full_scans, 0u);
  EXPECT_EQ(counts.rows_returned, 1u);
  db.stats().Reset();
  counts = db.stats().Snapshot();
  EXPECT_EQ(counts.selects, 0u);
  EXPECT_EQ(counts.index_probes, 0u);
  EXPECT_EQ(counts.rows_returned, 0u);
}

TEST_F(PartitionedTraceTest, ProviderStatsSnapshotAndReset) {
  graph_->provider()->stats().Reset();
  ASSERT_TRUE(graph_->Execute("g.V(23)").ok());
  Db2GraphProvider::Stats::Counts counts =
      graph_->provider()->stats().Snapshot();
  EXPECT_EQ(counts.vertex_tables_queried, 10u);
  EXPECT_EQ(counts.cache_misses, 1u);
  graph_->provider()->stats().Reset();
  counts = graph_->provider()->stats().Snapshot();
  EXPECT_EQ(counts.vertex_tables_queried, 0u);
  EXPECT_EQ(counts.cache_misses, 0u);
}

// ----------------------------------------------------------------------
// GremlinService observability surface
// ----------------------------------------------------------------------

TEST_F(PartitionedTraceTest, ServiceExposesQueueDepthAndRejectsAfterShutdown) {
  auto service = std::make_unique<GremlinService>(
      graph_.get(), GremlinService::Options::WithWorkers(2));
  EXPECT_EQ(service->queue_depth(), 0u);

  std::future<GremlinService::Response> ok_future =
      service->Submit("g.V(31)");
  GremlinService::Response ok_response = ok_future.get();
  ASSERT_TRUE(ok_response.ok()) << ok_response.status().ToString();
  EXPECT_EQ(ok_response->size(), 1u);

  // The service maintains its registry metrics.
  metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Global();
  EXPECT_GE(
      registry.GetCounter(GremlinService::kRequestsCounter)->load(), 1u);
  EXPECT_GE(
      registry.GetHistogram(GremlinService::kRequestLatencyHistogram)
          ->Count(),
      1u);

  service->Shutdown();
  EXPECT_EQ(service->queue_depth(), 0u);
  std::future<GremlinService::Response> rejected =
      service->Submit("g.V(32)");
  GremlinService::Response response = rejected.get();
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kUnavailable);

  std::future<GremlinService::Response> rejected_session =
      service->SubmitSession("s1", "g.V(33)");
  EXPECT_FALSE(rejected_session.get().ok());
  // Idempotent: destruction after explicit Shutdown is safe.
  service.reset();
}

TEST_F(PartitionedTraceTest, ServiceRunsProfileTerminals) {
  GremlinService service(graph_.get(),
                         GremlinService::Options::WithWorkers(1));
  GremlinService::Response response =
      service.Submit("g.V(19).profile()").get();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->size(), 1u);
  Result<Json> json = Json::Parse((*response)[0].value.as_string());
  ASSERT_TRUE(json.ok());
  EXPECT_FALSE(json->Find("steps")->items().empty());
}

}  // namespace
}  // namespace db2graph::core
