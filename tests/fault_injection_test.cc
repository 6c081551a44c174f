// Copyright (c) 2026 The db2graph-repro Authors.
//
// Fault-injection harness coverage (compiled only under
// -DDB2GRAPH_FAULT_INJECTION=ON): named failpoints in the SQL executor,
// the graph provider, and the Gremlin service force errors, simulated
// allocation failures, and slow blocks at exact points, proving the
// engine unwinds cleanly — the failing query reports the injected
// status, and the very next query over the same objects succeeds.

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "core/db2graph.h"
#include "core/gremlin_service.h"
#include "linkbench/linkbench.h"
#include "linkbench/partitioned.h"

namespace db2graph::core {
namespace {

using fault::FailPointRegistry;
using gremlin::Traverser;

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPointRegistry::Global().DisableAll();
    linkbench::Config config;
    config.num_vertices = 2000;
    dataset_ = linkbench::GeneratePartitioned(config);
    ASSERT_TRUE(linkbench::LoadIntoPartitionedDatabase(&db_, dataset_).ok());
    Result<std::unique_ptr<Db2Graph>> graph = Db2Graph::Open(
        &db_, linkbench::MakePartitionedOverlay(/*prefixed_ids=*/false));
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    graph_ = std::move(*graph);
  }

  void TearDown() override { FailPointRegistry::Global().DisableAll(); }

  // The clean-unwind assertion every test ends with: with all failpoints
  // off, the same engine serves queries normally.
  void ExpectHealthy() {
    FailPointRegistry::Global().DisableAll();
    Result<std::vector<Traverser>> out = graph_->Execute("g.V().count()");
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    Result<sql::ResultSet> rs = db_.Execute("SELECT COUNT(*) FROM Node_t0");
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  }

  linkbench::Dataset dataset_;
  sql::Database db_;
  std::unique_ptr<Db2Graph> graph_;
};

TEST_F(FaultInjectionTest, SqlExecutorBlockErrorUnwinds) {
  FailPointRegistry::Global().Enable(
      "sql.executor.block",
      fault::ErrorFault(StatusCode::kInternal, "injected mid-scan failure"));
  Result<sql::ResultSet> rs = db_.Execute("SELECT COUNT(*) FROM Node_t0");
  ASSERT_FALSE(rs.ok());
  EXPECT_NE(rs.status().message().find("injected mid-scan failure"),
            std::string::npos);
  EXPECT_GE(FailPointRegistry::Global().HitCount("sql.executor.block"), 1u);
  ExpectHealthy();
}

TEST_F(FaultInjectionTest, SqlExecutorAllocationFailureUnwinds) {
  FailPointRegistry::Global().Enable(
      "sql.executor.alloc", fault::AllocFailure("sort buffer allocation"));
  Result<sql::ResultSet> rs =
      db_.Execute("SELECT * FROM Node_t0 ORDER BY data");
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kResourceExhausted);
  ExpectHealthy();
}

TEST_F(FaultInjectionTest, ProviderFetchErrorFailsGremlinQuery) {
  FailPointRegistry::Global().Enable(
      "provider.fetch_vertex_table",
      fault::ErrorFault(StatusCode::kUnavailable, "table connection lost"));
  // Point lookups fetch materialized per-table; the injected error must
  // surface as the query's status, not crash the fan-out.
  Result<std::vector<Traverser>> out = graph_->Execute("g.V(5)");
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnavailable)
      << out.status().ToString();
  ExpectHealthy();
}

TEST_F(FaultInjectionTest, ProviderStreamOpenErrorFailsScan) {
  FailPointRegistry::Global().Enable(
      "provider.open_vertex_stream",
      fault::ErrorFault(StatusCode::kInternal, "cursor open failed"));
  // A plain scan opens per-table streams (count() would push the
  // aggregate into SQL and bypass them).
  Result<std::vector<Traverser>> out = graph_->Execute("g.V()");
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().message().find("cursor open failed"),
            std::string::npos);
  ExpectHealthy();
}

TEST_F(FaultInjectionTest, FirstHitsOnlyThenRecovers) {
  fault::FailPointConfig config =
      fault::ErrorFault(StatusCode::kInternal, "transient");
  config.hits_remaining = 1;  // fail exactly once
  FailPointRegistry::Global().Enable("provider.open_vertex_stream", config);
  Result<std::vector<Traverser>> first = graph_->Execute("g.V()");
  ASSERT_FALSE(first.ok());
  // The failpoint is spent: the retry succeeds with it still enabled.
  Result<std::vector<Traverser>> second = graph_->Execute("g.V()");
  EXPECT_TRUE(second.ok()) << second.status().ToString();
  ExpectHealthy();
}

TEST_F(FaultInjectionTest, SlowTableFetchTripsDeadline) {
  // Slow-fetch injection: each per-table fetch of a 10-table point lookup
  // stalls 50 ms. At dop 4 the fetches fan out four at a time, so the
  // 60 ms deadline expires during the second round and the governor
  // stops the fan-out.
  FailPointRegistry::Global().Enable("provider.fetch_vertex_table",
                                     fault::SleepFault(50));
  ExecOptions options;
  options.config = ExecConfig().parallelism(4).timeout_ms(60);
  auto start = std::chrono::steady_clock::now();
  Result<std::vector<Traverser>> out = graph_->Execute("g.V(5)", options);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kTimeout)
      << out.status().ToString();
  // Unwind is prompt: one in-flight sleep per pool task at most, nowhere
  // near the 500 ms ten serial injected fetches would take.
  EXPECT_LT(elapsed.count(), 2000);
  ExpectHealthy();
}

TEST_F(FaultInjectionTest, ServiceExecuteFaultFailsRequestOnly) {
  GremlinService service(graph_.get(),
                         GremlinService::Options::WithWorkers(2));
  FailPointRegistry::Global().Enable(
      "service.before_execute",
      fault::ErrorFault(StatusCode::kInternal, "injected dispatch fault"));
  GremlinService::Response r = service.Submit("g.V().count()").get();
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("injected dispatch fault"),
            std::string::npos);
  // The worker survives its injected failure and serves the next request.
  FailPointRegistry::Global().DisableAll();
  GremlinService::Response next = service.Submit("g.V().count()").get();
  EXPECT_TRUE(next.ok()) << next.status().ToString();
  service.Shutdown();
  ExpectHealthy();
}

TEST_F(FaultInjectionTest, SkipCountDelaysInjection) {
  fault::FailPointConfig config =
      fault::ErrorFault(StatusCode::kInternal, "late failure");
  config.skip = 1000000;  // beyond any hit count this query produces
  FailPointRegistry::Global().Enable("sql.executor.block", config);
  Result<sql::ResultSet> rs = db_.Execute("SELECT COUNT(*) FROM Node_t0");
  EXPECT_TRUE(rs.ok()) << rs.status().ToString();
  ExpectHealthy();
}

}  // namespace
}  // namespace db2graph::core
