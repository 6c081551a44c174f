// Copyright (c) 2026 The db2graph-repro Authors.
//
// Coverage for the block-at-a-time streaming pipeline:
//
//  * block-boundary correctness — every traversal shape produces the exact
//    same ordered results at block sizes 1, 7 and 1024 as the materialized
//    execution model;
//  * limit()/range() early termination, counter-asserted against the SQL
//    layer's rows_scanned (the acceptance bound: a limit(10) over a
//    100k-vertex table scans at most 10 + one block of rows per consulted
//    table, while the materialized path scans everything);
//  * barrier-step drain equivalence (order/tail/groupCount/cap/aggregates
//    over a streamed upstream);
//  * early-termination cancellation racing the parallel multi-table
//    fan-out (a TSan target: Close() mid-stream must cleanly cancel
//    producers that have not started and join the ones that have).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/db2graph.h"
#include "gremlin/graph_api.h"
#include "linkbench/linkbench.h"
#include "linkbench/partitioned.h"

namespace db2graph::core {
namespace {

using gremlin::Traverser;

// Renders a traversal's result as an ordered list of strings; errors
// render too, so modes must agree on failures as well as results.
std::vector<std::string> RunOrdered(Db2Graph* graph, const std::string& q) {
  Result<std::vector<Traverser>> out = graph->Execute(q);
  if (!out.ok()) return {"ERROR: " + out.status().ToString()};
  std::vector<std::string> rendered;
  rendered.reserve(out->size());
  for (const Traverser& t : *out) rendered.push_back(t.ToString());
  return rendered;
}

// ------------------------------------------------------------------
// Block-boundary correctness + barrier drain equivalence.
// ------------------------------------------------------------------

// Partitioned LinkBench (10 vertex tables, 10 edge tables) with plain
// integer ids, so multi-table fan-out and table-order merging are always
// in play.
class StreamingEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    linkbench::Config config;
    config.num_vertices = 300;
    dataset_ = linkbench::GeneratePartitioned(config);
    ASSERT_TRUE(linkbench::LoadIntoPartitionedDatabase(&db_, dataset_).ok());
  }

  std::unique_ptr<Db2Graph> Open(bool streaming, size_t block_rows,
                                 bool vectorized = true) {
    Db2Graph::Options options;
    options.exec = ExecConfig()
                       .streaming(streaming)
                       .block_rows(block_rows)
                       .vectorized(vectorized);
    Result<std::unique_ptr<Db2Graph>> graph = Db2Graph::Open(
        &db_, linkbench::MakePartitionedOverlay(/*prefixed_ids=*/false),
        options);
    EXPECT_TRUE(graph.ok()) << graph.status().ToString();
    if (!graph.ok()) return nullptr;
    return std::move(*graph);
  }

  linkbench::Dataset dataset_;
  sql::Database db_;
};

TEST_F(StreamingEquivalenceTest, AllBlockSizesMatchMaterialized) {
  // Every family the pipeline carves differently: pure streaming chains,
  // limit/range short-circuits, stateful steps (dedup/store), barriers
  // (order/tail/groupCount/cap/count), adjacency in all directions, and
  // sub-traversal steps (where/not/repeat).
  const char* const kQueries[] = {
      "g.V()",
      "g.V().limit(1)",
      "g.V().limit(7)",
      "g.V().limit(1000)",
      "g.V().range(3, 11)",
      "g.V().range(0, 5)",
      "g.V().hasLabel('vt1')",
      "g.V().hasLabel('vt1').limit(5)",
      "g.V().has('version', 3).limit(4)",
      "g.V().id().limit(6)",
      "g.V().label().dedup()",
      "g.V().values('time').limit(9)",
      "g.V().valueMap('version').limit(3)",
      "g.V().dedup().limit(8)",
      "g.V().out().limit(6)",
      "g.V().out('et1')",
      "g.V().outE('et2').limit(3)",
      "g.V().in().limit(5)",
      "g.V().out().in().limit(4)",
      "g.V().both('et2').limit(5)",
      "g.V().both().count()",
      "g.E()",
      "g.E().limit(6)",
      "g.V().order().limit(5)",
      "g.V().values('time').order().tail(3)",
      "g.V().groupCount()",
      "g.V().count()",
      "g.V().out().count()",
      "g.V().store('s').limit(3).cap('s')",
      "g.V().limit(10).store('s').cap('s')",
      "g.V().where(outE('et1').count().is(gte(1))).limit(4)",
      "g.V().not(out('et1')).limit(5)",
      "g.V(5).repeat(out().dedup()).times(2)",
      "g.V().out().path().limit(4)",
      "g.V().out().simplePath().limit(5)",
  };

  std::unique_ptr<Db2Graph> materialized = Open(/*streaming=*/false, 256);
  ASSERT_NE(materialized, nullptr);
  const size_t kBlockSizes[] = {1, 7, 1024};
  for (const char* q : kQueries) {
    std::vector<std::string> expected = RunOrdered(materialized.get(), q);
    for (size_t block : kBlockSizes) {
      std::unique_ptr<Db2Graph> streaming = Open(/*streaming=*/true, block);
      ASSERT_NE(streaming, nullptr);
      EXPECT_EQ(expected, RunOrdered(streaming.get(), q))
          << q << " at block size " << block;
    }
  }
}

// The vectorized SQL path must be invisible above the RowStream seam:
// every block size produces identical ordered results whether the scans
// underneath run columnar kernels or the scalar operator tree.
TEST_F(StreamingEquivalenceTest, BlockSizesMatchUnderVectorizedAndScalar) {
  const char* const kQueries[] = {
      "g.V()",
      "g.V().limit(7)",
      "g.V().range(3, 11)",
      "g.V().hasLabel('vt1')",
      "g.V().has('version', 3).limit(4)",
      "g.V().values('time').limit(9)",
      "g.V().out('et1')",
      "g.V().out().in().limit(4)",
      "g.V().both().count()",
      "g.E().limit(6)",
      "g.V().values('time').order().tail(3)",
      "g.V().groupCount()",
      "g.V().where(outE('et1').count().is(gte(1))).limit(4)",
  };
  const size_t kBlockSizes[] = {1, 7, 1024};
  for (bool vectorized : {false, true}) {
    // Open() pushes the vectorized toggle onto the shared database, so
    // the baseline and its streaming counterparts are grouped per mode.
    std::unique_ptr<Db2Graph> materialized =
        Open(/*streaming=*/false, 256, vectorized);
    ASSERT_NE(materialized, nullptr);
    for (const char* q : kQueries) {
      std::vector<std::string> expected = RunOrdered(materialized.get(), q);
      for (size_t block : kBlockSizes) {
        std::unique_ptr<Db2Graph> streaming =
            Open(/*streaming=*/true, block, vectorized);
        ASSERT_NE(streaming, nullptr);
        EXPECT_EQ(expected, RunOrdered(streaming.get(), q))
            << q << " at block size " << block
            << (vectorized ? " (vectorized)" : " (scalar)");
      }
    }
  }
}

// ------------------------------------------------------------------
// Early termination, counter-asserted.
// ------------------------------------------------------------------

TEST(StreamingScanBudgetTest, LimitShortCircuitsSingleTableScan) {
  linkbench::Config config;
  config.num_vertices = 100000;
  config.edges_per_vertex = 0;  // vertex-scan test; links are irrelevant
  linkbench::Dataset dataset = linkbench::Generate(config);
  sql::Database db;
  ASSERT_TRUE(linkbench::LoadIntoDatabase(&db, dataset).ok());

  Result<std::unique_ptr<Db2Graph>> streaming =
      Db2Graph::Open(&db, linkbench::MakeOverlay());
  ASSERT_TRUE(streaming.ok());
  // The pre-streaming baseline: materialized interpretation AND no LIMIT
  // pushdown (both were introduced together; pushdown alone would bound
  // the baseline's scan through the SQL-side LimitOp). Both graphs share
  // the database's session config, so the mode is set per call.
  Db2Graph::Options mat_options;
  mat_options.strategies.limit_pushdown = false;
  Result<std::unique_ptr<Db2Graph>> materialized =
      Db2Graph::Open(&db, linkbench::MakeOverlay(), mat_options);
  ASSERT_TRUE(materialized.ok());

  const std::string q = "g.V().hasLabel('vt3').limit(10)";
  const uint64_t kBlock = 256;  // default streaming block size

  QueryTrace s_trace;
  QueryTrace m_trace;
  ExecOptions s_exec;
  s_exec.trace = &s_trace;
  ExecOptions m_exec;
  m_exec.trace = &m_trace;
  m_exec.config = ExecConfig().streaming(false);
  sql::ExecStats::Counts before = db.stats().Snapshot();
  Result<std::vector<Traverser>> s_out = (*streaming)->Execute(q, s_exec);
  sql::ExecStats::Counts mid = db.stats().Snapshot();
  Result<std::vector<Traverser>> m_out = (*materialized)->Execute(q, m_exec);
  sql::ExecStats::Counts after = db.stats().Snapshot();
  ASSERT_TRUE(s_out.ok()) << s_out.status().ToString();
  ASSERT_TRUE(m_out.ok()) << m_out.status().ToString();
  ASSERT_EQ(s_out->size(), 10u);

  // The two sides really ran different modes: only the streaming
  // pipeline pulls blocks.
  auto blocks = [](const QueryTrace& trace) {
    uint64_t n = 0;
    for (const StepTraceSpan& span : trace.Spans()) n += span.blocks;
    return n;
  };
  EXPECT_GT(blocks(s_trace), 0u);
  EXPECT_EQ(blocks(m_trace), 0u);

  // Identical results...
  std::vector<std::string> s_ids;
  std::vector<std::string> m_ids;
  for (const Traverser& t : *s_out) s_ids.push_back(t.ToString());
  for (const Traverser& t : *m_out) m_ids.push_back(t.ToString());
  EXPECT_EQ(s_ids, m_ids);

  // ...but the streaming side stops scanning. The label predicate is
  // pushed into the WHERE clause, so the LIMIT-bounded scan visits rows
  // until 10 match — an order of magnitude under the acceptance bound,
  // four under the materialized full drain.
  uint64_t streamed = mid.rows_scanned - before.rows_scanned;
  uint64_t drained = after.rows_scanned - mid.rows_scanned;
  EXPECT_LE(streamed, 10 * 10 + kBlock);  // ~1-in-10 label selectivity
  EXPECT_GE(drained, 100000u);
  EXPECT_LT(streamed, drained);

  // Unfiltered limit: the pull hint asks the SQL cursor for exactly the
  // rows the limit still accepts.
  before = db.stats().Snapshot();
  Result<std::vector<Traverser>> plain = (*streaming)->Execute("g.V().limit(10)");
  mid = db.stats().Snapshot();
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->size(), 10u);
  EXPECT_LE(mid.rows_scanned - before.rows_scanned, 10 + kBlock);

  // range(lo, hi) terminates at hi, not at the end of the table.
  before = db.stats().Snapshot();
  Result<std::vector<Traverser>> ranged =
      (*streaming)->Execute("g.V().range(100, 110)");
  mid = db.stats().Snapshot();
  ASSERT_TRUE(ranged.ok());
  EXPECT_EQ(ranged->size(), 10u);
  EXPECT_LE(mid.rows_scanned - before.rows_scanned, 110 + kBlock);
}

TEST(StreamingScanBudgetTest, LimitBudgetAppliesPerConsultedTable) {
  // Ten vertex tables, no label: the limit's per-table budget is rendered
  // as a SQL LIMIT in each table's statement, so even the tables the
  // consumer never reaches (the parallel producers may have started them)
  // scan at most the budget.
  linkbench::Config config;
  config.num_vertices = 20000;
  config.edges_per_vertex = 0;
  linkbench::Dataset dataset = linkbench::GeneratePartitioned(config);
  sql::Database db;
  ASSERT_TRUE(linkbench::LoadIntoPartitionedDatabase(&db, dataset).ok());
  Result<std::unique_ptr<Db2Graph>> graph = Db2Graph::Open(
      &db, linkbench::MakePartitionedOverlay(/*prefixed_ids=*/false));
  ASSERT_TRUE(graph.ok());

  sql::ExecStats::Counts before = db.stats().Snapshot();
  Result<std::vector<Traverser>> out = (*graph)->Execute("g.V().limit(10)");
  sql::ExecStats::Counts after = db.stats().Snapshot();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 10u);
  const uint64_t kTables = 10;
  const uint64_t kBlock = 256;
  EXPECT_LE(after.rows_scanned - before.rows_scanned,
            kTables * (10 + kBlock));
}

// ------------------------------------------------------------------
// Early-termination cancellation vs the parallel fan-out (TSan target).
// ------------------------------------------------------------------

class StreamingCancellationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    linkbench::Config config;
    config.num_vertices = 4000;
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

TEST_F(StreamingCancellationTest, CloseMidStreamRacesProducers) {
  // Directly drive the provider stream: pull a varying number of blocks
  // (including zero — Close before any Next cancels producers that may
  // not have started), then Close while the 10-table fan-out is running.
  for (int iter = 0; iter < 50; ++iter) {
    gremlin::LookupSpec spec;  // all tables
    Result<std::unique_ptr<gremlin::VertexStream>> stream =
        graph_->provider()->VerticesStreaming(spec);
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    std::vector<gremlin::VertexPtr> block;
    for (int pulls = 0; pulls < iter % 4; ++pulls) {
      if (!(*stream)->Next(&block, 8)) break;
      EXPECT_TRUE((*stream)->status().ok());
    }
    (*stream)->Close();
    (*stream)->Close();  // idempotent
  }
}

TEST_F(StreamingCancellationTest, LimitQueriesCancelCleanly) {
  // The same race through the full stack: a saturated limit closes the
  // stream while per-table producers are mid-scan.
  for (int iter = 0; iter < 50; ++iter) {
    Result<std::vector<Traverser>> out =
        graph_->Execute("g.V().limit(" + std::to_string(1 + iter % 7) + ")");
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out->size(), static_cast<size_t>(1 + iter % 7));
  }
}

}  // namespace
}  // namespace db2graph::core
