// Copyright (c) 2026 The db2graph-repro Authors.
//
// Concurrency stress coverage for the dop-governed multi-table fan-out and
// the sharded vertex cache: correct results under many concurrent
// sessionless GremlinService submits, nonzero parallel-batch/cache
// counters at dop 4, and
// write-epoch invalidation (a write provably flushes stale cache entries,
// including cached negative lookups). The ConcurrentReadersAndWriter and
// PreparedLookupsDuringIndexedDmlChurn cases are the primary TSan targets
// (see README "Sanitizers").

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/db2graph.h"
#include "core/gremlin_service.h"
#include "linkbench/linkbench.h"
#include "linkbench/partitioned.h"

namespace db2graph::core {
namespace {

using gremlin::Traverser;

// Partitioned LinkBench overlay with PLAIN integer ids: every g.V(id) must
// consult all 10 vertex tables (no prefix to pin a table), which is exactly
// the shape that exercises the fan-out and makes the cache worth filling.
class ConcurrencyStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    linkbench::Config config;
    config.num_vertices = 2000;
    dataset_ = linkbench::GeneratePartitioned(config);
    ASSERT_TRUE(linkbench::LoadIntoPartitionedDatabase(&db_, dataset_).ok());
    Result<std::unique_ptr<Db2Graph>> graph = Db2Graph::Open(
        &db_, linkbench::MakePartitionedOverlay(/*prefixed_ids=*/false));
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    graph_ = std::move(*graph);
  }

  Result<std::vector<Traverser>> Run(const std::string& script,
                                     const ExecConfig& config = {}) {
    ExecOptions options;
    options.config = config;
    return graph_->Execute(script, options);
  }

  linkbench::Dataset dataset_;
  sql::Database db_;
  std::unique_ptr<Db2Graph> graph_;
};

TEST_F(ConcurrencyStressTest, FanOutAndCacheCountersFire) {
  auto& stats = graph_->provider()->stats();
  stats.Reset();

  Result<std::vector<Traverser>> first =
      Run("g.V(17)", ExecConfig().parallelism(4));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->size(), 1u);
  EXPECT_EQ((*first)[0].vertex->id, Value(int64_t{17}));
  // Cold cache: the lookup missed, then fanned out over all 10 tables.
  EXPECT_GT(stats.Snapshot().cache_misses, 0u);
  EXPECT_EQ(stats.Snapshot().cache_hits, 0u);
  EXPECT_GT(stats.Snapshot().parallel_batches, 0u);
  EXPECT_GE(stats.Snapshot().parallel_tasks, 10u);

  uint64_t queries_before = graph_->dialect()->queries_issued();
  Result<std::vector<Traverser>> second =
      Run("g.V(17)", ExecConfig().parallelism(4));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_EQ(second->size(), 1u);
  EXPECT_EQ((*second)[0].vertex->id, Value(int64_t{17}));
  EXPECT_GT(stats.Snapshot().cache_hits, 0u);
  // The repeat was served entirely from the cache — no SQL at all.
  EXPECT_EQ(graph_->dialect()->queries_issued(), queries_before);
}

TEST_F(ConcurrencyStressTest, ConcurrentSubmitsReturnCorrectResults) {
  GremlinService::Options options = GremlinService::Options::WithWorkers(8);
  options.exec = ExecConfig().parallelism(4);
  GremlinService service(graph_.get(), options);
  auto& stats = graph_->provider()->stats();
  stats.Reset();

  constexpr int kRequests = 300;
  std::vector<std::future<GremlinService::Response>> futures;
  std::vector<int64_t> expected_ids;
  futures.reserve(kRequests);
  expected_ids.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    // Heavy repetition over a small id set so later requests hit the cache
    // while early ones are still fanning out.
    int64_t id = 1 + (i % 40);
    expected_ids.push_back(id);
    futures.push_back(service.Submit("g.V(" + std::to_string(id) + ")"));
  }
  for (int i = 0; i < kRequests; ++i) {
    GremlinService::Response response = futures[i].get();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->size(), 1u) << "request " << i;
    EXPECT_EQ((*response)[0].vertex->id, Value(expected_ids[i]));
  }
  EXPECT_EQ(service.completed(), static_cast<uint64_t>(kRequests));
  EXPECT_GT(stats.Snapshot().parallel_batches, 0u);
  EXPECT_GT(stats.Snapshot().cache_hits, 0u);
}

TEST_F(ConcurrencyStressTest, WriteInvalidatesCachedVertex) {
  // 42 % 10 == 2, so node 42 lives in Node_t2.
  Result<std::vector<Traverser>> before = Run("g.V(42)");
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_EQ(before->size(), 1u);

  // Confirm the entry is cached: a repeat issues no SQL.
  uint64_t queries_before = graph_->dialect()->queries_issued();
  ASSERT_TRUE(Run("g.V(42)").ok());
  ASSERT_EQ(graph_->dialect()->queries_issued(), queries_before);

  ASSERT_TRUE(
      db_.Execute("UPDATE Node_t2 SET version = 777 WHERE id = 42").ok());

  Result<std::vector<Traverser>> after = Run("g.V(42)");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_EQ(after->size(), 1u);
  const Value* version = (*after)[0].vertex->FindProperty("version");
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(*version, Value(int64_t{777}))
      << "read after write returned a stale cached vertex";
}

TEST_F(ConcurrencyStressTest, WriteInvalidatesCachedNegativeLookup) {
  // 99999 % 10 == 9, so once inserted the node belongs in Node_t9.
  ASSERT_TRUE(Run("g.V(99999)").ok());
  EXPECT_EQ(Run("g.V(99999)")->size(), 0u);  // cached "no such vertex"

  ASSERT_TRUE(
      db_.Execute("INSERT INTO Node_t9 VALUES (99999, 5, 12345, 'late')")
          .ok());

  Result<std::vector<Traverser>> after = Run("g.V(99999)");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_EQ(after->size(), 1u)
      << "insert did not flush the cached negative entry";
  EXPECT_EQ((*after)[0].vertex->id, Value(int64_t{99999}));
}

TEST_F(ConcurrencyStressTest, ConcurrentTracedQueriesDoNotInterleaveSpans) {
  // Each thread runs its own traced dop-4 query against a distinct vertex
  // id; the installed traces are per-thread (and per-fan-out-task via
  // ScopedTrace), so every SQL record must mention only that thread's id.
  // Primary TSan target for the tracing layer.
  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 25;
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t, &failures] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        // Distinct id per thread per iteration; ids do not overlap across
        // threads, so a cross-trace leak is detectable in the SQL text.
        // One shared script with a per-execution binding: every thread
        // executes the same cached plan concurrently.
        int64_t id = 1 + t * 500 + i;
        QueryTrace trace;
        ExecOptions opts;
        opts.trace = &trace;
        opts.config = ExecConfig().parallelism(4);
        opts.bindings = {{"vid", {Value(id)}}};
        Result<std::vector<Traverser>> out = graph_->Execute("g.V(vid)", opts);
        if (!out.ok() || out->size() != 1) {
          failures.fetch_add(1);
          continue;
        }
        // Point lookups render as `"id" IN (<id>)`.
        std::string expect = "(" + std::to_string(id) + ")";
        for (const StepTraceSpan& span : trace.Spans()) {
          for (const SqlTraceRecord& record : span.statements) {
            if (record.sql.find(expect) == std::string::npos) {
              failures.fetch_add(1);
            }
          }
        }
        // The fan-out consulted multiple tables; all must land here.
        bool saw_sql = false;
        for (const StepTraceSpan& span : trace.Spans()) {
          saw_sql |= !span.statements.empty();
        }
        if (!saw_sql) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ConcurrencyStressTest, ConcurrentReadersAndWriter) {
  constexpr int kReaders = 4;
  constexpr int kReadsPerReader = 150;
  constexpr int kWrites = 60;
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([this, r, &failures] {
      std::mt19937_64 rng(1000 + r);
      for (int i = 0; i < kReadsPerReader; ++i) {
        int64_t id = 1 + static_cast<int64_t>(rng() % 200);
        Result<std::vector<Traverser>> out =
            graph_->Execute("g.V(" + std::to_string(id) + ")");
        if (!out.ok() || out->size() != 1 ||
            (*out)[0].vertex->id != Value(id)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  std::thread writer([this, &failures] {
    for (int i = 0; i < kWrites; ++i) {
      int64_t id = 1 + (i % 200);
      std::string table = "Node_t" + std::to_string(id % 10);
      Result<sql::ResultSet> r = db_.Execute(
          "UPDATE " + table + " SET version = " + std::to_string(1000 + i) +
          " WHERE id = " + std::to_string(id));
      if (!r.ok()) failures.fetch_add(1);
    }
  });
  for (std::thread& t : readers) t.join();
  writer.join();
  EXPECT_EQ(failures.load(), 0);
}

// Four readers run a prepared g.V(vid) while two writers churn indexed
// UPDATE/DELETE/INSERT on the same Node_t* tables. Each writer owns half of
// ids 1..200 (so the final state is a deterministic replay) and stamps
// every row it writes with a fresh version k, time k*7 and data "v<k>".
// A reader must never see a torn row (a stamp whose columns disagree, or
// an original row that differs from the dataset) nor a row whose
// replacement or deletion had completed before its lookup started.
TEST_F(ConcurrencyStressTest, PreparedLookupsDuringIndexedDmlChurn) {
  constexpr int kReaders = 4;
  constexpr int kReadsPerReader = 150;
  constexpr int kWriters = 2;
  constexpr int kWritesPerWriter = 120;
  constexpr int64_t kIds = 200;
  constexpr int64_t kStampBase = 1000000;  // originals have version <= 16
  struct NodeRow {
    int64_t version;
    int64_t time;
    std::string data;
  };
  std::map<int64_t, NodeRow> original;
  for (const linkbench::Node& n : dataset_.nodes) {
    original[n.id] = {n.version, n.time, n.data};
  }
  auto stamp = [](int64_t k) {
    return NodeRow{k, k * 7, "v" + std::to_string(k)};
  };
  // Generation of a row: 0 for the dataset's rows, k for a stamped one.
  auto generation = [&](int64_t version) {
    return version >= kStampBase ? version : 0;
  };
  // Per id: the newest generation a completed write replaced or deleted,
  // and whether a delete was ever issued.
  std::vector<std::atomic<int64_t>> retired(kIds + 1);
  std::vector<std::atomic<int>> deletes(kIds + 1);
  for (int64_t id = 0; id <= kIds; ++id) {
    retired[id].store(-1);
    deletes[id].store(0);
  }

  Result<PreparedQuery> lookup = graph_->Prepare("g.V(vid)");
  ASSERT_TRUE(lookup.ok()) << lookup.status().ToString();
  std::atomic<int> failures{0};

  // Each writer's log of (id, row after the write; nullopt = deleted).
  std::vector<std::vector<std::pair<int64_t, std::optional<NodeRow>>>> logs(
      kWriters);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      std::mt19937_64 rng(7000 + w);
      std::vector<int64_t> owned;
      for (int64_t id = 1; id <= kIds; ++id) {
        if ((id / 10) % 2 == w) owned.push_back(id);
      }
      std::map<int64_t, std::optional<NodeRow>> current;
      for (int64_t id : owned) current[id] = original.at(id);
      for (int i = 0; i < kWritesPerWriter; ++i) {
        int64_t id = owned[rng() % owned.size()];
        std::optional<NodeRow>& row = current[id];
        const std::string table = "Node_t" + std::to_string(id % 10);
        const int64_t k = kStampBase + w * 100000 + i;
        const NodeRow next = stamp(k);
        const std::string values = std::to_string(next.version) + ", " +
                                   std::to_string(next.time) + ", '" +
                                   next.data + "'";
        std::string sql;
        std::optional<NodeRow> after;
        if (!row.has_value()) {
          sql = "INSERT INTO " + table + " VALUES (" + std::to_string(id) +
                ", " + values + ")";
          after = next;
        } else if (rng() % 3 != 0) {
          sql = "UPDATE " + table + " SET version = " +
                std::to_string(next.version) +
                ", time = " + std::to_string(next.time) + ", data = '" +
                next.data + "' WHERE id = " + std::to_string(id);
          after = next;
        } else {
          deletes[id].fetch_add(1);
          sql = "DELETE FROM " + table + " WHERE id = " + std::to_string(id);
        }
        Result<sql::ResultSet> r = db_.Execute(sql);
        if (!r.ok() || r->affected != 1) {
          failures.fetch_add(1);
          continue;
        }
        if (row.has_value()) retired[id].store(generation(row->version));
        row = after;
        logs[w].emplace_back(id, after);
      }
    });
  }

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937_64 rng(8000 + r);
      for (int i = 0; i < kReadsPerReader; ++i) {
        const int64_t id = 1 + static_cast<int64_t>(rng() % kIds);
        const int64_t floor = retired[id].load();
        Result<std::vector<Traverser>> out =
            lookup->Execute(gremlin::Environment{{"vid", {Value(id)}}});
        if (!out.ok() || out->size() > 1) {
          failures.fetch_add(1);
          continue;
        }
        if (out->empty()) {
          // Only a deleted id may be missing.
          if (deletes[id].load() == 0) failures.fetch_add(1);
          continue;
        }
        const gremlin::Vertex& v = *(*out)[0].vertex;
        const Value* version = v.FindProperty("version");
        const Value* time = v.FindProperty("time");
        const Value* data = v.FindProperty("data");
        if (v.id != Value(id) || version == nullptr || time == nullptr ||
            data == nullptr || !version->is_int()) {
          failures.fetch_add(1);
          continue;
        }
        const int64_t gen = generation(version->as_int());
        const NodeRow want = gen == 0 ? original.at(id) : stamp(gen);
        const bool torn = *version != Value(want.version) ||
                          *time != Value(want.time) ||
                          *data != Value(want.data);
        if (torn || gen <= floor) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : readers) t.join();
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // The tables equal the dataset with both writers' logs replayed serially
  // (their ids are disjoint, so any interleaving gives the same state).
  std::map<int64_t, NodeRow> expected = original;
  for (const auto& log : logs) {
    for (const auto& [id, after] : log) {
      if (after.has_value()) {
        expected[id] = *after;
      } else {
        expected.erase(id);
      }
    }
  }
  std::map<int64_t, NodeRow> actual;
  for (int t = 0; t < 10; ++t) {
    Result<sql::ResultSet> rs = db_.Execute(
        "SELECT id, version, time, data FROM Node_t" + std::to_string(t));
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    for (const Row& row : rs->rows) {
      actual[row[0].as_int()] = {row[1].as_int(), row[2].as_int(),
                                 row[3].as_string()};
    }
    // Every stamped id is still reachable through the primary key.
    for (const auto& [id, node] : expected) {
      if (id % 10 != t || node.version < kStampBase) continue;
      Result<sql::ResultSet> probe =
          db_.Execute("SELECT version FROM Node_t" + std::to_string(t) +
                      " WHERE id = " + std::to_string(id));
      ASSERT_TRUE(probe.ok());
      ASSERT_EQ(probe->rows.size(), 1u) << id;
      EXPECT_EQ(probe->rows[0][0], Value(node.version));
      EXPECT_EQ(probe->exec.full_scans, 0u);
    }
  }
  ASSERT_EQ(actual.size(), expected.size());
  for (const auto& [id, node] : expected) {
    auto it = actual.find(id);
    ASSERT_NE(it, actual.end()) << id;
    EXPECT_EQ(it->second.version, node.version) << id;
    EXPECT_EQ(it->second.time, node.time) << id;
    EXPECT_EQ(it->second.data, node.data) << id;
  }
}

}  // namespace
}  // namespace db2graph::core
