// Tests for the Gremlin Server analog: concurrent sessionless requests,
// sessioned variable persistence, session isolation, and clean shutdown.

#include <gtest/gtest.h>

#include "core/gremlin_service.h"

namespace db2graph::core {
namespace {

using gremlin::Traverser;

class GremlinServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE N (id BIGINT PRIMARY KEY, score BIGINT);
      CREATE TABLE E2 (eid BIGINT PRIMARY KEY, src BIGINT, dst BIGINT);
      CREATE INDEX idx_src ON E2 (src);
      INSERT INTO N VALUES (1, 10), (2, 20), (3, 30);
      INSERT INTO E2 VALUES (100, 1, 2), (101, 2, 3), (102, 1, 3);
    )sql")
                    .ok());
    auto graph = Db2Graph::Open(&db_, R"json({
      "v_tables": [{"table_name": "N", "id": "id", "fix_label": true,
                    "label": "'n'", "properties": ["score"]}],
      "e_tables": [{"table_name": "E2", "src_v_table": "N", "src_v": "src",
                    "dst_v_table": "N", "dst_v": "dst",
                    "implicit_edge_id": true, "fix_label": true,
                    "label": "'e'"}]
    })json");
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    graph_ = std::move(*graph);
  }

  sql::Database db_;
  std::unique_ptr<Db2Graph> graph_;
};

TEST_F(GremlinServiceTest, SessionlessRequestsExecute) {
  GremlinService service(graph_.get(),
                         GremlinService::Options::WithWorkers(2));
  auto f1 = service.Submit("g.V().count()");
  auto f2 = service.Submit("g.E().count()");
  auto r1 = f1.get();
  auto r2 = f2.get();
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ((*r1)[0].value, Value(int64_t{3}));
  EXPECT_EQ((*r2)[0].value, Value(int64_t{3}));
  EXPECT_EQ(service.completed(), 2u);
}

TEST_F(GremlinServiceTest, ParseErrorsReturnAsStatuses) {
  GremlinService service(graph_.get(),
                         GremlinService::Options::WithWorkers(1));
  auto result = service.Submit("g.V().noSuchStep()").get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnsupported);
}

TEST_F(GremlinServiceTest, SessionsKeepVariablesAcrossRequests) {
  GremlinService service(graph_.get(),
                         GremlinService::Options::WithWorkers(2));
  // First request binds a variable; the second uses it.
  auto r1 = service.SubmitSession("s1", "friends = g.V(1).out('e').id()")
                .get();
  ASSERT_TRUE(r1.ok());
  auto r2 =
      service.SubmitSession("s1", "g.V(friends).values('score').sum()")
          .get();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ((*r2)[0].value, Value(int64_t{50}));  // 20 + 30
}

TEST_F(GremlinServiceTest, SessionsAreIsolated) {
  GremlinService service(graph_.get(),
                         GremlinService::Options::WithWorkers(2));
  (void)service.SubmitSession("a", "x = g.V(1).id()").get();
  auto other = service.SubmitSession("b", "g.V(x).count()").get();
  ASSERT_FALSE(other.ok());  // 'x' is not bound in session b
  EXPECT_EQ(other.status().code(), StatusCode::kNotFound);
}

TEST_F(GremlinServiceTest, SessionlessHasNoBindings) {
  GremlinService service(graph_.get(),
                         GremlinService::Options::WithWorkers(1));
  (void)service.SubmitSession("a", "x = g.V(1).id()").get();
  auto result = service.Submit("g.V(x).count()").get();
  EXPECT_FALSE(result.ok());
}

TEST_F(GremlinServiceTest, CloseSessionDropsBindings) {
  GremlinService service(graph_.get(),
                         GremlinService::Options::WithWorkers(1));
  (void)service.SubmitSession("a", "x = g.V(1).id()").get();
  service.CloseSession("a");
  auto result = service.SubmitSession("a", "g.V(x).count()").get();
  EXPECT_FALSE(result.ok());
}

TEST_F(GremlinServiceTest, ManyConcurrentClients) {
  GremlinService service(graph_.get(),
                         GremlinService::Options::WithWorkers(4));
  std::vector<std::future<GremlinService::Response>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(
        service.Submit("g.V(" + std::to_string(1 + i % 3) + ").count()"));
  }
  for (auto& f : futures) {
    auto r = f.get();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ((*r)[0].value, Value(int64_t{1}));
  }
  EXPECT_EQ(service.completed(), 200u);
}

TEST_F(GremlinServiceTest, ShutdownWithPendingWorkIsClean) {
  auto service = std::make_unique<GremlinService>(
      graph_.get(), GremlinService::Options::WithWorkers(1));
  std::vector<std::future<GremlinService::Response>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(service->Submit("g.V().count()"));
  }
  service.reset();  // joins workers; unprocessed requests get a status
  for (auto& f : futures) {
    (void)f.get();  // must not hang or throw
  }
}

TEST_F(GremlinServiceTest, SessionlessRequestsCarryBindings) {
  GremlinService service(graph_.get(),
                         GremlinService::Options::WithWorkers(2));
  auto out = service
                 .Submit("g.V(vid).values('score')",
                         {{"vid", {Value(int64_t{2})}}})
                 .get();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0].value, Value(int64_t{20}));
}

TEST_F(GremlinServiceTest, SessionBindingsPersistLikeAssignments) {
  GremlinService service(graph_.get(),
                         GremlinService::Options::WithWorkers(2));
  auto first = service
                   .SubmitSession("s", "g.V(vid).out('e').count()",
                                  {{"vid", {Value(int64_t{1})}}})
                   .get();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ((*first)[0].value, Value(int64_t{2}));
  // The binding installed by the first request is still visible.
  auto second = service.SubmitSession("s", "g.V(vid).id()").get();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_EQ(second->size(), 1u);
  EXPECT_EQ((*second)[0].value, Value(int64_t{1}));
}

TEST_F(GremlinServiceTest, SessionRequestsExecuteInSubmissionOrder) {
  // Fire a burst of assignments into one session without waiting between
  // them; serialization in submission order means the last assignment
  // wins, whatever worker executed each request.
  GremlinService service(graph_.get(),
                         GremlinService::Options::WithWorkers(4));
  std::vector<std::future<GremlinService::Response>> futures;
  for (int i = 1; i <= 3; ++i) {
    for (int round = 0; round < 10; ++round) {
      futures.push_back(service.SubmitSession(
          "s", "last = g.V(" + std::to_string(i) + ").id()"));
    }
  }
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());
  auto out = service.SubmitSession("s", "g.V(last).values('score')").get();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0].value, Value(int64_t{30}));
}

TEST_F(GremlinServiceTest, OneSlowSessionDoesNotPinEveryWorker) {
  // A burst on one session may occupy at most one worker at a time; with
  // two workers, interleaved sessionless requests and a second session
  // must all complete even while session "hog" has a deep backlog.
  GremlinService service(graph_.get(),
                         GremlinService::Options::WithWorkers(2));
  std::vector<std::future<GremlinService::Response>> hog;
  for (int i = 0; i < 50; ++i) {
    hog.push_back(service.SubmitSession("hog", "g.V().count()"));
  }
  std::vector<std::future<GremlinService::Response>> others;
  for (int i = 0; i < 25; ++i) {
    others.push_back(service.Submit("g.V(1).count()"));
    others.push_back(service.SubmitSession("other", "g.V(2).count()"));
  }
  for (auto& f : hog) ASSERT_TRUE(f.get().ok());
  for (auto& f : others) ASSERT_TRUE(f.get().ok());
  EXPECT_EQ(service.completed(), 100u);
  EXPECT_EQ(service.queue_depth(), 0u);
}

TEST_F(GremlinServiceTest, CloseSessionFailsRequestsAwaitingTheirTurn) {
  // With a single worker and a queue full of sessionless work, sessioned
  // requests past the first sit on the session's pending queue; closing
  // the session fails them with Unavailable.
  GremlinService service(graph_.get(),
                         GremlinService::Options::WithWorkers(1));
  std::vector<std::future<GremlinService::Response>> filler;
  for (int i = 0; i < 30; ++i) {
    filler.push_back(service.Submit("g.V().count()"));
  }
  auto first = service.SubmitSession("s", "g.V().count()");
  auto second = service.SubmitSession("s", "g.V().count()");
  auto third = service.SubmitSession("s", "g.V().count()");
  service.CloseSession("s");
  for (auto& f : filler) ASSERT_TRUE(f.get().ok());
  // The first request was already admitted to the worker queue and runs;
  // later ones either ran (if the worker got to them before the close) or
  // failed with Unavailable — never hang.
  ASSERT_TRUE(first.get().ok());
  for (auto* f : {&second, &third}) {
    auto r = f->get();
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
    }
  }
}

// WithWorkers(n) leaves the queue unbounded: a batch submitted far
// ahead of the workers is never shed.
TEST_F(GremlinServiceTest, WithWorkersLeavesTheQueueUnbounded) {
  GremlinService service(graph_.get(),
                         GremlinService::Options::WithWorkers(2));
  std::vector<std::future<GremlinService::Response>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(service.Submit("g.V().count()"));
  }
  for (auto& f : futures) {
    auto out = f.get();
    ASSERT_TRUE(out.ok()) << out.status().ToString();
  }
  EXPECT_EQ(service.shed(), 0u);
}

TEST_F(GremlinServiceTest, ServiceExecConfigAppliesToEveryRequest) {
  GremlinService::Options options = GremlinService::Options::WithWorkers(2);
  options.exec = ExecConfig().parallelism(4);
  GremlinService service(graph_.get(), options);
  auto out = service.Submit("g.V().count()").get();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0].value, Value(int64_t{3}));
}

}  // namespace
}  // namespace db2graph::core
