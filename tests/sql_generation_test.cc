// Asserts the exact SQL the Graph Structure module generates for the
// paper's signature query shapes (Section 6's examples), via the SQL
// Dialect trace. This pins the compile-time strategies and the runtime
// optimizations to concrete statements.

#include <gtest/gtest.h>

#include <cctype>

#include "core/db2graph.h"

namespace db2graph::core {
namespace {

// Whether `executed` is `preview` with each '?' — a value Explain cannot
// know because it binds at execution (endpoint ids) — replaced by one SQL
// literal.
bool MatchesPreview(const std::string& preview, const std::string& executed) {
  size_t e = 0;
  for (char c : preview) {
    if (c != '?') {
      if (e >= executed.size() || executed[e] != c) return false;
      ++e;
      continue;
    }
    size_t start = e;
    if (e < executed.size() && executed[e] == '\'') {
      // A quoted string; '' escapes a quote.
      for (++e; e < executed.size(); ++e) {
        if (executed[e] != '\'') continue;
        if (e + 1 < executed.size() && executed[e + 1] == '\'') {
          ++e;
        } else {
          break;
        }
      }
      if (e++ >= executed.size()) return false;
    } else {
      while (e < executed.size() &&
             (std::isalnum(static_cast<unsigned char>(executed[e])) ||
              executed[e] == '.' || executed[e] == '-')) {
        ++e;
      }
    }
    if (e == start) return false;
  }
  return e == executed.size();
}

class SqlGenerationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE Patient (
        patientID BIGINT PRIMARY KEY, name VARCHAR(40),
        address VARCHAR(40), subscriptionID BIGINT);
      CREATE TABLE Disease (
        diseaseID BIGINT PRIMARY KEY, conceptName VARCHAR(40));
      CREATE TABLE HasDisease (
        patientID BIGINT, diseaseID BIGINT, description VARCHAR(40));
      CREATE INDEX idx_hd_p ON HasDisease (patientID);
      INSERT INTO Patient VALUES (1, 'Alice', 'a', 101);
      INSERT INTO Disease VALUES (11, 't2d');
      INSERT INTO HasDisease VALUES (1, 11, 'dx');
    )sql")
                    .ok());
    auto graph = Db2Graph::Open(&db_, R"json({
      "v_tables": [
        {"table_name": "Patient", "prefixed_id": true,
         "id": "'patient'::patientID", "fix_label": true,
         "label": "'patient'",
         "properties": ["patientID", "name", "address", "subscriptionID"]},
        {"table_name": "Disease", "id": "diseaseID", "fix_label": true,
         "label": "'disease'", "properties": ["diseaseID", "conceptName"]}
      ],
      "e_tables": [
        {"table_name": "HasDisease", "src_v_table": "Patient",
         "src_v": "'patient'::patientID", "dst_v_table": "Disease",
         "dst_v": "diseaseID", "implicit_edge_id": true,
         "fix_label": true, "label": "'hasDisease'"}
      ]
    })json");
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    graph_ = std::move(*graph);
    graph_->dialect()->EnableTrace();
  }

  std::vector<std::string> Trace(const std::string& gremlin) {
    (void)graph_->dialect()->TakeTrace();
    auto out = graph_->Execute(gremlin);
    EXPECT_TRUE(out.ok()) << out.status().ToString() << " for " << gremlin;
    return graph_->dialect()->TakeTrace();
  }

  sql::Database db_;
  std::unique_ptr<Db2Graph> graph_;
};

TEST_F(SqlGenerationTest, PredicatePushdownProducesWhereClause) {
  // The paper's Section 6.2 example: g.V().has('name', 'Alice') becomes
  // "SELECT ... WHERE name = 'Alice'" — on the one table having `name`.
  std::vector<std::string> sql = Trace("g.V().has('name', 'Alice')");
  ASSERT_EQ(sql.size(), 1u);
  EXPECT_EQ(sql[0],
            "SELECT \"patientID\", \"name\", \"address\", "
            "\"subscriptionID\" FROM \"Patient\" WHERE \"name\" = 'Alice'");
}

TEST_F(SqlGenerationTest, ProjectionPushdownNarrowsSelectList) {
  // g.V().values('name','address') fetches only id + projected columns.
  std::vector<std::string> sql = Trace("g.V().values('name', 'address')");
  ASSERT_EQ(sql.size(), 1u);  // Disease pruned: has neither property
  EXPECT_EQ(sql[0],
            "SELECT \"patientID\", \"name\", \"address\" FROM \"Patient\"");
}

TEST_F(SqlGenerationTest, AggregatePushdownProducesSelectCount) {
  std::vector<std::string> sql =
      Trace("g.V().hasLabel('disease').count()");
  ASSERT_EQ(sql.size(), 1u);
  EXPECT_EQ(sql[0], "SELECT COUNT(*) FROM \"Disease\"");
}

TEST_F(SqlGenerationTest, MutationSkipsTheVertexFetch) {
  // g.V(id).outE(lbl): exactly one SQL, on the edge table, by source id.
  std::vector<std::string> sql =
      Trace("g.V('patient::1').outE('hasDisease')");
  ASSERT_EQ(sql.size(), 1u);
  EXPECT_EQ(sql[0],
            "SELECT \"patientID\", \"diseaseID\", \"description\" FROM "
            "\"HasDisease\" WHERE \"patientID\" IN (1)");
}

TEST_F(SqlGenerationTest, CombinedGetLinkShape) {
  // The paper's combined example: one SELECT COUNT(*) with src + dst.
  std::vector<std::string> sql = Trace(
      "g.V('patient::1').outE('hasDisease').where(inV().hasId(11))"
      ".count()");
  ASSERT_EQ(sql.size(), 1u);
  EXPECT_EQ(sql[0],
            "SELECT COUNT(*) FROM \"HasDisease\" WHERE \"patientID\" IN (1)"
            " AND \"diseaseID\" IN (11)");
}

TEST_F(SqlGenerationTest, ImplicitEdgeIdBecomesConjunctivePredicates) {
  // Section 6.3: the implicit id decomposes into src/dst conjuncts.
  std::vector<std::string> sql =
      Trace("g.E('patient::1::hasDisease::11')");
  ASSERT_EQ(sql.size(), 1u);
  EXPECT_EQ(sql[0],
            "SELECT \"patientID\", \"diseaseID\", \"description\" FROM "
            "\"HasDisease\" WHERE ((\"patientID\" = 1 AND \"diseaseID\" = "
            "11))");
}

TEST_F(SqlGenerationTest, PrefixedIdPinsOneTableWithUnprefixedColumns) {
  // 'patient'::1 pins Patient and strips the constant prefix.
  std::vector<std::string> sql = Trace("g.V('patient::1')");
  ASSERT_EQ(sql.size(), 1u);
  EXPECT_EQ(sql[0],
            "SELECT \"patientID\", \"name\", \"address\", "
            "\"subscriptionID\" FROM \"Patient\" WHERE \"patientID\" IN "
            "(1)");
}

TEST_F(SqlGenerationTest, EndpointFetchQueriesOnlyTheDeclaredTable) {
  // e.inV(): dst_v_table = Disease, so exactly one vertex query follows
  // the edge query.
  std::vector<std::string> sql =
      Trace("g.V('patient::1').outE('hasDisease').inV()");
  ASSERT_EQ(sql.size(), 2u);
  EXPECT_EQ(sql[1],
            "SELECT \"diseaseID\", \"conceptName\" FROM \"Disease\" WHERE "
            "\"diseaseID\" IN (11)");
}

TEST_F(SqlGenerationTest, NaiveModeQueriesEveryTable) {
  Db2Graph::Options naive;
  naive.strategies = StrategyOptions::AllOff();
  naive.runtime = RuntimeOptions::AllOff();
  naive.exec = ExecConfig().streaming(false).vectorized(false);
  auto graph = Db2Graph::Open(&db_, graph_->topology().config());
  // Reuse the same overlay config through the existing graph's topology.
  ASSERT_TRUE(graph.ok());
  auto naive_graph =
      Db2Graph::Open(&db_, graph_->topology().config(), naive);
  ASSERT_TRUE(naive_graph.ok());
  (*naive_graph)->dialect()->EnableTrace();
  auto out = (*naive_graph)->Execute("g.V('patient::1').hasLabel('patient')");
  ASSERT_TRUE(out.ok());
  std::vector<std::string> sql = (*naive_graph)->dialect()->TakeTrace();
  // Both vertex tables queried; the prefixed id cannot pin, so Disease is
  // scanned wholesale and filtered client-side.
  ASSERT_EQ(sql.size(), 2u);
  EXPECT_NE(sql[0].find("FROM \"Patient\""), std::string::npos);
  EXPECT_EQ(sql[1], "SELECT \"diseaseID\", \"conceptName\" FROM \"Disease\"");
}

TEST_F(SqlGenerationTest, ExplainPreviewsTheStatementsExecutionIssues) {
  // Explain and execution build each table's statement in one place, so
  // the preview of every shape is the SQL one execution issues, in order.
  for (const std::string q : {
           "g.V().hasLabel('disease').count()",
           "g.V('patient::1').outE('hasDisease').count()",
           "g.V('patient::1').outE('hasDisease')",
           "g.V('patient::1').out('hasDisease')",  // + pinned endpoint fetch
           "g.V().has('name', 'Alice').limit(1)",
           "g.V().values('name', 'address')",
           "g.V('patient::1')",
       }) {
    SCOPED_TRACE(q);
    Result<Db2Graph::ExplainResult> explain = graph_->Explain(q);
    ASSERT_TRUE(explain.ok()) << explain.status().ToString();
    std::vector<std::string> previewed;
    for (const Json& step : explain->json.Find("steps")->items()) {
      for (const Json& stmt : step.Find("statements")->items()) {
        previewed.push_back(stmt.Find("sql")->as_string());
      }
    }
    std::vector<std::string> executed = Trace(q);
    ASSERT_EQ(previewed.size(), executed.size());
    for (size_t i = 0; i < executed.size(); ++i) {
      EXPECT_TRUE(MatchesPreview(previewed[i], executed[i]))
          << "previewed: " << previewed[i] << "\nexecuted:  " << executed[i];
    }
  }
}

}  // namespace
}  // namespace db2graph::core
