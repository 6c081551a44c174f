// Tests for the Gremlin parser and the traversal interpreter, executed
// against the native in-memory provider.

#include <gtest/gtest.h>

#include "baselines/native_graph.h"
#include "gremlin/interpreter.h"
#include "gremlin/parser.h"

namespace db2graph::gremlin {
namespace {

using baselines::NativeGraphDb;

// A small healthcare-shaped graph mirroring the paper's Figure 2:
// patients --hasDisease--> diseases --isa--> diseases.
class GremlinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto vp = [&](int64_t id, const std::string& name, int64_t sub) {
      ASSERT_TRUE(db_.AddVertex(Value(id), "patient",
                                {{"name", Value(name)},
                                 {"subscriptionID", Value(sub)}})
                      .ok());
    };
    auto vd = [&](int64_t id, const std::string& concept_name) {
      ASSERT_TRUE(db_.AddVertex(Value(id), "disease",
                                {{"conceptName", Value(concept_name)}})
                      .ok());
    };
    vp(1, "Alice", 101);
    vp(2, "Bob", 102);
    vp(3, "Carol", 103);
    vd(10, "diabetes");
    vd(11, "type 2 diabetes");
    vd(12, "hypertension");
    vd(13, "metabolic disorder");
    int64_t eid = 100;
    auto e = [&](const std::string& label, int64_t s, int64_t d,
                 std::vector<std::pair<std::string, Value>> props = {}) {
      ASSERT_TRUE(
          db_.AddEdge(Value(eid++), label, Value(s), Value(d), props).ok());
    };
    e("hasDisease", 1, 11, {{"description", Value("diagnosed 2019")}});
    e("hasDisease", 2, 12);
    e("hasDisease", 3, 11);
    e("isa", 11, 10);  // type 2 diabetes isa diabetes
    e("isa", 10, 13);  // diabetes isa metabolic disorder
    e("isa", 12, 13);  // hypertension isa metabolic disorder
    ASSERT_TRUE(db_.Open().ok());
  }

  std::vector<Traverser> Run(const std::string& script_text) {
    Result<Script> script = ParseGremlin(script_text);
    EXPECT_TRUE(script.ok()) << script.status().ToString();
    if (!script.ok()) return {};
    Interpreter interp(&db_);
    Result<std::vector<Traverser>> out = interp.RunScript(*script);
    EXPECT_TRUE(out.ok()) << out.status().ToString() << " for "
                          << script_text;
    return out.ok() ? *out : std::vector<Traverser>{};
  }

  Value Single(const std::string& script_text) {
    std::vector<Traverser> out = Run(script_text);
    EXPECT_EQ(out.size(), 1u) << script_text;
    if (out.empty()) return Value::Null();
    return out[0].kind == Traverser::Kind::kValue ? out[0].value
                                                  : out[0].DedupKey();
  }

  NativeGraphDb db_;
};

TEST_F(GremlinTest, CountAllVertices) {
  EXPECT_EQ(Single("g.V().count()"), Value(int64_t{7}));
}

TEST_F(GremlinTest, CountAllEdges) {
  EXPECT_EQ(Single("g.E().count()"), Value(int64_t{6}));
}

TEST_F(GremlinTest, VertexById) {
  std::vector<Traverser> out = Run("g.V(1)");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].vertex->label, "patient");
}

TEST_F(GremlinTest, HasLabelFilters) {
  EXPECT_EQ(Single("g.V().hasLabel('patient').count()"), Value(int64_t{3}));
  EXPECT_EQ(Single("g.V().hasLabel('disease').count()"), Value(int64_t{4}));
}

TEST_F(GremlinTest, HasPropertyEquality) {
  std::vector<Traverser> out = Run("g.V().has('name', 'Alice')");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].vertex->id, Value(int64_t{1}));
}

TEST_F(GremlinTest, HasWithPredicate) {
  EXPECT_EQ(Single("g.V().has('subscriptionID', gt(101)).count()"),
            Value(int64_t{2}));
  EXPECT_EQ(Single("g.V().has('subscriptionID', within(101, 103)).count()"),
            Value(int64_t{2}));
}

TEST_F(GremlinTest, HasExistence) {
  EXPECT_EQ(Single("g.V().has('conceptName').count()"), Value(int64_t{4}));
}

TEST_F(GremlinTest, OutTraversal) {
  std::vector<Traverser> out = Run("g.V(1).out('hasDisease')");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].vertex->id, Value(int64_t{11}));
}

TEST_F(GremlinTest, OutEReturnsEdgesWithProperties) {
  std::vector<Traverser> out = Run("g.V(1).outE('hasDisease')");
  ASSERT_EQ(out.size(), 1u);
  const Value* desc = out[0].edge->FindProperty("description");
  ASSERT_NE(desc, nullptr);
  EXPECT_EQ(*desc, Value("diagnosed 2019"));
}

TEST_F(GremlinTest, InTraversal) {
  EXPECT_EQ(Single("g.V(11).in('hasDisease').count()"), Value(int64_t{2}));
}

TEST_F(GremlinTest, BothTraversal) {
  // Vertex 10 (diabetes): in from 11, out to 13.
  EXPECT_EQ(Single("g.V(10).both('isa').count()"), Value(int64_t{2}));
}

TEST_F(GremlinTest, EdgeVertexSteps) {
  std::vector<Traverser> out = Run("g.V(1).outE('hasDisease').inV()");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].vertex->id, Value(int64_t{11}));
  out = Run("g.V(1).outE('hasDisease').outV()");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].vertex->id, Value(int64_t{1}));
}

TEST_F(GremlinTest, ValuesProjection) {
  std::vector<Traverser> out = Run("g.V(1).values('name')");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value, Value("Alice"));
}

TEST_F(GremlinTest, MultiKeyValuesEmitInKeyOrder) {
  std::vector<Traverser> out =
      Run("g.V(1).values('name', 'subscriptionID')");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].value, Value("Alice"));
  EXPECT_EQ(out[1].value, Value(int64_t{101}));
}

TEST_F(GremlinTest, IdAndLabelSteps) {
  EXPECT_EQ(Single("g.V(1).id()"), Value(int64_t{1}));
  EXPECT_EQ(Single("g.V(1).label()"), Value("patient"));
}

TEST_F(GremlinTest, DedupRemovesDuplicates) {
  // Both Alice and Carol have disease 11.
  EXPECT_EQ(Single("g.V().hasLabel('patient').out('hasDisease').count()"),
            Value(int64_t{3}));
  EXPECT_EQ(
      Single("g.V().hasLabel('patient').out('hasDisease').dedup().count()"),
      Value(int64_t{2}));
}

TEST_F(GremlinTest, LimitAndRange) {
  EXPECT_EQ(Single("g.V().limit(3).count()"), Value(int64_t{3}));
  EXPECT_EQ(Single("g.V().range(2, 5).count()"), Value(int64_t{3}));
}

TEST_F(GremlinTest, OrderSortsValues) {
  std::vector<Traverser> out =
      Run("g.V().hasLabel('patient').values('name').order()");
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].value, Value("Alice"));
  EXPECT_EQ(out[2].value, Value("Carol"));
  out = Run("g.V().hasLabel('patient').values('name').order('desc')");
  EXPECT_EQ(out[0].value, Value("Carol"));
}

TEST_F(GremlinTest, SumMeanMinMax) {
  EXPECT_EQ(Single("g.V().hasLabel('patient').values('subscriptionID')"
                   ".sum()"),
            Value(int64_t{306}));
  EXPECT_EQ(Single("g.V().hasLabel('patient').values('subscriptionID')"
                   ".mean()"),
            Value(102.0));
  EXPECT_EQ(Single("g.V().hasLabel('patient').values('subscriptionID')"
                   ".min()"),
            Value(int64_t{101}));
  EXPECT_EQ(Single("g.V().hasLabel('patient').values('subscriptionID')"
                   ".max()"),
            Value(int64_t{103}));
}

TEST_F(GremlinTest, RepeatTimesWalksOntology) {
  // 11 -isa-> 10 -isa-> 13.
  std::vector<Traverser> out = Run("g.V(11).repeat(out('isa')).times(2)");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].vertex->id, Value(int64_t{13}));
}

TEST_F(GremlinTest, RepeatEmitCollectsEveryHop) {
  std::vector<Traverser> out =
      Run("g.V(11).repeat(out('isa')).times(2).emit()");
  ASSERT_EQ(out.size(), 2u);  // 10 then 13
}

TEST_F(GremlinTest, StoreAndCapAccumulate) {
  std::vector<Traverser> out =
      Run("g.V(11).repeat(out('isa').dedup().store('x')).times(2).cap('x')");
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].kind, Traverser::Kind::kList);
  EXPECT_EQ(out[0].list.size(), 2u);  // ids 10 and 13
}

TEST_F(GremlinTest, WhereSubTraversalFiltersEdges) {
  // getLink shape: edge from 1 with a specific destination.
  EXPECT_EQ(
      Single("g.V(1).outE('hasDisease').where(inV().hasId(11)).count()"),
      Value(int64_t{1}));
  EXPECT_EQ(
      Single("g.V(1).outE('hasDisease').where(inV().hasId(12)).count()"),
      Value(int64_t{0}));
}

TEST_F(GremlinTest, NotSubTraversal) {
  // Patients with no hasDisease edge to 11.
  EXPECT_EQ(Single("g.V().hasLabel('patient')"
                   ".not(out('hasDisease').hasId(11)).count()"),
            Value(int64_t{1}));
}

TEST_F(GremlinTest, ScriptVariablesFlowBetweenStatements) {
  std::vector<Traverser> out = Run(
      "sick = g.V(1).out('hasDisease').id();"
      "g.V(sick).in('hasDisease').values('name').order()");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].value, Value("Alice"));
  EXPECT_EQ(out[1].value, Value("Carol"));
}

TEST_F(GremlinTest, PaperSectionFourSimilarDiseaseQuery) {
  // The similar-disease traversal of Section 4, on the toy ontology with
  // 1-hop fan instead of 2 (also exercises cap + variable reuse).
  std::vector<Traverser> out = Run(
      "similar = g.V().hasLabel('patient').has('name', 'Alice')"
      ".out('hasDisease')"
      ".repeat(out('isa').dedup().store('x')).times(2)"
      ".repeat(in('isa').dedup().store('x')).times(2)"
      ".cap('x').next();"
      "g.V(similar).in('hasDisease').dedup().values('name')");
  // Similar diseases of Alice's t2d: up {10,13}, then down from there
  // {11,12,10}; patients with any of those: Alice, Bob, Carol.
  ASSERT_EQ(out.size(), 3u);
}

TEST_F(GremlinTest, ValueMapRendersProperties) {
  std::vector<Traverser> out = Run("g.V(1).valueMap('name')");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value, Value("{name: Alice}"));
}

TEST_F(GremlinTest, TraversersToRowsGroupsByArity) {
  std::vector<Traverser> out =
      Run("g.V().hasLabel('patient').values('name', 'subscriptionID')");
  Result<std::vector<Row>> rows = TraversersToRows(out, 2);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);
  EXPECT_EQ((*rows)[0].size(), 2u);
}

TEST_F(GremlinTest, TraversersToRowsRejectsArityMismatch) {
  std::vector<Traverser> out = Run("g.V().hasLabel('patient').values('name')");
  EXPECT_FALSE(TraversersToRows(out, 2).ok());
}

TEST_F(GremlinTest, ParseErrors) {
  EXPECT_FALSE(ParseGremlin("g.V().unknownStep()").ok());
  EXPECT_FALSE(ParseGremlin("g.V(").ok());
  EXPECT_FALSE(ParseGremlin("").ok());
  EXPECT_FALSE(ParseGremlin("notg.V()").ok());
  EXPECT_FALSE(ParseGremlin("g.V().has()").ok());
  EXPECT_FALSE(ParseGremlin("g.V().times(2)").ok());
}

// Sub-traversal nesting is bounded: 10k nested where(__.out(...)) fails
// with InvalidArgument instead of overflowing the stack, and ordinary
// nesting still parses.
TEST(GremlinParseTest, DeepNestingFailsCleanly) {
  auto nested = [](int depth) {
    std::string script = "g.V()";
    for (int i = 0; i < depth; ++i) script += ".where(__.out()";
    return script + std::string(depth, ')');
  };
  EXPECT_TRUE(ParseGremlin(nested(50)).ok());
  Result<Script> deep = ParseGremlin(nested(10000));
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(deep.status().code(), StatusCode::kInvalidArgument)
      << deep.status().ToString();
}

TEST_F(GremlinTest, PlanRendering) {
  Result<Traversal> t =
      ParseTraversal("g.V(1).outE('hasDisease').count()");
  ASSERT_TRUE(t.ok());
  std::string plan = t->ToString();
  EXPECT_NE(plan.find("GraphStep"), std::string::npos);
  EXPECT_NE(plan.find("VertexStep"), std::string::npos);
  EXPECT_NE(plan.find("AggregateStep"), std::string::npos);
}

TEST_F(GremlinTest, UnboundVariableFails) {
  Result<Script> script = ParseGremlin("g.V(nothere).count()");
  ASSERT_TRUE(script.ok());
  Interpreter interp(&db_);
  Result<std::vector<Traverser>> out = interp.RunScript(*script);
  EXPECT_FALSE(out.ok());
}

}  // namespace
}  // namespace db2graph::gremlin
