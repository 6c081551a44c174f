// Google-benchmark microbenchmarks for the individual components: Gremlin
// compilation, strategy application, SQL parse/prepare/execute paths,
// overlay id composition, and the baseline record codec. These quantify
// the fixed per-query costs that the end-to-end figures are built from.

#include <benchmark/benchmark.h>

#include "baselines/codec.h"
#include "core/db2graph.h"
#include "core/strategies.h"
#include "gremlin/parser.h"
#include "linkbench/linkbench.h"
#include "overlay/topology.h"
#include "sql/database.h"
#include "sql/parser.h"

namespace {

using namespace db2graph;  // NOLINT(build/namespaces) bench-local

// ---------------------------------------------------------------- gremlin

void BM_GremlinParseGetLink(benchmark::State& state) {
  const std::string q =
      "g.V(123).outE('et3').where(inV().hasId(456))";
  for (auto _ : state) {
    auto script = gremlin::ParseGremlin(q);
    benchmark::DoNotOptimize(script);
  }
}
BENCHMARK(BM_GremlinParseGetLink);

void BM_GremlinParseSectionFourQuery(benchmark::State& state) {
  const std::string q =
      "similar = g.V().hasLabel('patient').has('patientID', 1)"
      ".out('hasDisease')"
      ".repeat(out('isa').dedup().store('x')).times(2)"
      ".repeat(in('isa').dedup().store('x')).times(2).cap('x').next();"
      "g.V(similar).in('hasDisease').dedup().values('patientID')";
  for (auto _ : state) {
    auto script = gremlin::ParseGremlin(q);
    benchmark::DoNotOptimize(script);
  }
}
BENCHMARK(BM_GremlinParseSectionFourQuery);

void BM_ApplyStrategies(benchmark::State& state) {
  auto script =
      gremlin::ParseGremlin("g.V(123).outE('et3').where(inV().hasId(456))"
                            ".count()");
  for (auto _ : state) {
    gremlin::Script copy = *script;
    core::ApplyStrategies(&copy);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_ApplyStrategies);

// -------------------------------------------------------------------- sql

class SqlFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State&) override {
    if (db) return;
    db = std::make_unique<sql::Database>();
    linkbench::Config config;
    config.num_vertices = 20000;
    auto dataset = linkbench::Generate(config);
    if (!linkbench::LoadIntoDatabase(db.get(), dataset).ok()) std::abort();
  }
  void TearDown(const benchmark::State&) override {}
  static std::unique_ptr<sql::Database> db;
};
std::unique_ptr<sql::Database> SqlFixture::db;

BENCHMARK_F(SqlFixture, BM_SqlParseSelect)(benchmark::State& state) {
  const std::string q =
      "SELECT id, ntype, data FROM Node WHERE id = 17 AND ntype = 'vt3'";
  for (auto _ : state) {
    auto stmt = sql::ParseSql(q);
    benchmark::DoNotOptimize(stmt);
  }
}

BENCHMARK_F(SqlFixture, BM_PreparedIndexProbe)(benchmark::State& state) {
  auto prepared = db->Prepare("SELECT * FROM Node WHERE id = ?");
  if (!prepared.ok()) std::abort();
  int64_t id = 1;
  for (auto _ : state) {
    auto rs = prepared->Execute({Value(id)});
    benchmark::DoNotOptimize(rs);
    id = id % 20000 + 1;
  }
}

BENCHMARK_F(SqlFixture, BM_PreparedAdjacencyProbe)(benchmark::State& state) {
  auto prepared = db->Prepare(
      "SELECT * FROM Link WHERE id1 = ? AND ltype = ?");
  if (!prepared.ok()) std::abort();
  int64_t id = 1;
  for (auto _ : state) {
    auto rs = prepared->Execute({Value(id), Value("et3")});
    benchmark::DoNotOptimize(rs);
    id = id % 20000 + 1;
  }
}

BENCHMARK_F(SqlFixture, BM_AggregatePushdownCount)(benchmark::State& state) {
  auto prepared =
      db->Prepare("SELECT COUNT(*) FROM Link WHERE id1 = ?");
  if (!prepared.ok()) std::abort();
  int64_t id = 1;
  for (auto _ : state) {
    auto rs = prepared->Execute({Value(id)});
    benchmark::DoNotOptimize(rs);
    id = id % 20000 + 1;
  }
}

BENCHMARK_F(SqlFixture, BM_FullScanFilter)(benchmark::State& state) {
  // The access path the naive (no-pushdown) plans pay: scan + filter.
  for (auto _ : state) {
    auto rs = db->Execute("SELECT COUNT(*) FROM Node WHERE version = 3");
    benchmark::DoNotOptimize(rs);
  }
}

// ------------------------------------------------------------------ codec

// Properties of a LinkBench-style vertex record. Built in place: GCC 12
// raises a -Wmaybe-uninitialized false positive on pairs move-built from
// Value temporaries under -fsanitize=undefined.
std::vector<std::pair<std::string, Value>> VertexRecordProps() {
  std::vector<std::pair<std::string, Value>> props;
  props.reserve(3);
  props.emplace_back("version", int64_t{3});
  props.emplace_back("time", int64_t{1234567890});
  props.emplace_back("data", "abcdefghijklmnopqrstuvwx");
  return props;
}

void BM_CodecEncodeVertexRecord(benchmark::State& state) {
  std::vector<std::pair<std::string, Value>> props = VertexRecordProps();
  for (auto _ : state) {
    std::string blob;
    baselines::PutValue(Value(int64_t{42}), &blob);
    baselines::PutString("vt3", &blob);
    baselines::PutProperties(props, &blob);
    benchmark::DoNotOptimize(blob);
  }
}
BENCHMARK(BM_CodecEncodeVertexRecord);

void BM_CodecDecodeVertexRecord(benchmark::State& state) {
  std::string blob;
  baselines::PutValue(Value(int64_t{42}), &blob);
  baselines::PutString("vt3", &blob);
  baselines::PutProperties(VertexRecordProps(), &blob);
  for (auto _ : state) {
    baselines::Decoder dec(blob);
    Value id;
    std::string label;
    std::vector<std::pair<std::string, Value>> props;
    (void)dec.GetValue(&id);
    (void)dec.GetString(&label);
    (void)baselines::GetProperties(&dec, &props);
    benchmark::DoNotOptimize(props);
  }
}
BENCHMARK(BM_CodecDecodeVertexRecord);

// ---------------------------------------------------------------- overlay

void BM_OverlayIdComposeDecompose(benchmark::State& state) {
  auto def = overlay::FieldDef::Parse("'patient'::patientID");
  overlay::ResolvedField field;
  field.def = *def;
  field.column_indexes = {0};
  Row row = {Value(int64_t{12345})};
  for (auto _ : state) {
    Value id = field.Compose(row);
    auto back = field.Decompose(id);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_OverlayIdComposeDecompose);

}  // namespace

BENCHMARK_MAIN();
