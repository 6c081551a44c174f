// Copyright (c) 2026 The db2graph-repro Authors.
//
// Smoke benchmark guarding two performance contracts, failing with a
// nonzero exit (so ctest reports it) when either is breached:
//
//  1. Tracing is "zero cost when disabled": the same point-lookup workload
//     runs untraced and traced (by arming the slow-query threshold, which
//     routes queries through the traced path without ever logging them),
//     and traced throughput must stay above a floor fraction of untraced.
//
//  2. Prepared execution beats re-parsing: a 95%-repeated LinkBench mix
//     (three prepared shapes executed with bindings, plus 5% ad-hoc
//     unique scripts) must out-run the same logical queries issued as
//     text with inlined ids and the plan cache disabled — the legacy
//     parse-per-call path. The prepared portion is additionally required
//     to make ZERO ParseGremlin calls, verified via the parse-call
//     counter. Results land in BENCH_prepared.json.
//
//  3. Vectorized block execution beats the scalar operator tree on the
//     workload it exists for: a full-scan + aggregate SQL mix over a
//     column-store table must run at least as fast vectorized as scalar
//     (in practice it wins by multiples — typed kernels never materialize
//     Rows). Results land in BENCH_vectorized.json.
//
//  4. Streaming execution pays off where it should: on a limit-heavy mix
//     over a larger partitioned dataset, the streaming pipeline must be
//     at least as fast as the pre-streaming baseline (materialized
//     interpretation, no LIMIT pushdown) AND scan strictly fewer SQL
//     rows; on a full-scan mix (where streaming can only add block
//     bookkeeping) it must stay within a loose overhead floor. Results
//     land in BENCH_streaming.json.
//
//  5. Monitoring is affordable when armed: the same SQL mix runs with all
//     observability instrumentation off (query log disabled, no
//     profiling) and fully on (query log recording + per-operator
//     EXPLAIN ANALYZE profiling on every statement), and the instrumented
//     throughput must stay at or above 0.9x uninstrumented. Results land
//     in BENCH_observability.json.
//
//  6. Governance is near-free: the streaming limit mix runs ungoverned
//     and then governed with generous limits (deadline, row and memory
//     budgets all far from tripping — every block-boundary check, charge
//     and release actually executes), and governed throughput must stay
//     at or above 0.95x ungoverned. Results land in BENCH_governor.json.
//
//  7. Morsel-driven parallelism pays where cores exist and costs nothing
//     where they don't: the full-scan aggregate SQL mix and a Gremlin
//     groupCount ablation run serial, at dop 1, and at dop 4.
//     Unconditionally, dop-1 (identical serial operators behind the
//     ExecConfig resolution) must stay at or above 0.95x serial. The
//     dop-4 >= 1.8x dop-1 floor is enforced only when the machine
//     actually has >= 4 hardware threads — on smaller CI boxes the ratios
//     are still measured and reported (with the core count) in
//     BENCH_parallel.json, just not gated.
//
//  8. Multi-hop collapse pays on the traversal it exists for: a 3-hop
//     LinkBench-style expansion runs through two graphs over the same
//     database — one with the cost-based collapse enabled (optimizer
//     default) and one forced step-at-a-time — and the collapsed N-way
//     join must be at least as fast. The collapsed graph is additionally
//     required to have actually chosen and executed collapsed plans with
//     zero runtime fallbacks, so the comparison can never silently
//     degenerate into measuring the same path twice. Results land in
//     BENCH_multihop.json.
//
// All comparisons interleave their modes across rounds. The tighter
// floors (monitoring 0.90x, governor 0.95x, dop-1 0.95x, dop-4 1.8x) gate
// on the median of kGateRounds short rounds' ratios (see GateRounds), so
// one noisy stretch on a shared machine cannot decide them; the others
// take each mode's best round.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/query_log.h"
#include "common/trace.h"
#include "core/db2graph.h"
#include "sql/database.h"
#include "sql/table.h"
#include "gremlin/parser.h"
#include "linkbench/linkbench.h"
#include "linkbench/partitioned.h"

namespace {

using db2graph::Result;
using db2graph::SlowQueryLog;
using db2graph::Value;
using db2graph::core::Db2Graph;
using db2graph::core::ExecOptions;
using db2graph::core::PreparedQuery;
using db2graph::gremlin::Traverser;

uint64_t ParseCalls() {
  return db2graph::metrics::MetricsRegistry::Global()
      .GetCounter(db2graph::gremlin::kParseCallsCounter)
      ->load();
}

// One-hop neighborhood expansions: every query issues real SQL (edge
// lookups are not cached), which is the workload shape whose overhead the
// tracing contract is about. Pure cache-hit point reads (~1us each) would
// make any per-query trace bookkeeping look catastrophic while being
// irrelevant to real traversals.
double RunBatch(Db2Graph* graph, int queries, int id_range) {
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < queries; ++i) {
    int64_t id = 1 + (i % id_range);
    Result<std::vector<Traverser>> out =
        graph->Execute("g.V(" + std::to_string(id) + ").out()");
    if (!out.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   out.status().ToString().c_str());
      std::exit(2);
    }
  }
  std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return queries / elapsed.count();
}

// The three repeated shapes of the 95%-repeated mix: one-hop expansion,
// neighbor ids, and neighbor count — all parameterized on the start
// vertex, which is the LinkBench object-get/assoc-range access pattern.
const char* const kPreparedShapes[] = {
    "g.V(vid).out()",
    "g.V(vid).out().id()",
    "g.V(vid).out().count()",
};
constexpr int kNumShapes = 3;
// One query in 20 (5%) is ad-hoc: globally unique text, so it can never
// be served from any cache and always pays a parse.
constexpr int kAdhocEvery = 20;

struct MixStats {
  double qps = 0;
  uint64_t parse_calls = 0;  // ParseGremlin delta across the batch
  uint64_t adhoc = 0;        // how many ad-hoc (unique-text) queries ran
};

// One slice of the prepared mix: 95% prepared-with-bindings, 5% ad-hoc
// unique scripts. `base` continues the query index across slices (so the
// shape rotation and ad-hoc phase carry over) and `adhoc_seq` persists
// across the whole run so ad-hoc text never repeats. Returns elapsed
// seconds; parse/ad-hoc counts accumulate into `stats`.
double RunPreparedMixSlice(Db2Graph* graph,
                           const std::vector<PreparedQuery>& prepared,
                           int queries, int base, int id_range,
                           uint64_t* adhoc_seq, MixStats* stats) {
  uint64_t parses_before = ParseCalls();
  auto start = std::chrono::steady_clock::now();
  for (int k = 0; k < queries; ++k) {
    int i = base + k;
    int64_t id = 1 + (i % id_range);
    Result<std::vector<Traverser>> out = [&] {
      if (i % kAdhocEvery == kAdhocEvery - 1) {
        ++stats->adhoc;
        return graph->Execute("g.V(" + std::to_string(id) + ").out().limit(" +
                              std::to_string(++*adhoc_seq) + ")");
      }
      db2graph::gremlin::Environment binds{{"vid", {Value(id)}}};
      return prepared[i % kNumShapes].Execute(binds);
    }();
    if (!out.ok()) {
      std::fprintf(stderr, "prepared mix query failed: %s\n",
                   out.status().ToString().c_str());
      std::exit(2);
    }
  }
  std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  stats->parse_calls += ParseCalls() - parses_before;
  return elapsed.count();
}

// One slice of the same logical mix issued as text with the id inlined
// and the plan cache opted out — the legacy path where every call
// re-parses and re-optimizes the script.
double RunTextMixSlice(Db2Graph* graph, int queries, int base, int id_range,
                       uint64_t* adhoc_seq, MixStats* stats) {
  ExecOptions opts;
  opts.use_plan_cache = false;
  uint64_t parses_before = ParseCalls();
  auto start = std::chrono::steady_clock::now();
  for (int k = 0; k < queries; ++k) {
    int i = base + k;
    int64_t id = 1 + (i % id_range);
    std::string script;
    if (i % kAdhocEvery == kAdhocEvery - 1) {
      ++stats->adhoc;
      script = "g.V(" + std::to_string(id) + ").out().limit(" +
               std::to_string(++*adhoc_seq) + ")";
    } else {
      const char* shape = kPreparedShapes[i % kNumShapes];
      script = shape;
      size_t pos = script.find("vid");
      script.replace(pos, 3, std::to_string(id));
    }
    Result<std::vector<Traverser>> out = graph->Execute(script, opts);
    if (!out.ok()) {
      std::fprintf(stderr, "text mix query failed: %s\n",
                   out.status().ToString().c_str());
      std::exit(2);
    }
  }
  std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  stats->parse_calls += ParseCalls() - parses_before;
  return elapsed.count();
}

// Short rounds the median-gated comparisons run: odd, so the median is
// one round's own ratio. Each round interleaves its modes chunk by chunk,
// so load that comes and goes within a round lands on every mode.
constexpr int kGateRounds = 15;
constexpr int kGateChunks = 6;

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

// Runs kGateRounds rounds of kGateChunks chunks; each chunk calls
// `run(mode, chunk)` (returning seconds) once per mode, with `chunk`
// numbering chunks across rounds. The order rotates which mode goes
// first and alternates direction, so every mode follows every other
// equally often. Returns each mode's summed seconds per round:
// result[round][mode].
std::vector<std::vector<double>> GateRounds(
    int modes, const std::function<double(int, int)>& run) {
  std::vector<std::vector<double>> secs(kGateRounds,
                                        std::vector<double>(modes));
  for (int round = 0; round < kGateRounds; ++round) {
    for (int c = 0; c < kGateChunks; ++c) {
      int chunk = round * kGateChunks + c;
      int step = chunk / modes % 2 == 0 ? 1 : modes - 1;
      for (int k = 0; k < modes; ++k) {
        int mode = (chunk + k * step) % modes;
        secs[round][mode] += run(mode, chunk);
      }
    }
  }
  return secs;
}

// The median over rounds of secs[round][base] / secs[round][other]: the
// `other` mode's throughput relative to the `base` one's.
double MedianRatio(const std::vector<std::vector<double>>& secs, int base,
                   int other) {
  std::vector<double> ratios;
  for (const std::vector<double>& round : secs) {
    ratios.push_back(round[base] / round[other]);
  }
  return Median(std::move(ratios));
}

// The median over rounds of `queries` / secs[round][mode].
double MedianQps(const std::vector<std::vector<double>>& secs, int mode,
                 int queries) {
  std::vector<double> qps;
  for (const std::vector<double>& round : secs) {
    qps.push_back(queries / round[mode]);
  }
  return Median(std::move(qps));
}

// ---- Vectorized-vs-scalar SQL workload. ----

// Full scans and aggregates: the shapes the columnar path exists for.
// Every query drains the table, so the comparison is pure per-row
// operator cost (kernel loop vs Row materialization + tree-walk eval).
std::string VectorMixQuery(int i) {
  switch (i % 5) {
    case 0:
      return "SELECT COUNT(*), SUM(a), MIN(b), MAX(b) FROM Wide";
    case 1:
      return "SELECT a, b FROM Wide WHERE a > 500000";
    case 2:
      return "SELECT AVG(b) FROM Wide WHERE a < 250000";
    case 3:
      return "SELECT g, COUNT(*), SUM(a) FROM Wide GROUP BY g";
    default:
      return "SELECT COUNT(b) FROM Wide WHERE s = 'x7'";
  }
}

// Runs `queries` instances of the SQL mix; returns elapsed seconds.
double RunSqlMixSlice(db2graph::sql::Database* db, int queries, int base) {
  auto start = std::chrono::steady_clock::now();
  for (int k = 0; k < queries; ++k) {
    Result<db2graph::sql::ResultSet> out = db->Execute(VectorMixQuery(base + k));
    if (!out.ok()) {
      std::fprintf(stderr, "vectorized bench query failed: %s\n",
                   out.status().ToString().c_str());
      std::exit(2);
    }
  }
  std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

// ---- Streaming-vs-materialized workloads. ----

// Limit-heavy: every query carries a limit that streaming can saturate —
// label-pruned single-table limits, multi-table limits, and a one-hop
// expansion capped after the first block. The materialized baseline
// drains every consulted table first.
std::string LimitMixQuery(int i) {
  switch (i % 3) {
    case 0:
      return "g.V().hasLabel('vt" + std::to_string(i % 10) + "').limit(5)";
    case 1:
      return "g.V().limit(8)";
    default:
      return "g.V().out('et" + std::to_string(i % 10) + "').limit(5)";
  }
}

// Full-scan: every query drains its input completely, so streaming has no
// rows to skip and can only add block bookkeeping.
std::string FullScanMixQuery(int i) {
  switch (i % 2) {
    case 0:
      return "g.V().hasLabel('vt" + std::to_string(i % 10) + "').id()";
    default:
      return "g.V().out('et" + std::to_string(i % 10) + "').count()";
  }
}

// Runs `queries` instances of a mix with the given per-call options;
// returns elapsed seconds.
double RunMixSlice(Db2Graph* graph, std::string (*mix)(int), int queries,
                   int base, const db2graph::core::ExecOptions& options = {}) {
  auto start = std::chrono::steady_clock::now();
  for (int k = 0; k < queries; ++k) {
    Result<std::vector<Traverser>> out =
        graph->Execute(mix(base + k), options);
    if (!out.ok()) {
      std::fprintf(stderr, "streaming bench query failed: %s\n",
                   out.status().ToString().c_str());
      std::exit(2);
    }
  }
  std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

// Blocks the streaming pipeline pulled while running `query` under
// `options`; 0 means the query ran materialized.
uint64_t BlocksPulled(Db2Graph* graph, const std::string& query,
                      db2graph::core::ExecOptions options) {
  db2graph::QueryTrace trace;
  options.trace = &trace;
  if (!graph->Execute(query, options).ok()) return 0;
  uint64_t blocks = 0;
  for (const db2graph::StepTraceSpan& span : trace.Spans()) {
    blocks += span.blocks;
  }
  return blocks;
}

// ---- Multi-hop collapse ablation workload. ----

// Three-hop friend-of-friend-of-friend expansions from a small seed set,
// the LinkBench traversal shape the join collapse exists for. The leading
// predicate keeps the whole hop chain adjacent through strategy rewrites,
// so the optimizer sees all three hops; rotating the seed value exercises
// ten distinct cached plans per mode.
std::string HopMixQuery(int i) {
  return "g.V().has('val', eq(" + std::to_string(i % 10) +
         ")).out('link').out('link').out('link').count()";
}

}  // namespace

int main() {
  db2graph::linkbench::Config config;
  config.num_vertices = 400;
  db2graph::linkbench::Dataset dataset =
      db2graph::linkbench::GeneratePartitioned(config);
  db2graph::sql::Database db;
  if (!db2graph::linkbench::LoadIntoPartitionedDatabase(&db, dataset).ok()) {
    std::fprintf(stderr, "load failed\n");
    return 2;
  }
  Result<std::unique_ptr<Db2Graph>> graph = Db2Graph::Open(
      &db, db2graph::linkbench::MakePartitionedOverlay(/*prefixed_ids=*/false));
  if (!graph.ok()) {
    std::fprintf(stderr, "open failed: %s\n", graph.status().ToString().c_str());
    return 2;
  }

  constexpr int kQueries = 1500;
  constexpr int kIdRange = 200;
  constexpr int kRounds = 3;
  // Traced throughput must stay within this fraction of untraced. The
  // floor is deliberately loose — it catches pathologies (a mutex on the
  // untraced path, per-record allocation storms), not small regressions.
  constexpr double kRatioFloor = 0.30;

  // Warm the vertex cache and code paths in both modes.
  RunBatch(graph->get(), kIdRange, kIdRange);
  SlowQueryLog::Global().SetThresholdMs(1000000);  // traced, never logged
  RunBatch(graph->get(), kIdRange, kIdRange);
  SlowQueryLog::Global().SetThresholdMs(0);

  double untraced_best = 0;
  double traced_best = 0;
  for (int round = 0; round < kRounds; ++round) {
    double untraced = RunBatch(graph->get(), kQueries, kIdRange);
    if (untraced > untraced_best) untraced_best = untraced;

    SlowQueryLog::Global().SetThresholdMs(1000000);
    double traced = RunBatch(graph->get(), kQueries, kIdRange);
    SlowQueryLog::Global().SetThresholdMs(0);
    if (traced > traced_best) traced_best = traced;
  }

  double ratio = traced_best / untraced_best;
  std::printf("bench_smoke: untraced=%.0f q/s traced=%.0f q/s ratio=%.2f "
              "(floor %.2f)\n",
              untraced_best, traced_best, ratio, kRatioFloor);
  if (!SlowQueryLog::Global().Entries().empty()) {
    std::fprintf(stderr, "FAIL: armed-but-under-threshold queries were "
                         "logged as slow\n");
    return 1;
  }
  if (ratio < kRatioFloor) {
    std::fprintf(stderr, "FAIL: traced/untraced throughput ratio %.2f below "
                         "floor %.2f\n",
                 ratio, kRatioFloor);
    return 1;
  }

  // ---- Prepared-vs-text: compile-once must beat parse-per-call. ----

  std::vector<PreparedQuery> prepared;
  for (const char* shape : kPreparedShapes) {
    Result<PreparedQuery> q = graph->get()->Prepare(shape);
    if (!q.ok()) {
      std::fprintf(stderr, "prepare failed: %s\n",
                   q.status().ToString().c_str());
      return 2;
    }
    prepared.push_back(std::move(*q));
  }

  // The hard contract first: once prepared, executing never parses. Run a
  // pure-prepared batch (no ad-hoc admixture) and require a parse-call
  // delta of exactly zero.
  uint64_t parses_before = ParseCalls();
  for (int i = 0; i < 3 * kIdRange; ++i) {
    db2graph::gremlin::Environment binds{
        {"vid", {Value(int64_t{1 + i % kIdRange})}}};
    Result<std::vector<Traverser>> out = prepared[i % kNumShapes].Execute(binds);
    if (!out.ok()) {
      std::fprintf(stderr, "prepared warmup failed: %s\n",
                   out.status().ToString().c_str());
      return 2;
    }
  }
  uint64_t warm_parse_delta = ParseCalls() - parses_before;
  if (warm_parse_delta != 0) {
    std::fprintf(stderr, "FAIL: %llu ParseGremlin calls during pure prepared "
                         "execution (expected 0)\n",
                 static_cast<unsigned long long>(warm_parse_delta));
    return 1;
  }

  // Alternate short slices of the two modes within each round so ambient
  // load (CI neighbors, thermal throttling) penalizes both about equally,
  // then take each mode's best round.
  constexpr int kSlices = 6;
  constexpr int kSliceQueries = kQueries / kSlices;
  uint64_t adhoc_seq = 0;
  MixStats prepared_best;
  MixStats text_best;
  for (int round = 0; round < kRounds; ++round) {
    MixStats p;
    MixStats t;
    double p_secs = 0;
    double t_secs = 0;
    for (int slice = 0; slice < kSlices; ++slice) {
      int base = slice * kSliceQueries;
      p_secs += RunPreparedMixSlice(graph->get(), prepared, kSliceQueries,
                                    base, kIdRange, &adhoc_seq, &p);
      t_secs += RunTextMixSlice(graph->get(), kSliceQueries, base, kIdRange,
                                &adhoc_seq, &t);
    }
    p.qps = kSlices * kSliceQueries / p_secs;
    t.qps = kSlices * kSliceQueries / t_secs;
    // Within the mix, only the ad-hoc (unique-text) queries may parse;
    // the 95% prepared portion must contribute zero.
    if (p.parse_calls > p.adhoc) {
      std::fprintf(stderr, "FAIL: prepared mix made %llu parse calls for "
                           "%llu ad-hoc queries\n",
                   static_cast<unsigned long long>(p.parse_calls),
                   static_cast<unsigned long long>(p.adhoc));
      return 1;
    }
    if (p.qps > prepared_best.qps) prepared_best = p;
    if (t.qps > text_best.qps) text_best = t;
  }

  double speedup = prepared_best.qps / text_best.qps;
  std::printf("bench_prepared: prepared=%.0f q/s text=%.0f q/s speedup=%.2fx "
              "(prepared parses=%llu over %llu ad-hoc, text parses=%llu)\n",
              prepared_best.qps, text_best.qps, speedup,
              static_cast<unsigned long long>(prepared_best.parse_calls),
              static_cast<unsigned long long>(prepared_best.adhoc),
              static_cast<unsigned long long>(text_best.parse_calls));

  {
    std::ofstream json("BENCH_prepared.json");
    json << "{\n"
         << "  \"queries_per_round\": " << kQueries << ",\n"
         << "  \"rounds\": " << kRounds << ",\n"
         << "  \"repeated_fraction\": 0.95,\n"
         << "  \"prepared_qps\": " << prepared_best.qps << ",\n"
         << "  \"text_qps\": " << text_best.qps << ",\n"
         << "  \"speedup\": " << speedup << ",\n"
         << "  \"prepared_parse_calls\": " << prepared_best.parse_calls
         << ",\n"
         << "  \"prepared_adhoc_queries\": " << prepared_best.adhoc << ",\n"
         << "  \"text_parse_calls\": " << text_best.parse_calls << "\n"
         << "}\n";
  }

  // Floor: the prepared path must at least match the re-parsing text
  // path. In practice it wins comfortably (no parse, no strategy pass,
  // cached SQL skeletons); equality is the regression tripwire.
  if (prepared_best.qps < text_best.qps) {
    std::fprintf(stderr, "FAIL: prepared throughput %.0f q/s below "
                         "re-parsing text path %.0f q/s\n",
                 prepared_best.qps, text_best.qps);
    return 1;
  }

  // ---- Vectorized-vs-scalar: typed kernels must beat Row tree-walks. ----
  //
  // A dedicated column-store table sized so one query scans enough rows
  // for per-row costs to dominate: mixed int/double/string/group columns
  // with a sprinkling of NULLs so the kernels' validity handling is on
  // the measured path.
  db2graph::sql::Database vec_db;
  if (!vec_db.Execute("CREATE TABLE Wide (a BIGINT, b DOUBLE, "
                      "s VARCHAR(8), g BIGINT)")
           .ok()) {
    std::fprintf(stderr, "vectorized bench setup failed\n");
    return 2;
  }
  {
    db2graph::sql::Table* wide = vec_db.GetTable("Wide");
    uint64_t rng = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 100000; ++i) {
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      db2graph::Row row;
      row.push_back(Value(static_cast<int64_t>(rng % 1000000)));
      row.push_back((rng >> 8) % 16 == 0
                        ? Value()
                        : Value(static_cast<double>((rng >> 16) % 10000) / 4));
      row.push_back(Value("x" + std::to_string((rng >> 32) % 16)));
      row.push_back(Value(static_cast<int64_t>((rng >> 48) % 8)));
      if (!wide->Insert(std::move(row)).ok()) {
        std::fprintf(stderr, "vectorized bench load failed\n");
        return 2;
      }
    }
  }

  constexpr int kVecQueries = 60;
  constexpr int kVecSlices = 4;
  constexpr int kVecSliceQueries = kVecQueries / kVecSlices;
  // Warm both modes once.
  vec_db.SetExecConfig(vec_db.exec_config().vectorized(true));
  RunSqlMixSlice(&vec_db, 5, 0);
  vec_db.SetExecConfig(vec_db.exec_config().vectorized(false));
  RunSqlMixSlice(&vec_db, 5, 0);

  double vectorized_best = 0;
  double scalar_best = 0;
  for (int round = 0; round < kRounds; ++round) {
    double v_secs = 0;
    double s_secs = 0;
    for (int slice = 0; slice < kVecSlices; ++slice) {
      int base = slice * kVecSliceQueries;
      vec_db.SetExecConfig(vec_db.exec_config().vectorized(true));
      v_secs += RunSqlMixSlice(&vec_db, kVecSliceQueries, base);
      vec_db.SetExecConfig(vec_db.exec_config().vectorized(false));
      s_secs += RunSqlMixSlice(&vec_db, kVecSliceQueries, base);
    }
    if (kVecQueries / v_secs > vectorized_best)
      vectorized_best = kVecQueries / v_secs;
    if (kVecQueries / s_secs > scalar_best) scalar_best = kVecQueries / s_secs;
  }
  vec_db.SetExecConfig(vec_db.exec_config().vectorized(true));

  double vec_speedup = vectorized_best / scalar_best;
  std::printf("bench_vectorized: vectorized=%.0f q/s scalar=%.0f q/s "
              "speedup=%.2fx\n",
              vectorized_best, scalar_best, vec_speedup);

  {
    std::ofstream json("BENCH_vectorized.json");
    json << "{\n"
         << "  \"table_rows\": 100000,\n"
         << "  \"mix_queries\": " << kVecQueries << ",\n"
         << "  \"rounds\": " << kRounds << ",\n"
         << "  \"vectorized_qps\": " << vectorized_best << ",\n"
         << "  \"scalar_qps\": " << scalar_best << ",\n"
         << "  \"speedup\": " << vec_speedup << "\n"
         << "}\n";
  }

  // Floor: the vectorized path must at least match the scalar tree on
  // its home workload. In practice it wins by multiples; equality is the
  // regression tripwire.
  if (vectorized_best < scalar_best) {
    std::fprintf(stderr, "FAIL: vectorized throughput %.0f q/s below "
                         "scalar %.0f q/s\n",
                 vectorized_best, scalar_best);
    return 1;
  }

  // ---- Monitoring overhead: armed instrumentation must stay cheap. ----
  //
  // Same column-store mix, instrumentation off vs fully on (query-log
  // recording plus per-operator profiling of every SELECT). The profiled
  // mode pays two clock reads per operator block plus one ring push per
  // statement; the floor catches that turning into anything worse.
  constexpr double kObsFloor = 0.90;
  db2graph::QueryLog& qlog = db2graph::QueryLog::Global();
  const bool qlog_was_enabled = qlog.enabled();
  auto set_instrumentation = [&](bool on) {
    qlog.SetEnabled(on);
    vec_db.SetExecConfig(vec_db.exec_config().profile(on));
  };
  // Warm both modes.
  set_instrumentation(false);
  RunSqlMixSlice(&vec_db, 5, 0);
  set_instrumentation(true);
  RunSqlMixSlice(&vec_db, 5, 0);

  // Modes: 0 plain, 1 instrumented; the gate is the median round's
  // instrumented/plain throughput ratio.
  constexpr int kGateSqlChunk = 5;  // one pass of the five-query mix
  const std::vector<std::vector<double>> obs_secs =
      GateRounds(2, [&](int mode, int chunk) {
        set_instrumentation(mode == 1);
        return RunSqlMixSlice(&vec_db, kGateSqlChunk, chunk * kGateSqlChunk);
      });
  vec_db.SetExecConfig(vec_db.exec_config().profile(false));
  qlog.SetEnabled(qlog_was_enabled);

  constexpr int kGateSqlRound = kGateSqlChunk * kGateChunks;
  const double plain_median = MedianQps(obs_secs, 0, kGateSqlRound);
  const double instrumented_median = MedianQps(obs_secs, 1, kGateSqlRound);
  const double obs_ratio = MedianRatio(obs_secs, 0, 1);
  std::printf("bench_observability: plain=%.0f q/s instrumented=%.0f q/s "
              "ratio=%.2f (floor %.2f, median of %d rounds)\n",
              plain_median, instrumented_median, obs_ratio, kObsFloor,
              kGateRounds);

  {
    std::ofstream json("BENCH_observability.json");
    json << "{\n"
         << "  \"table_rows\": 100000,\n"
         << "  \"mix_queries_per_round\": " << kGateSqlRound << ",\n"
         << "  \"rounds\": " << kGateRounds << ",\n"
         << "  \"plain_qps\": " << plain_median << ",\n"
         << "  \"instrumented_qps\": " << instrumented_median << ",\n"
         << "  \"ratio\": " << obs_ratio << ",\n"
         << "  \"floor\": " << kObsFloor << "\n"
         << "}\n";
  }

  if (obs_ratio < kObsFloor) {
    std::fprintf(stderr, "FAIL: instrumented/plain throughput ratio %.2f "
                         "below floor %.2f\n",
                 obs_ratio, kObsFloor);
    return 1;
  }

  // ---- Streaming-vs-materialized: early termination must pay. ----
  //
  // A larger dataset than the tracing contract's: with ~40 rows per table
  // the full drain the baseline pays is too small to measure, so the
  // streaming section gets its own database where a limit actually skips
  // thousands of rows per query.
  db2graph::linkbench::Config stream_config;
  stream_config.num_vertices = 20000;
  db2graph::linkbench::Dataset stream_dataset =
      db2graph::linkbench::GeneratePartitioned(stream_config);
  db2graph::sql::Database stream_db;
  if (!db2graph::linkbench::LoadIntoPartitionedDatabase(&stream_db,
                                                        stream_dataset)
           .ok()) {
    std::fprintf(stderr, "streaming bench load failed\n");
    return 2;
  }
  Result<std::unique_ptr<Db2Graph>> streaming = Db2Graph::Open(
      &stream_db,
      db2graph::linkbench::MakePartitionedOverlay(/*prefixed_ids=*/false));
  // The pre-streaming baseline: materialized interpretation and no LIMIT
  // pushdown (both arrived with the streaming pipeline). Both graphs share
  // one database session config, so the baseline's mode is set per call.
  Db2Graph::Options mat_options;
  mat_options.strategies.limit_pushdown = false;
  db2graph::core::ExecOptions mat_exec;
  mat_exec.config = db2graph::ExecConfig().streaming(false);
  Result<std::unique_ptr<Db2Graph>> materialized = Db2Graph::Open(
      &stream_db,
      db2graph::linkbench::MakePartitionedOverlay(/*prefixed_ids=*/false),
      mat_options);
  if (!streaming.ok() || !materialized.ok()) {
    std::fprintf(stderr, "streaming bench open failed\n");
    return 2;
  }

  // The two sides must really run different modes.
  const uint64_t stream_blocks =
      BlocksPulled(streaming->get(), LimitMixQuery(0), {});
  const uint64_t mat_blocks =
      BlocksPulled(materialized->get(), LimitMixQuery(0), mat_exec);
  if (stream_blocks == 0 || mat_blocks != 0) {
    std::fprintf(stderr, "FAIL: streaming side pulled %llu blocks, "
                         "materialized side %llu (want > 0 and 0)\n",
                 static_cast<unsigned long long>(stream_blocks),
                 static_cast<unsigned long long>(mat_blocks));
    return 1;
  }

  // Rows-scanned contract, measured once outside the timed rounds (the
  // workload is deterministic): one full pass of the limit mix per mode.
  constexpr int kStreamQueries = 240;
  constexpr int kStreamSlices = 4;
  constexpr int kStreamSliceQueries = kStreamQueries / kStreamSlices;
  db2graph::sql::ExecStats::Counts before = stream_db.stats().Snapshot();
  RunMixSlice(streaming->get(), LimitMixQuery, kStreamQueries, 0);
  db2graph::sql::ExecStats::Counts mid = stream_db.stats().Snapshot();
  RunMixSlice(materialized->get(), LimitMixQuery, kStreamQueries, 0,
              mat_exec);
  db2graph::sql::ExecStats::Counts after = stream_db.stats().Snapshot();
  uint64_t stream_rows = mid.rows_scanned - before.rows_scanned;
  uint64_t mat_rows = after.rows_scanned - mid.rows_scanned;

  double stream_limit_best = 0;
  double mat_limit_best = 0;
  double stream_scan_best = 0;
  double mat_scan_best = 0;
  for (int round = 0; round < kRounds; ++round) {
    double s_limit = 0;
    double m_limit = 0;
    for (int slice = 0; slice < kStreamSlices; ++slice) {
      int base = slice * kStreamSliceQueries;
      s_limit += RunMixSlice(streaming->get(), LimitMixQuery,
                             kStreamSliceQueries, base);
      m_limit += RunMixSlice(materialized->get(), LimitMixQuery,
                             kStreamSliceQueries, base, mat_exec);
    }
    double s_qps = kStreamQueries / s_limit;
    double m_qps = kStreamQueries / m_limit;
    if (s_qps > stream_limit_best) stream_limit_best = s_qps;
    if (m_qps > mat_limit_best) mat_limit_best = m_qps;

    // The full-scan mix drains everything either way; far fewer
    // iterations are needed for a stable per-query cost.
    constexpr int kScanQueries = 40;
    double s_scan = RunMixSlice(streaming->get(), FullScanMixQuery,
                                kScanQueries, 0);
    double m_scan = RunMixSlice(materialized->get(), FullScanMixQuery,
                                kScanQueries, 0, mat_exec);
    if (kScanQueries / s_scan > stream_scan_best)
      stream_scan_best = kScanQueries / s_scan;
    if (kScanQueries / m_scan > mat_scan_best)
      mat_scan_best = kScanQueries / m_scan;
  }

  double limit_speedup = stream_limit_best / mat_limit_best;
  double scan_ratio = stream_scan_best / mat_scan_best;
  std::printf(
      "bench_streaming: limit mix streaming=%.0f q/s materialized=%.0f q/s "
      "speedup=%.2fx rows_scanned=%llu vs %llu; full-scan mix "
      "streaming=%.0f q/s materialized=%.0f q/s ratio=%.2f\n",
      stream_limit_best, mat_limit_best, limit_speedup,
      static_cast<unsigned long long>(stream_rows),
      static_cast<unsigned long long>(mat_rows), stream_scan_best,
      mat_scan_best, scan_ratio);

  {
    std::ofstream json("BENCH_streaming.json");
    json << "{\n"
         << "  \"limit_mix_queries\": " << kStreamQueries << ",\n"
         << "  \"rounds\": " << kRounds << ",\n"
         << "  \"streaming_limit_qps\": " << stream_limit_best << ",\n"
         << "  \"materialized_limit_qps\": " << mat_limit_best << ",\n"
         << "  \"limit_speedup\": " << limit_speedup << ",\n"
         << "  \"streaming_rows_scanned\": " << stream_rows << ",\n"
         << "  \"materialized_rows_scanned\": " << mat_rows << ",\n"
         << "  \"streaming_fullscan_qps\": " << stream_scan_best << ",\n"
         << "  \"materialized_fullscan_qps\": " << mat_scan_best << ",\n"
         << "  \"fullscan_ratio\": " << scan_ratio << "\n"
         << "}\n";
  }

  // Floors: on the limit mix, streaming must win on both axes — at least
  // match the baseline's throughput and scan strictly fewer rows (the
  // whole point of the pull pipeline). On the full-scan mix the block
  // machinery may cost something, but an inversion past the loose floor
  // means per-block overhead turned pathological.
  constexpr double kFullScanFloor = 0.50;
  if (stream_limit_best < mat_limit_best) {
    std::fprintf(stderr, "FAIL: streaming limit-mix throughput %.0f q/s "
                         "below materialized %.0f q/s\n",
                 stream_limit_best, mat_limit_best);
    return 1;
  }
  if (stream_rows >= mat_rows) {
    std::fprintf(stderr, "FAIL: streaming scanned %llu rows on the limit "
                         "mix, not fewer than materialized %llu\n",
                 static_cast<unsigned long long>(stream_rows),
                 static_cast<unsigned long long>(mat_rows));
    return 1;
  }
  if (scan_ratio < kFullScanFloor) {
    std::fprintf(stderr, "FAIL: streaming full-scan throughput ratio %.2f "
                         "below floor %.2f\n",
                 scan_ratio, kFullScanFloor);
    return 1;
  }

  // ---- Governor overhead: governed-but-not-tripping must be free. ----
  //
  // Generous limits put a live QueryContext on every execution, so each
  // block boundary pays the real deadline / budget checks and the memory
  // accounting charges and releases — the worst honest case for a query
  // that never violates anything.
  db2graph::core::ExecOptions governed_options;
  governed_options.config = db2graph::ExecConfig()
                               .timeout_ms(600000)
                               .max_result_rows(100000000)
                               .max_memory_bytes(int64_t{16} << 30);
  if (BlocksPulled(streaming->get(), LimitMixQuery(0), governed_options) ==
      0) {
    std::fprintf(stderr, "FAIL: the governed limit mix did not stream\n");
    return 1;
  }
  // Modes: 0 ungoverned, 1 governed; the gate is the median round's
  // governed/ungoverned throughput ratio.
  constexpr int kGateStreamChunk = 10;
  constexpr int kGateStreamRound = kGateStreamChunk * kGateChunks;
  const std::vector<std::vector<double>> governor_secs =
      GateRounds(2, [&](int mode, int chunk) {
        return RunMixSlice(streaming->get(), LimitMixQuery, kGateStreamChunk,
                           chunk * kGateStreamChunk,
                           mode == 0 ? ExecOptions() : governed_options);
      });
  const double ungoverned_median =
      MedianQps(governor_secs, 0, kGateStreamRound);
  const double governed_median = MedianQps(governor_secs, 1, kGateStreamRound);
  const double governor_ratio = MedianRatio(governor_secs, 0, 1);
  std::printf(
      "bench_governor: ungoverned=%.0f q/s governed=%.0f q/s ratio=%.2f "
      "(median of %d rounds)\n",
      ungoverned_median, governed_median, governor_ratio, kGateRounds);

  {
    std::ofstream json("BENCH_governor.json");
    json << "{\n"
         << "  \"queries_per_round\": " << kGateStreamRound << ",\n"
         << "  \"rounds\": " << kGateRounds << ",\n"
         << "  \"ungoverned_qps\": " << ungoverned_median << ",\n"
         << "  \"governed_qps\": " << governed_median << ",\n"
         << "  \"governed_ratio\": " << governor_ratio << "\n"
         << "}\n";
  }

  constexpr double kGovernorFloor = 0.95;
  if (governor_ratio < kGovernorFloor) {
    std::fprintf(stderr, "FAIL: governed throughput ratio %.2f below "
                         "floor %.2f\n",
                 governor_ratio, kGovernorFloor);
    return 1;
  }

  // ---- Parallel-vs-serial: morsels must pay on real cores. ----
  //
  // SQL side: the same full-scan aggregate mix the vectorized contract
  // uses, re-run under the session ExecConfig at dop 1 and dop 4 (the
  // parallel scan/aggregate operators engage at dop > 1). Gremlin side: a
  // groupCount barrier ablation over the 20k-vertex streaming dataset,
  // with the dop carried per-execution through ExecOptions::config.
  const unsigned cores = std::thread::hardware_concurrency();

  auto run_sql_at = [&](const db2graph::ExecConfig& cfg, int queries,
                        int base) {
    vec_db.SetExecConfig(cfg);
    return RunSqlMixSlice(&vec_db, queries, base);
  };
  const db2graph::ExecConfig serial_cfg;  // nothing set: resolves to dop 1
  const db2graph::ExecConfig dop1_cfg = serial_cfg.parallelism(1);
  const db2graph::ExecConfig dop4_cfg = serial_cfg.parallelism(4);
  // Warm each mode once.
  run_sql_at(serial_cfg, 5, 0);
  run_sql_at(dop1_cfg, 5, 0);
  run_sql_at(dop4_cfg, 5, 0);

  // Modes: 0 serial, 1 dop 1, 2 dop 4; the gates are the median rounds'
  // dop1/serial and dop4/dop1 ratios.
  const db2graph::ExecConfig* const par_cfgs[] = {&serial_cfg, &dop1_cfg,
                                                  &dop4_cfg};
  const std::vector<std::vector<double>> par_secs =
      GateRounds(3, [&](int mode, int chunk) {
        return run_sql_at(*par_cfgs[mode], kGateSqlChunk,
                          chunk * kGateSqlChunk);
      });
  vec_db.SetExecConfig(serial_cfg);
  const double par_serial_median = MedianQps(par_secs, 0, kGateSqlRound);
  const double par_dop1_median = MedianQps(par_secs, 1, kGateSqlRound);
  const double par_dop4_median = MedianQps(par_secs, 2, kGateSqlRound);

  // Gremlin groupCount ablation: barrier drains split into per-worker
  // chunks at dop > 1; serial and parallel must agree on results (the
  // equivalence suite asserts that — here only throughput is measured).
  constexpr int kGroupCountQueries = 30;
  auto run_groupcount_at = [&](int dop) {
    ExecOptions opts;
    opts.config = db2graph::ExecConfig().parallelism(dop);
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kGroupCountQueries; ++i) {
      const std::string q = i % 2 == 0
                                ? "g.V().label().groupCount()"
                                : "g.V().values('version').groupCount()";
      Result<std::vector<Traverser>> out =
          streaming->get()->Execute(q, opts);
      if (!out.ok()) {
        std::fprintf(stderr, "groupCount bench query failed: %s\n",
                     out.status().ToString().c_str());
        std::exit(2);
      }
    }
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return kGroupCountQueries / elapsed.count();
  };
  run_groupcount_at(1);  // warm
  run_groupcount_at(4);
  double gc_dop1_best = 0;
  double gc_dop4_best = 0;
  for (int round = 0; round < kRounds; ++round) {
    double g1 = run_groupcount_at(1);
    double g4 = run_groupcount_at(4);
    if (g1 > gc_dop1_best) gc_dop1_best = g1;
    if (g4 > gc_dop4_best) gc_dop4_best = g4;
  }

  const double dop1_ratio = MedianRatio(par_secs, 0, 1);
  const double dop4_speedup = MedianRatio(par_secs, 1, 2);
  double gc_speedup = gc_dop4_best / gc_dop1_best;
  constexpr double kDop1Floor = 0.95;
  constexpr double kDop4Floor = 1.8;
  const bool dop4_gated = cores >= 4;
  std::printf(
      "bench_parallel: cores=%u sql serial=%.0f q/s dop1=%.0f q/s "
      "dop4=%.0f q/s dop1/serial=%.2f dop4/dop1=%.2fx (floor %.2fx, %s; "
      "medians of %d rounds); gremlin groupCount dop1=%.0f q/s dop4=%.0f "
      "q/s speedup=%.2fx\n",
      cores, par_serial_median, par_dop1_median, par_dop4_median, dop1_ratio,
      dop4_speedup, kDop4Floor,
      dop4_gated ? "enforced" : "not enforced: fewer than 4 cores",
      kGateRounds, gc_dop1_best, gc_dop4_best, gc_speedup);

  {
    std::ofstream json("BENCH_parallel.json");
    json << "{\n"
         << "  \"cores\": " << cores << ",\n"
         << "  \"mix_queries_per_round\": " << kGateSqlRound << ",\n"
         << "  \"rounds\": " << kGateRounds << ",\n"
         << "  \"sql_serial_qps\": " << par_serial_median << ",\n"
         << "  \"sql_dop1_qps\": " << par_dop1_median << ",\n"
         << "  \"sql_dop4_qps\": " << par_dop4_median << ",\n"
         << "  \"sql_dop1_over_serial\": " << dop1_ratio << ",\n"
         << "  \"sql_dop4_over_dop1\": " << dop4_speedup << ",\n"
         << "  \"gremlin_groupcount_dop1_qps\": " << gc_dop1_best << ",\n"
         << "  \"gremlin_groupcount_dop4_qps\": " << gc_dop4_best << ",\n"
         << "  \"gremlin_groupcount_speedup\": " << gc_speedup << ",\n"
         << "  \"dop1_floor\": " << kDop1Floor << ",\n"
         << "  \"dop4_floor\": " << kDop4Floor << ",\n"
         << "  \"dop4_floor_enforced\": "
         << (dop4_gated ? "true" : "false") << "\n"
         << "}\n";
  }

  // Floors. dop 1 resolves to the identical serial operator tree — the
  // only added cost is ExecConfig resolution per statement — so it must
  // stay within 0.95x of serial everywhere. The dop-4 scaling floor only
  // means something when the hardware can actually run 4 workers at once;
  // on smaller machines the measured ratio is reported, not enforced.
  if (dop1_ratio < kDop1Floor) {
    std::fprintf(stderr, "FAIL: dop-1 throughput ratio %.2f below "
                         "floor %.2f\n",
                 dop1_ratio, kDop1Floor);
    return 1;
  }
  if (dop4_gated && dop4_speedup < kDop4Floor) {
    std::fprintf(stderr, "FAIL: dop-4/dop-1 speedup %.2fx below floor "
                         "%.2fx on a %u-core machine\n",
                 dop4_speedup, kDop4Floor, cores);
    return 1;
  }

  // ---- Multi-hop collapse: one N-way join must beat three round trips. --
  //
  // A dedicated graph with the schema shape collapse legality requires: a
  // PRIMARY KEY on the vertex id and indexes on both edge endpoints. Each
  // node carries three out-edges, so a 3-hop expansion touches 27 paths
  // per seed — enough join work per query for the SQL round-trip count to
  // be the measured difference.
  constexpr int kHopNodes = 1000;
  db2graph::sql::Database hop_db;
  if (!hop_db.ExecuteScript(
                 "CREATE TABLE node (id BIGINT PRIMARY KEY, val BIGINT);"
                 "CREATE TABLE link (src BIGINT, dst BIGINT);"
                 "CREATE INDEX idx_link_src ON link (src);"
                 "CREATE INDEX idx_link_dst ON link (dst);")
           .ok()) {
    std::fprintf(stderr, "multihop bench setup failed\n");
    return 2;
  }
  {
    db2graph::sql::Table* node = hop_db.GetTable("node");
    db2graph::sql::Table* link = hop_db.GetTable("link");
    for (int i = 1; i <= kHopNodes; ++i) {
      db2graph::Row row;
      row.push_back(Value(int64_t{i}));
      row.push_back(Value(int64_t{i % 97}));
      bool ok = node->Insert(std::move(row)).ok();
      for (int mul : {1, 3, 7}) {
        db2graph::Row edge;
        edge.push_back(Value(int64_t{i}));
        edge.push_back(Value(int64_t{(i * mul) % kHopNodes + 1}));
        ok = ok && link->Insert(std::move(edge)).ok();
      }
      if (!ok) {
        std::fprintf(stderr, "multihop bench load failed\n");
        return 2;
      }
    }
  }
  const char* hop_overlay = R"json({
    "v_tables": [{"table_name": "node", "id": "id", "fix_label": true,
                  "label": "'node'", "properties": ["val"]}],
    "e_tables": [{"table_name": "link", "src_v_table": "node",
                  "src_v": "src", "dst_v_table": "node", "dst_v": "dst",
                  "implicit_edge_id": true, "fix_label": true,
                  "label": "'link'"}]
  })json";
  Result<std::unique_ptr<Db2Graph>> collapsed =
      Db2Graph::Open(&hop_db, hop_overlay);
  Db2Graph::Options stepwise_options;
  stepwise_options.optimizer.multi_hop_collapse = false;
  Result<std::unique_ptr<Db2Graph>> stepwise =
      Db2Graph::Open(&hop_db, hop_overlay, stepwise_options);
  if (!collapsed.ok() || !stepwise.ok()) {
    std::fprintf(stderr, "multihop bench open failed\n");
    return 2;
  }

  constexpr int kHopQueries = 240;
  constexpr int kHopSlices = 4;
  constexpr int kHopSliceQueries = kHopQueries / kHopSlices;
  // Warm both modes (compiles all ten plan shapes per graph).
  RunMixSlice(collapsed->get(), HopMixQuery, 10, 0);
  RunMixSlice(stepwise->get(), HopMixQuery, 10, 0);

  // The ablation is only meaningful if the two modes genuinely diverge:
  // the collapsed graph must have chosen collapsed plans and run them as
  // joins (no runtime fallbacks), and the step-at-a-time graph — opened
  // with the pass disabled — must never even have attempted one.
  db2graph::core::OptimizerLog::Counters collapse_counters =
      collapsed->get()->optimizer_log()->counters();
  db2graph::core::OptimizerLog::Counters stepwise_counters =
      stepwise->get()->optimizer_log()->counters();
  if (collapse_counters.chosen == 0 || collapse_counters.executions == 0 ||
      collapse_counters.fallbacks != 0 || stepwise_counters.attempted != 0) {
    std::fprintf(stderr,
                 "FAIL: multihop ablation not engaged (chosen=%llu "
                 "executions=%llu fallbacks=%llu stepwise_attempted=%llu)\n",
                 static_cast<unsigned long long>(collapse_counters.chosen),
                 static_cast<unsigned long long>(collapse_counters.executions),
                 static_cast<unsigned long long>(collapse_counters.fallbacks),
                 static_cast<unsigned long long>(stepwise_counters.attempted));
    return 1;
  }

  double collapsed_best = 0;
  double stepwise_best = 0;
  for (int round = 0; round < kRounds; ++round) {
    double c_secs = 0;
    double s_secs = 0;
    for (int slice = 0; slice < kHopSlices; ++slice) {
      int base = slice * kHopSliceQueries;
      c_secs += RunMixSlice(collapsed->get(), HopMixQuery,
                            kHopSliceQueries, base);
      s_secs += RunMixSlice(stepwise->get(), HopMixQuery,
                            kHopSliceQueries, base);
    }
    if (kHopQueries / c_secs > collapsed_best)
      collapsed_best = kHopQueries / c_secs;
    if (kHopQueries / s_secs > stepwise_best)
      stepwise_best = kHopQueries / s_secs;
  }
  collapse_counters = collapsed->get()->optimizer_log()->counters();

  double hop_speedup = collapsed_best / stepwise_best;
  std::printf(
      "bench_multihop: collapsed=%.0f q/s step-at-a-time=%.0f q/s "
      "speedup=%.2fx (chosen=%llu executions=%llu fallbacks=%llu)\n",
      collapsed_best, stepwise_best, hop_speedup,
      static_cast<unsigned long long>(collapse_counters.chosen),
      static_cast<unsigned long long>(collapse_counters.executions),
      static_cast<unsigned long long>(collapse_counters.fallbacks));

  {
    std::ofstream json("BENCH_multihop.json");
    json << "{\n"
         << "  \"nodes\": " << kHopNodes << ",\n"
         << "  \"edges\": " << 3 * kHopNodes << ",\n"
         << "  \"hops\": 3,\n"
         << "  \"queries\": " << kHopQueries << ",\n"
         << "  \"rounds\": " << kRounds << ",\n"
         << "  \"collapsed_qps\": " << collapsed_best << ",\n"
         << "  \"step_at_a_time_qps\": " << stepwise_best << ",\n"
         << "  \"speedup\": " << hop_speedup << ",\n"
         << "  \"collapse_chosen\": " << collapse_counters.chosen << ",\n"
         << "  \"collapse_executions\": " << collapse_counters.executions
         << ",\n"
         << "  \"collapse_fallbacks\": " << collapse_counters.fallbacks << "\n"
         << "}\n";
  }

  // Floor: the collapsed join must at least match step-at-a-time on its
  // home traversal. In practice it wins (one SQL statement instead of one
  // per hop); equality is the regression tripwire.
  if (collapsed_best < stepwise_best) {
    std::fprintf(stderr, "FAIL: collapsed multi-hop throughput %.0f q/s "
                         "below step-at-a-time %.0f q/s\n",
                 collapsed_best, stepwise_best);
    return 1;
  }
  return 0;
}
