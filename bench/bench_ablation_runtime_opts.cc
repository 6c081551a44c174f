// Ablation of the Section 6.3 data-dependent runtime optimizations.
//
// The optimizations are deliberately redundant for the common query
// shapes (a prefixed id pins the same table that a fixed label prunes
// to), so a naive leave-one-out matrix shows nothing until everything is
// off — and "everything off" is catastrophic (every query scans every
// table). This bench instead exercises each optimization on the query
// shape where it is the *only* applicable pruning mechanism, plus the
// all-on / all-off extremes on the LinkBench mix.
//
// Layout: partitioned LinkBench (10 vertex + 10 edge tables), LB-small.

#include <cstdio>

#include "bench/bench_util.h"
#include "linkbench/partitioned.h"

namespace {

using db2graph::bench::LatencyStats;
using db2graph::bench::MeasureLatency;
using db2graph::core::Db2Graph;
using db2graph::core::RuntimeOptions;
using db2graph::linkbench::PartitionedWorkload;
using db2graph::linkbench::QueryType;

struct Scenario {
  const char* name;
  const char* query;          // fixed query exercising one optimization
  bool prefixed_overlay;      // which overlay variant to open
  RuntimeOptions off_options; // the one optimization disabled
  int iterations;             // fewer when the "off" side is slow
};

double MeasureOne(db2graph::sql::Database* db, bool prefixed,
                  const RuntimeOptions& options, const std::string& query,
                  int iterations, double* tables_per_query) {
  Db2Graph::Options graph_options;
  graph_options.runtime = options;
  auto graph = Db2Graph::Open(
      db, db2graph::linkbench::MakePartitionedOverlay(prefixed),
      graph_options);
  if (!graph.ok()) std::abort();
  auto run = [&](const std::string& q) {
    auto out = (*graph)->Execute(q);
    if (!out.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   out.status().ToString().c_str());
      std::abort();
    }
  };
  for (int i = 0; i < iterations / 5 + 1; ++i) run(query);
  (*graph)->provider()->stats().Reset();
  std::vector<std::string> queries(iterations, query);
  LatencyStats stats = MeasureLatency(run, queries);
  *tables_per_query =
      static_cast<double>(
          (*graph)->provider()->stats().Snapshot().vertex_tables_queried +
          (*graph)->provider()->stats().Snapshot().edge_tables_queried) /
      iterations;
  return stats.mean_us;
}

}  // namespace

int main() {
  db2graph::linkbench::Config config = db2graph::linkbench::Config::Small();
  std::fprintf(stderr, "[setup] generating partitioned LB-small...\n");
  db2graph::linkbench::Dataset dataset =
      db2graph::linkbench::GeneratePartitioned(config);
  db2graph::sql::Database db;
  if (!db2graph::linkbench::LoadIntoPartitionedDatabase(&db, dataset).ok()) {
    return 1;
  }

  RuntimeOptions no_label;
  no_label.label_pruning = false;
  RuntimeOptions no_pinning;
  no_pinning.prefixed_id_pinning = false;
  RuntimeOptions no_endpoint;
  no_endpoint.endpoint_table_pruning = false;
  no_endpoint.vertex_from_edge_shortcut = false;
  RuntimeOptions no_implicit;
  no_implicit.implicit_edge_id_decomposition = false;

  // Each scenario isolates one optimization:
  //  * label pruning: a label scan with no ids to pin tables;
  //  * prefixed-id pinning: a prefixed-id lookup with no label step;
  //  * endpoint tables: out() over plain integer ids (nothing else can
  //    narrow the endpoint vertex table);
  //  * implicit edge ids: an edge lookup by its composed id.
  Scenario scenarios[] = {
      {"label-pruning", "g.V().hasLabel('vt3').count()", true, no_label,
       60},
      {"prefixed-id-pinning", "g.V('vt3::213')", true, no_pinning, 60},
      {"endpoint-vertex-tables", "g.V(213).out('et3')", false, no_endpoint,
       400},
      {"implicit-edge-id", "", true, no_implicit, 60},
  };
  // Build a real implicit edge id from the dataset.
  const auto& link = dataset.links[7];
  std::string edge_id =
      db2graph::linkbench::PartitionedVertexId(link.id1) + "::" +
      db2graph::linkbench::Dataset::EdgeLabel(link.ltype) + "::" +
      db2graph::linkbench::PartitionedVertexId(link.id2);
  std::string edge_query = "g.E('" + edge_id + "')";
  scenarios[3].query = edge_query.c_str();

  std::printf(
      "Ablation: Section 6.3 runtime optimizations, each on the query\n"
      "shape where it is the only applicable pruning (LB-small,\n"
      "partitioned overlay). Cells: mean latency us (tables queried).\n\n");
  std::printf("%-24s %18s %18s %9s\n", "Optimization", "on", "off",
              "speedup");
  for (const Scenario& s : scenarios) {
    double tables_on = 0;
    double tables_off = 0;
    double on_us = MeasureOne(&db, s.prefixed_overlay, RuntimeOptions{},
                              s.query, s.iterations, &tables_on);
    double off_us = MeasureOne(&db, s.prefixed_overlay, s.off_options,
                               s.query, s.iterations, &tables_off);
    std::printf("%-24s %10.1f (%4.1f) %10.1f (%4.1f) %8.1fx\n", s.name,
                on_us, tables_on, off_us, tables_off, off_us / on_us);
  }

  // The extremes on the real LinkBench mix (all-off is the fully naive
  // executor: every query consults every table, scanning when it cannot
  // form predicates).
  std::printf("\nLinkBench mixed workload (100 queries/type):\n");
  std::printf("%-24s %18s %18s %9s\n", "Variant", "mean us", "tables/query",
              "");
  for (bool naive : {false, true}) {
    const char* name = naive ? "all-off" : "all-on";
    Db2Graph::Options graph_options;
    if (naive) {
      // The naive executor also runs materialized and row-at-a-time.
      graph_options.runtime = RuntimeOptions::AllOff();
      graph_options.exec =
          db2graph::ExecConfig().streaming(false).vectorized(false);
    }
    auto graph = Db2Graph::Open(
        &db, db2graph::linkbench::MakePartitionedOverlay(true),
        graph_options);
    if (!graph.ok()) return 1;
    PartitionedWorkload workload(dataset, 5);
    std::vector<std::string> queries;
    for (int i = 0; i < 100; ++i) {
      for (QueryType t :
           {QueryType::kGetNode, QueryType::kCountLinks, QueryType::kGetLink,
            QueryType::kGetLinkList}) {
        queries.push_back(workload.Next(t));
      }
    }
    auto run = [&](const std::string& q) {
      auto out = (*graph)->Execute(q);
      if (!out.ok()) std::abort();
    };
    for (int i = 0; i < 20; ++i) run(queries[i]);
    (*graph)->provider()->stats().Reset();
    LatencyStats stats = MeasureLatency(run, queries);
    double tables =
        static_cast<double>(
            (*graph)->provider()->stats().Snapshot().vertex_tables_queried +
            (*graph)->provider()->stats().Snapshot().edge_tables_queried) /
        queries.size();
    std::printf("%-24s %15.1f %18.1f\n", name, stats.mean_us, tables);
  }
  std::printf(
      "\nThe optimizations overlap by design: any one of them usually pins\n"
      "the right table for LinkBench queries, so the mixed workload only\n"
      "collapses when all are disabled (the paper's 'naive' execution).\n");
  return 0;
}
