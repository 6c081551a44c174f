// Copyright (c) 2026 The db2graph-repro Authors.
//
// The Graph Structure module (paper Section 6): implements the TinkerPop
// provider API over relational tables through the graph overlay, turning
// every Graph-Structure-Accessing step into SQL. All of Section 6.3's
// data-dependent runtime optimizations live here, individually toggleable
// for the ablation benchmarks:
//
//  * fixed-label table pruning,
//  * prefixed-id table pinning (+ composite-id decomposition into
//    conjunctive predicates),
//  * property-name table pruning from pushdown predicates/projections,
//  * src_v_table / dst_v_table endpoint pruning,
//  * the vertex-table-is-also-edge-table shortcut (construct the vertex
//    from the edge row, no SQL at all),
//  * implicit-edge-id decomposition (src::label::dst) into predicates.

#ifndef DB2GRAPH_CORE_GRAPH_STRUCTURE_H_
#define DB2GRAPH_CORE_GRAPH_STRUCTURE_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/graph_planning.h"
#include "core/sql_dialect.h"
#include "core/vertex_cache.h"
#include "gremlin/graph_api.h"
#include "overlay/topology.h"

namespace db2graph::core {

/// Toggles for the Section 6.3 data-dependent runtime optimizations, plus
/// the hot-vertex cache that sits on top of them. Execution modes
/// (parallelism, streaming, vectorized, block size) live in ExecConfig,
/// not here: the query's dop alone decides whether a multi-table lookup
/// fans its per-table SQL out across the shared thread pool.
struct RuntimeOptions {
  bool label_pruning = true;
  bool prefixed_id_pinning = true;
  bool property_pruning = true;
  bool endpoint_table_pruning = true;
  bool vertex_from_edge_shortcut = true;
  bool implicit_edge_id_decomposition = true;

  /// Sharded LRU cache of fully-materialized vertices by id, invalidated
  /// via the database write epoch. Bypassed under access control.
  bool vertex_cache = true;

  /// Every toggle above off: the paper's naive executor.
  static RuntimeOptions AllOff() {
    RuntimeOptions o;
    o.label_pruning = o.prefixed_id_pinning = o.property_pruning =
        o.endpoint_table_pruning = o.vertex_from_edge_shortcut =
            o.implicit_edge_id_decomposition = o.vertex_cache = false;
    return o;
  }
};

/// GraphProvider over a relational database + overlay topology.
class Db2GraphProvider : public gremlin::GraphProvider {
 public:
  Db2GraphProvider(SqlDialect* dialect, overlay::Topology topology,
                   RuntimeOptions options = {});

  std::string name() const override { return "Db2Graph"; }
  bool SupportsPushdown() const override { return true; }

  Status Vertices(const gremlin::LookupSpec& spec,
                  std::vector<gremlin::VertexPtr>* out) override;
  Status Edges(const gremlin::LookupSpec& spec,
               std::vector<gremlin::EdgePtr>* out) override;

  /// True streaming vertex lookup: per-table SQL runs block-at-a-time, one
  /// table at a time in table order, so a consumer that stops pulling (a
  /// downstream limit) never pays for the tables — or table suffixes — it
  /// did not reach. Point lookups eligible for the vertex cache fall back
  /// to the materialized path so cache semantics are preserved.
  Result<std::unique_ptr<gremlin::VertexStream>> VerticesStreaming(
      const gremlin::LookupSpec& spec) override;
  Status AdjacentEdges(const std::vector<gremlin::VertexPtr>& from,
                       gremlin::Direction dir,
                       const gremlin::LookupSpec& spec,
                       std::vector<gremlin::EdgePtr>* out) override;
  Status EdgeEndpoints(const std::vector<gremlin::EdgePtr>& edges,
                       gremlin::Direction endpoint,
                       const gremlin::LookupSpec& spec,
                       std::vector<gremlin::VertexPtr>* out) override;
  Result<Value> AggregateVertices(const gremlin::LookupSpec& spec) override;
  Result<Value> AggregateEdges(const gremlin::LookupSpec& spec) override;

  /// Executes an optimizer-collapsed hop chain as one N-way join per
  /// (edge-table × vertex-table) chain, in chain order, appending each
  /// chain's emissions to the per-source buckets — which reproduces the
  /// table-major per-source order of step-at-a-time execution. Returns
  /// Unsupported (after logging a fallback against the plan's optimizer
  /// decision) whenever a runtime condition breaks the compile-time
  /// legality assumptions; the interpreter then re-runs the preserved
  /// step-at-a-time body.
  Status MultiHopTraverse(const std::vector<gremlin::VertexPtr>& sources,
                          const gremlin::MultiHopSpec& spec,
                          gremlin::MultiHopBuckets* out) override;

  const overlay::Topology& topology() const { return topology_; }
  const RuntimeOptions& options() const { return options_; }
  SqlDialect* dialect() const { return dialect_; }

  /// Optimization-visible counters for tests and ablations. Readers
  /// should take a Snapshot() for assertions/reporting rather than load
  /// the live counters field by field.
  struct Stats {
    metrics::Counter vertex_tables_queried;
    metrics::Counter vertex_tables_pruned;
    metrics::Counter edge_tables_queried;
    metrics::Counter edge_tables_pruned;
    metrics::Counter shortcut_vertices;  // built from edge rows
    metrics::Counter parallel_batches;   // fan-outs dispatched
    metrics::Counter parallel_tasks;     // per-table jobs in them
    metrics::Counter cache_hits;         // vertex-cache hits
    metrics::Counter cache_misses;       // vertex-cache misses

    /// Plain-value copy of every counter.
    struct Counts {
      uint64_t vertex_tables_queried = 0;
      uint64_t vertex_tables_pruned = 0;
      uint64_t edge_tables_queried = 0;
      uint64_t edge_tables_pruned = 0;
      uint64_t shortcut_vertices = 0;
      uint64_t parallel_batches = 0;
      uint64_t parallel_tasks = 0;
      uint64_t cache_hits = 0;
      uint64_t cache_misses = 0;
    };

    Counts Snapshot() const {
      Counts c;
      c.vertex_tables_queried = vertex_tables_queried.load();
      c.vertex_tables_pruned = vertex_tables_pruned.load();
      c.edge_tables_queried = edge_tables_queried.load();
      c.edge_tables_pruned = edge_tables_pruned.load();
      c.shortcut_vertices = shortcut_vertices.load();
      c.parallel_batches = parallel_batches.load();
      c.parallel_tasks = parallel_tasks.load();
      c.cache_hits = cache_hits.load();
      c.cache_misses = cache_misses.load();
      return c;
    }

    void Reset() {
      vertex_tables_queried = 0;
      vertex_tables_pruned = 0;
      edge_tables_queried = 0;
      edge_tables_pruned = 0;
      shortcut_vertices = 0;
      parallel_batches = 0;
      parallel_tasks = 0;
      cache_hits = 0;
      cache_misses = 0;
    }
  };
  const Stats& stats() const { return stats_; }
  Stats& stats() { return stats_; }

  /// One per-table entry of a compile-time plan preview (Explain): the SQL
  /// a lookup spec would generate against this table, the access path the
  /// executor is predicted to choose (from index availability), and the
  /// table cardinality as a row-count upper bound. Pruned tables appear
  /// with pruned=true and no SQL.
  struct SqlPreview {
    std::string table;
    std::string sql;
    std::string access_path;  // "index probe" | "full scan" | "full scan+filter" | "pruned"
    uint64_t estimated_rows = 0;
    bool pruned = false;
  };

  /// Plan previews for a vertex/edge lookup, without touching any data.
  /// Previews come from the same per-table statements execution issues,
  /// so they show exactly which tables pruning would skip and the SQL
  /// (fetch or aggregate) each surviving table runs.
  Status ExplainVertices(const gremlin::LookupSpec& spec,
                         std::vector<SqlPreview>* out) const;
  Status ExplainEdges(const gremlin::LookupSpec& spec,
                      std::vector<SqlPreview>* out) const;
  /// Preview of EdgeEndpoints over the edges `edge_spec` fetches: the
  /// lookup on each vertex table an edge table pins the endpoint to, with
  /// the endpoint ids (known only at execution) shown as '?', then an
  /// unpinned lookup when some endpoint cannot be pinned.
  Status ExplainEdgeEndpoints(const gremlin::LookupSpec& edge_spec,
                              gremlin::Direction endpoint,
                              const gremlin::LookupSpec& spec,
                              std::vector<SqlPreview>* out) const;
  /// Preview of a collapsed multi-hop chain: one entry per table chain
  /// with the rendered N-way join SQL (without the runtime source-id
  /// conditions) and the optimizer's output-cardinality estimate.
  Status ExplainMultiHop(const gremlin::MultiHopSpec& spec,
                         std::vector<SqlPreview>* out) const;

 private:
  enum class TableKind { kVertex, kEdge };

  /// The per-table planner: plans `spec` over the vertex or edge tables
  /// in `tables` (every table when null), in table order, and builds each
  /// surviving table's statement — the aggregate's when `aggregate`, else
  /// the fetch — for on_planned(TableStatement); pruned tables go to
  /// on_pruned(table name). Pure. An aggregate that needs client-side
  /// filtering is Unsupported.
  template <typename OnPruned, typename OnPlanned>
  Status PlanStatements(TableKind kind, const gremlin::LookupSpec& spec,
                        const std::vector<int>* tables, bool aggregate,
                        const OnPruned& on_pruned,
                        const OnPlanned& on_planned) const;
  /// PlanStatements for execution: counts and traces every table as
  /// pruned or consulted, and returns the surviving statements. An
  /// aggregate that needs client-side filtering is Unsupported (the
  /// caller falls back to fetching).
  Result<std::vector<TableStatement>> SurvivingTables(
      TableKind kind, const gremlin::LookupSpec& spec,
      const std::vector<int>* tables = nullptr, bool aggregate = false);

  /// Issues `stmts` (fanned out when eligible) and appends, in statement
  /// order, the elements `build(j, row)` makes of statement j's rows;
  /// null elements are dropped.
  template <typename Ptr, typename Build>
  Status FetchAll(const std::vector<TableStatement>& stmts,
                  const char* failpoint, const Build& build,
                  std::vector<Ptr>* out);

  /// Edges() restricted to a subset of edge-table indexes (used by
  /// AdjacentEdges after endpoint pruning); null = all.
  Status EdgesOnTables(const gremlin::LookupSpec& spec,
                       const std::vector<int>* tables,
                       std::vector<gremlin::EdgePtr>* out);
  /// One aggregate statement per surviving table, partials merged.
  Result<Value> Aggregate(TableKind kind, const gremlin::LookupSpec& spec);

  Status ExplainTables(TableKind kind, const gremlin::LookupSpec& spec,
                       std::vector<SqlPreview>* out) const;
  /// Preview of `table`'s statement; a null `stmt` previews a pruned
  /// table. See SqlDialect::RenderSql for the unbound parameters.
  SqlPreview Preview(const std::string& table, const TableStatement* stmt,
                     size_t unbound_begin = 0, size_t unbound_end = 0) const;

  /// Runs the per-table jobs fn(0..n-1). They fan out on the shared
  /// thread pool, at most dop at once, when n > 1, the query's resolved
  /// ExecConfig dop is above 1 and the caller holds no database read lock
  /// (counting the batch and its jobs); otherwise they run serially on
  /// this thread.
  void ExecuteJobs(size_t n, const std::function<void(size_t)>& fn);

  /// Answers `id` from the vertex cache, appending the cached vertices
  /// `check` matches; false (and nothing appended) on a miss. Counts and
  /// traces the hit or miss.
  bool FromCache(const Value& id, uint64_t epoch,
                 const gremlin::LookupSpec& check,
                 std::vector<gremlin::VertexPtr>* out);
  /// Cache is consulted only for pure single-id point lookups that fetch
  /// full rows (no projection, no aggregate) outside access control.
  bool CacheUsable(const gremlin::LookupSpec& spec) const;
  /// Entries may only be *filled* from fetches whose result is the
  /// complete vertex set for the id: no label/predicate restriction (those
  /// prune or filter tables a later lookup might need).
  bool CacheFillEligible(const gremlin::LookupSpec& spec) const;

  SqlDialect* dialect_;
  overlay::Topology topology_;
  RuntimeOptions options_;
  /// Full-row fetch layouts per table (client-filtered fetches, and the
  /// vertex-from-edge-row shortcut).
  std::vector<FetchLayout> vertex_full_rows_;
  std::vector<FetchLayout> edge_full_rows_;
  Stats stats_;
  std::unique_ptr<VertexCache> cache_;
};

/// Provenance payload attached to elements produced by Db2GraphProvider:
/// the overlay-table index and the originating relational row.
struct RowProvenance {
  int table_index;
  Row row;
};

}  // namespace db2graph::core

#endif  // DB2GRAPH_CORE_GRAPH_STRUCTURE_H_
