// Copyright (c) 2026 The db2graph-repro Authors.
//
// The Db2 Graph facade: opens a property graph over a relational database
// through an overlay configuration, compiles and optimizes Gremlin
// queries, and executes them through the Graph Structure module. Also
// registers the graphQuery polymorphic table function so graph queries
// can be embedded inside SQL (paper Section 4).
//
// Execution API: one core entry point, Execute(script, ExecOptions),
// carrying bind variables, the session environment, and trace settings.
// Every path — text, PreparedQuery, GremlinService, AutoGraph, graphQuery
// — funnels through the same compiled-plan cache, so repeated query
// shapes parse and optimize once (Gremlin Server's parameterized-script
// compilation cache, brought inside the RDBMS).

#ifndef DB2GRAPH_CORE_DB2GRAPH_H_
#define DB2GRAPH_CORE_DB2GRAPH_H_

#include <memory>
#include <string>
#include <vector>

#include "common/exec_config.h"
#include "common/trace.h"
#include "common/workload_governor.h"
#include "core/graph_structure.h"
#include "core/optimizer.h"
#include "core/plan_cache.h"
#include "core/sql_dialect.h"
#include "core/strategies.h"
#include "gremlin/interpreter.h"
#include "gremlin/parser.h"
#include "overlay/config.h"
#include "sql/database.h"

namespace db2graph::core {

class Db2Graph;

/// Everything one execution can carry beyond the script itself.
struct ExecOptions {
  /// Bind-variable values for the script's placeholders (g.V(vid) with
  /// bindings {"vid": [5]}). With a session environment, bindings are
  /// installed into it (and persist like assignments); otherwise they
  /// seed a per-execution environment.
  gremlin::Environment bindings;
  /// Session-scoped variables shared across calls (the GremlinService
  /// session path); assignments in the script persist into it. The caller
  /// must serialize access — one execution per environment at a time.
  gremlin::Environment* session_env = nullptr;
  /// When set, the execution runs traced and spans/rewrites/SQL records
  /// land here (Finish() is stamped). Otherwise tracing is decided by the
  /// script (.profile() terminal) and the slow-query threshold.
  QueryTrace* trace = nullptr;
  /// Consult/fill the compiled-plan cache. Disabled by benchmarks to
  /// measure the re-parsing text path.
  bool use_plan_cache = true;
  /// Per-call execution tuning and governor limits, overlaid on the
  /// session config (set at Open via Db2Graph::Options::exec /
  /// Database::SetExecConfig) which in turn overlays
  /// ExecConfig::ProcessDefault(). Unset fields inherit. The resolved
  /// config travels thread-locally (ScopedExecConfig) into every SQL
  /// statement the execution issues, so `.parallelism(4)` here
  /// parallelizes the scans deep inside the provider. A query over its
  /// resolved deadline fails with kTimeout, over a budget with
  /// kResourceExhausted — both cooperatively, at the next block boundary
  /// in whichever layer is running.
  ExecConfig config;
  /// Cooperative cancellation handle: Cancel() makes the execution fail
  /// with kCancelled at its next check. Default-constructed = detached
  /// (never fires). GremlinService installs its shutdown token here.
  governor::CancelToken cancel_token;
};

/// A handle to a compiled plan, cheap to copy and safe to execute from
/// many threads at once. The plan is immutable; if DDL runs after
/// Prepare(), Execute() transparently recompiles through the cache (same
/// staleness rule as Db2Graph::OverlayMayBeStale).
class PreparedQuery {
 public:
  PreparedQuery() = default;

  /// Executes with per-call bind-variable values.
  Result<std::vector<gremlin::Traverser>> Execute(
      const gremlin::Environment& bindings = {}) const;
  /// Full-control execution (trace, session environment, ...).
  Result<std::vector<gremlin::Traverser>> Execute(
      const ExecOptions& options) const;

  const std::string& script_text() const { return plan_->script_text; }
  /// Names of the bind placeholders executions must supply.
  std::vector<std::string> unbound_variables() const;
  /// True when DDL ran after this plan was compiled (the next Execute()
  /// recompiles transparently).
  bool IsStale() const;

 private:
  friend class Db2Graph;
  PreparedQuery(Db2Graph* graph, std::shared_ptr<const CompiledPlan> plan)
      : graph_(graph), plan_(std::move(plan)) {}

  Db2Graph* graph_ = nullptr;
  std::shared_ptr<const CompiledPlan> plan_;
};

/// A property graph opened over relational tables. Thread-safe for
/// concurrent Execute() calls (mirroring Gremlin Server handling many
/// clients over one graph).
class Db2Graph {
 public:
  struct Options {
    /// The Section 6.2 compile-time strategies (Fig. 4 toggles all).
    StrategyOptions strategies;
    /// The Section 6.3 data-dependent runtime optimizations.
    RuntimeOptions runtime;
    /// The cost-based multi-hop join collapse (core/optimizer.h).
    OptimizerOptions optimizer;
    /// Session-level execution tuning and governor limits, overlaid at
    /// Open onto the database's session config (Database::SetExecConfig);
    /// fields left unset keep what the database already had. Per-call
    /// ExecOptions::config overlays it.
    ExecConfig exec;
  };

  /// Opens the graph: resolves the overlay against the catalog (this is
  /// the seconds-scale "Open Graph" step of Table 3 — no data is copied).
  static Result<std::unique_ptr<Db2Graph>> Open(
      sql::Database* db, const overlay::OverlayConfig& config,
      Options options = Options());

  /// Same, with the configuration given as JSON text.
  static Result<std::unique_ptr<Db2Graph>> Open(
      sql::Database* db, const std::string& config_json,
      Options options = Options());

  /// THE execution entry point: compiles `script` (through the plan
  /// cache), validates and applies bindings, and runs it. A .profile()
  /// terminal, an options.trace, or a nonzero slow-query threshold runs
  /// the query traced; profile() replaces the result with one traverser
  /// holding the trace rendered as JSON text.
  Result<std::vector<gremlin::Traverser>> Execute(const std::string& script,
                                                  const ExecOptions& options);

  /// Convenience: Execute(script, {}).
  Result<std::vector<gremlin::Traverser>> Execute(const std::string& script);

  /// Compiles `script` once (through the plan cache) and returns a
  /// shareable handle for repeated execution with different bindings.
  Result<PreparedQuery> Prepare(const std::string& script);

  /// Compiles a script without executing (plan inspection / tests).
  Result<gremlin::Script> Compile(const std::string& script) const;

  /// Compile-time EXPLAIN: compiles through the plan cache (recording
  /// whether the plan was cached), then walks the plan previewing the SQL
  /// every Graph-Structure-Accessing step would generate — which tables
  /// prune, the predicted access path, and the table-cardinality row
  /// estimate. No data is read.
  struct ExplainResult {
    std::string text;  // human-readable rendering
    Json json;         // machine-readable rendering
  };
  Result<ExplainResult> Explain(const std::string& script);

  /// Clock used for traced executions (tests inject a fake).
  void SetTraceClockForTesting(TraceClock* clock) { trace_clock_ = clock; }

  /// Cancels the running query with this id (see sysmon.active_queries);
  /// it fails with kCancelled at its next cooperative check. False = no
  /// such query is active.
  static bool KillQuery(uint64_t id, const std::string& reason = {}) {
    return governor::ActiveQueryRegistry::Global().Kill(id, reason);
  }

  /// Registers the `graphQuery` polymorphic table function on the
  /// database: TABLE (graphQuery('gremlin', '<script>')) AS t (cols...).
  /// Results convert to rows per the declared column list; a trailing
  /// values(k1..kn) projection yields n-column rows (Section 4 footnote).
  Status RegisterGraphQueryFunction();

  /// True when DDL ran after this graph was opened, so the overlay may no
  /// longer reflect the catalog (re-open, or use AutoGraph below).
  bool OverlayMayBeStale() const {
    return db_->ddl_version() != ddl_version_at_open_;
  }

  Db2GraphProvider* provider() { return provider_.get(); }
  const overlay::Topology& topology() const { return provider_->topology(); }
  SqlDialect* dialect() { return dialect_.get(); }
  sql::Database* db() { return db_; }
  const Options& options() const { return options_; }
  PlanCache* plan_cache() { return plan_cache_.get(); }
  /// Collapse-decision ring shared with the provider and sysmon.optimizer.
  const std::shared_ptr<OptimizerLog>& optimizer_log() const {
    return optimizer_log_;
  }

 private:
  friend class PreparedQuery;

  Db2Graph(sql::Database* db, Options options)
      : db_(db), options_(options) {}

  /// Plan-cache lookup (keyed on options fingerprint + script text,
  /// ddl-version checked) or compile-and-insert. `was_cached` reports
  /// which happened.
  Result<std::shared_ptr<const CompiledPlan>> GetOrCompile(
      const std::string& script_text, bool use_cache, bool* was_cached);

  /// The execution core every public path funnels into.
  Result<std::vector<gremlin::Traverser>> ExecutePlan(
      std::shared_ptr<const CompiledPlan> plan, const ExecOptions& options,
      bool plan_cached);

  /// Bind validation: every slot supplied (NotFound otherwise) with a
  /// usable type/shape (InvalidArgument otherwise).
  Status ValidateBindings(const CompiledPlan& plan,
                          const ExecOptions& options) const;

  /// Context the multi-hop collapse pass compiles against.
  OptimizerContext MakeOptimizerContext() const;

  sql::Database* db_;
  Options options_;
  uint64_t ddl_version_at_open_ = 0;
  TraceClock* trace_clock_ = TraceClock::Default();
  std::unique_ptr<SqlDialect> dialect_;
  std::unique_ptr<Db2GraphProvider> provider_;
  // shared_ptr: sysmon.plan_cache (registered on the database at Open)
  // holds a weak_ptr so the virtual table survives graph teardown.
  std::shared_ptr<PlanCache> plan_cache_;
  // Same ownership story for sysmon.optimizer.
  std::shared_ptr<OptimizerLog> optimizer_log_;
  /// Options part of the cache key (strategy toggles change the plan).
  std::string plan_key_prefix_;
};

/// A self-refreshing AutoOverlay graph: the overlay is derived from the
/// catalog (Algorithms 1 & 2) and regenerated transparently whenever DDL
/// has run — the catalog integration the paper lists as future work.
class AutoGraph {
 public:
  static Result<AutoGraph> Open(sql::Database* db,
                                Db2Graph::Options options = Db2Graph::Options());

  /// The current graph, regenerating the overlay first when stale.
  Result<Db2Graph*> Get();

  /// Convenience: refresh-if-needed, then execute through the unified
  /// path (profile(), the slow-query log, and the plan cache all apply).
  Result<std::vector<gremlin::Traverser>> Execute(const std::string& script);
  Result<std::vector<gremlin::Traverser>> Execute(const std::string& script,
                                                  const ExecOptions& options);

 private:
  AutoGraph(sql::Database* db, Db2Graph::Options options)
      : db_(db), options_(options) {}

  Status Reopen();

  sql::Database* db_;
  Db2Graph::Options options_;
  std::unique_ptr<Db2Graph> graph_;
};

}  // namespace db2graph::core

#endif  // DB2GRAPH_CORE_DB2GRAPH_H_
