#include "core/db2graph.h"

#include <optional>

#include "common/exec_config.h"
#include "common/query_log.h"
#include "common/strings.h"
#include "common/workload_governor.h"
#include "overlay/auto_overlay.h"
#include "overlay/topology.h"
#include "sql/table.h"
#include "sql/virtual_table.h"

namespace db2graph::core {

using gremlin::Environment;
using gremlin::Script;
using gremlin::StepKind;
using gremlin::Traverser;

Result<std::unique_ptr<Db2Graph>> Db2Graph::Open(
    sql::Database* db, const overlay::OverlayConfig& config,
    Options options) {
  Result<overlay::Topology> topology = overlay::Topology::Build(*db, config);
  if (!topology.ok()) return topology.status();
  // Session execution config: Options::exec overlays whatever the
  // database's session layer already holds (an earlier SetExecConfig, or
  // another graph's Options::exec), so SQL issued through any path
  // resolves the same session layer.
  db->SetExecConfig(db->exec_config().OverlaidBy(options.exec));
  std::unique_ptr<Db2Graph> graph(new Db2Graph(db, options));
  graph->ddl_version_at_open_ = db->ddl_version();
  graph->dialect_ = std::make_unique<SqlDialect>(db);
  graph->provider_ = std::make_unique<Db2GraphProvider>(
      graph->dialect_.get(), std::move(*topology), options.runtime);
  graph->plan_cache_ = std::make_shared<PlanCache>();
  // sysmon.plan_cache: the core layer owns the plan cache, so it (not the
  // SQL layer) contributes this SYSMON table. The fill holds a weak_ptr —
  // a graph closed before its database simply renders an empty table.
  {
    sql::VirtualTableDef def;
    def.schema.name = "sysmon.plan_cache";
    def.schema.columns = {{"hits", sql::ColumnType::kInt},
                          {"misses", sql::ColumnType::kInt},
                          {"invalidations", sql::ColumnType::kInt},
                          {"evictions", sql::ColumnType::kInt},
                          {"entries", sql::ColumnType::kInt}};
    std::weak_ptr<PlanCache> cache = graph->plan_cache_;
    def.fill = [cache](sql::Table* out) -> Status {
      std::shared_ptr<PlanCache> locked = cache.lock();
      if (locked == nullptr) return Status::OK();
      PlanCache::Counts c = locked->Snapshot();
      return out
          ->Insert({static_cast<int64_t>(c.hits),
                    static_cast<int64_t>(c.misses),
                    static_cast<int64_t>(c.invalidations),
                    static_cast<int64_t>(c.evictions),
                    static_cast<int64_t>(locked->size())})
          .status();
    };
    db->RegisterVirtualTable(std::move(def));
  }
  graph->optimizer_log_ = std::make_shared<OptimizerLog>();
  // sysmon.optimizer: one row per recent collapse decision — what the
  // optimizer attempted, whether it chose the join, why it bailed, and
  // (once executed) actual rows next to the compile-time estimate.
  {
    sql::VirtualTableDef def;
    def.schema.name = "sysmon.optimizer";
    def.schema.columns = {{"id", sql::ColumnType::kInt},
                          {"chain", sql::ColumnType::kString},
                          {"chosen", sql::ColumnType::kBool},
                          {"bail_reason", sql::ColumnType::kString},
                          {"hops", sql::ColumnType::kInt},
                          {"join_order", sql::ColumnType::kString},
                          {"est_rows", sql::ColumnType::kInt},
                          {"actual_rows", sql::ColumnType::kInt},
                          {"executions", sql::ColumnType::kInt},
                          {"fallbacks", sql::ColumnType::kInt}};
    std::weak_ptr<OptimizerLog> log = graph->optimizer_log_;
    def.fill = [log](sql::Table* out) -> Status {
      std::shared_ptr<OptimizerLog> locked = log.lock();
      if (locked == nullptr) return Status::OK();
      for (const OptimizerLog::Decision& d : locked->Snapshot()) {
        DB2G_RETURN_NOT_OK(
            out->Insert({static_cast<int64_t>(d.id), d.chain, d.chosen,
                         d.bail_reason, static_cast<int64_t>(d.hops),
                         d.join_order, static_cast<int64_t>(d.est_rows),
                         static_cast<int64_t>(d.actual_rows),
                         static_cast<int64_t>(d.executions),
                         static_cast<int64_t>(d.fallbacks)})
                .status());
      }
      return Status::OK();
    };
    db->RegisterVirtualTable(std::move(def));
  }
  // Strategy toggles change what a script compiles to, so they join the
  // cache key (the cache is per-graph, but Options could someday be
  // per-execution; cheap insurance). The optimizer master switch joins
  // them for the same reason.
  const StrategyOptions& s = options.strategies;
  graph->plan_key_prefix_ =
      std::string("s") + (s.predicate_pushdown ? '1' : '0') +
      (s.projection_pushdown ? '1' : '0') +
      (s.aggregate_pushdown ? '1' : '0') +
      (s.graphstep_vertexstep_mutation ? '1' : '0') +
      (s.limit_pushdown ? '1' : '0') +
      (options.optimizer.multi_hop_collapse ? '1' : '0') + '\x01';
  return graph;
}

namespace {

// The interpreter's execution knobs, derived from the resolved ExecConfig
// so every execution path (Execute, graphQuery) runs the same pipeline
// shape. Unset block_rows keeps the interpreter's own default.
gremlin::Interpreter::Options InterpreterOptions(const ExecConfig& cfg) {
  gremlin::Interpreter::Options o;
  o.streaming = cfg.streaming();
  if (cfg.block_rows() > 0) o.block_size = cfg.block_rows();
  o.parallelism = cfg.parallelism();
  return o;
}

// Total hops folded into MultiHopSteps anywhere in `steps` (the collapsed
// steps' bodies hold the preserved fallback plan, so they don't count).
uint64_t CountCollapsedHops(const std::vector<gremlin::Step>& steps) {
  uint64_t hops = 0;
  for (const gremlin::Step& step : steps) {
    if (step.kind == StepKind::kMultiHop) {
      if (step.multi_hop != nullptr) hops += step.multi_hop->hops.size();
      continue;
    }
    hops += CountCollapsedHops(step.body);
    for (const auto& branch : step.branches) {
      hops += CountCollapsedHops(branch);
    }
  }
  return hops;
}

uint64_t CountCollapsedHops(const Script& script) {
  uint64_t hops = 0;
  for (const gremlin::ScriptStatement& stmt : script.statements) {
    hops += CountCollapsedHops(stmt.traversal.steps);
  }
  return hops;
}

}  // namespace

OptimizerContext Db2Graph::MakeOptimizerContext() const {
  OptimizerContext ctx;
  ctx.topology = &provider_->topology();
  ctx.db = db_;
  ctx.runtime = &options_.runtime;
  ctx.options = options_.optimizer;
  ctx.log = optimizer_log_;
  return ctx;
}

Result<std::unique_ptr<Db2Graph>> Db2Graph::Open(
    sql::Database* db, const std::string& config_json, Options options) {
  Result<overlay::OverlayConfig> config =
      overlay::OverlayConfig::Parse(config_json);
  if (!config.ok()) return config.status();
  return Open(db, *config, options);
}

Result<Script> Db2Graph::Compile(const std::string& script_text) const {
  Result<Script> script = gremlin::ParseGremlin(script_text);
  if (!script.ok()) return script.status();
  ApplyStrategies(&*script, options_.strategies);
  CollapseMultiHops(&*script, MakeOptimizerContext());
  return script;
}

Result<std::shared_ptr<const CompiledPlan>> Db2Graph::GetOrCompile(
    const std::string& script_text, bool use_cache, bool* was_cached) {
  // The catalog version is read before compiling: DDL racing the compile
  // makes the plan stale (conservatively), never silently current.
  uint64_t ddl_version = db_->ddl_version();
  // Like the catalog version, the stats epoch is read before compiling so
  // racing mutations make a stats-sensitive plan stale, never silently
  // current.
  uint64_t stats_epoch = db_->stats_epoch();
  const std::string key = plan_key_prefix_ + script_text;
  if (use_cache) {
    if (std::shared_ptr<const CompiledPlan> hit =
            plan_cache_->Lookup(key, ddl_version)) {
      // A plan whose shape the multi-hop optimizer decided from the live
      // statistics expires once the stats epoch drifts far enough that
      // the costing could choose differently; fall through to recompile
      // (Insert below replaces the entry).
      if (hit->stats_sensitive && stats_epoch > hit->stats_epoch &&
          stats_epoch - hit->stats_epoch >
              options_.optimizer.stats_drift_limit) {
        metrics::MetricsRegistry::Global()
            .GetCounter(PlanCache::kStaleStatsRecompilesCounter)
            ->fetch_add(1);
      } else {
        *was_cached = true;
        return hit;
      }
    }
  }
  *was_cached = false;
  Result<Script> script = gremlin::ParseGremlin(script_text);
  if (!script.ok()) return script.status();
  auto plan = std::make_shared<CompiledPlan>();
  plan->script_text = script_text;
  plan->ddl_version = ddl_version;
  for (const gremlin::ScriptStatement& stmt : script->statements) {
    plan->has_profile |= stmt.terminal_profile;
  }
  {
    // Strategies run once, at compile time, inside a scratch trace so the
    // rewrites they make are captured on the plan (traced executions
    // replay them instead of re-running the passes).
    QueryTrace compile_trace(trace_clock_);
    ScopedTrace scoped(&compile_trace);
    ApplyStrategies(&*script, options_.strategies);
    plan->rewrites = compile_trace.Rewrites();
  }
  // The multi-hop collapse runs after the strategies (it consumes the
  // pushed-down predicate/projection shapes they produce). A plan the
  // pass examined at all is statistics-sensitive: its shape was decided
  // from the live cardinalities/NDVs, so it expires on stats drift.
  CollapseSummary collapse = CollapseMultiHops(&*script, MakeOptimizerContext());
  plan->stats_epoch = stats_epoch;
  plan->stats_sensitive = collapse.attempted > 0;
  plan->collapsed_hops = CountCollapsedHops(*script);
  plan->script = std::move(*script);
  plan->binds = CollectBindSlots(plan->script);
  if (use_cache) plan_cache_->Insert(key, plan);
  return std::shared_ptr<const CompiledPlan>(std::move(plan));
}

namespace {

const std::vector<Value>* FindBinding(const ExecOptions& options,
                                      const std::string& name) {
  auto it = options.bindings.find(name);
  if (it != options.bindings.end()) return &it->second;
  if (options.session_env != nullptr) {
    auto sit = options.session_env->find(name);
    if (sit != options.session_env->end()) return &sit->second;
  }
  return nullptr;
}

// Files one sysmon.query_log entry for a Gremlin execution. With a trace,
// row totals come from the statements the query issued; untraced, the
// traverser count stands in for rows_emitted.
void RecordGremlinQueryLog(const CompiledPlan& plan, bool plan_cached,
                           const Result<std::vector<Traverser>>& out,
                           uint64_t micros, const QueryTrace* trace,
                           uint64_t dop) {
  QueryLog& log = QueryLog::Global();
  if (!log.enabled()) return;
  QueryLog::Entry entry;
  entry.layer = "gremlin";
  entry.script = plan.script_text;
  entry.plan_source = plan_cached ? "cached" : "compiled";
  entry.dop = dop;
  entry.collapsed_hops = plan.collapsed_hops;
  entry.micros = micros;
  if (trace != nullptr) {
    QueryTrace::RowTotals totals = trace->SqlRowTotals();
    entry.rows_scanned = totals.rows_scanned;
    entry.rows_emitted = totals.rows_emitted;
  } else if (out.ok()) {
    entry.rows_emitted = out->size();
  }
  if (!out.ok()) {
    entry.error = true;
    entry.error_message = out.status().message();
  }
  entry.reason = governor::TerminationReason(out.status());
  log.Record(std::move(entry));
}

}  // namespace

Status Db2Graph::ValidateBindings(const CompiledPlan& plan,
                                  const ExecOptions& options) const {
  for (const CompiledPlan::BindSlot& slot : plan.binds) {
    const std::vector<Value>* values = FindBinding(options, slot.name);
    if (values == nullptr) {
      return Status::NotFound("Gremlin: unbound variable '" + slot.name +
                              "'");
    }
    if (slot.use == CompiledPlan::BindSlot::Use::kId) {
      for (const Value& v : *values) {
        if (!v.is_int() && !v.is_string()) {
          return Status::InvalidArgument(
              "Gremlin: bind variable '" + slot.name + "' has type " +
              ValueTypeName(v.type()) +
              " where an element id (BIGINT or VARCHAR) is required");
        }
      }
    } else {
      const bool scalar_op =
          slot.op != gremlin::PropPredicate::Op::kWithin &&
          slot.op != gremlin::PropPredicate::Op::kWithout;
      if (scalar_op && values->size() != 1) {
        return Status::InvalidArgument(
            "Gremlin: bind variable '" + slot.name + "' supplies " +
            std::to_string(values->size()) +
            " values; a scalar comparison needs exactly one");
      }
      for (const Value& v : *values) {
        if (v.is_null()) {
          return Status::InvalidArgument("Gremlin: bind variable '" +
                                         slot.name +
                                         "' is NULL; predicates need a "
                                         "comparable value");
        }
      }
    }
  }
  return Status::OK();
}

Result<std::vector<Traverser>> Db2Graph::ExecutePlan(
    std::shared_ptr<const CompiledPlan> plan, const ExecOptions& options,
    bool plan_cached) {
  // A PreparedQuery outliving DDL recompiles transparently — the same
  // staleness rule the cache itself enforces.
  if (plan->ddl_version != db_->ddl_version()) {
    Result<std::shared_ptr<const CompiledPlan>> fresh =
        GetOrCompile(plan->script_text, options.use_plan_cache, &plan_cached);
    if (!fresh.ok()) return fresh.status();
    plan = std::move(*fresh);
  }
  DB2G_RETURN_NOT_OK(ValidateBindings(*plan, options));

  // Bindings land in the session environment when one is given (they
  // persist like assignments); otherwise they seed a per-execution one.
  Environment local_env;
  Environment* env = options.session_env;
  if (env != nullptr) {
    for (const auto& [name, values] : options.bindings) {
      (*env)[name] = values;
    }
  } else {
    local_env = options.bindings;
    env = &local_env;
  }

  // Per-query execution config: process defaults <- database session
  // (Options::exec / SetExecConfig) <- this call's overrides. Installed
  // thread-locally so every SQL statement this execution issues — provider
  // lookups, graphQuery bodies — resolves the same dop / vectorized /
  // block-size settings (Executor::Compile reads ExecConfig::Current()).
  const ExecConfig exec_cfg = ExecConfig::ProcessDefault()
                                  .OverlaidBy(db_->exec_config())
                                  .OverlaidBy(options.config);
  ScopedExecConfig scoped_exec(exec_cfg);

  // Workload governance: any effective limit of the resolved config or a
  // live cancel token puts the execution under a QueryContext —
  // registered for sysmon.active_queries / KillQuery and installed
  // thread-locally for the duration, so every layer's block-boundary
  // checks observe it. Ungoverned queries allocate nothing and every
  // downstream CheckCurrent() stays a thread-local null test.
  const governor::GovernorLimits limits{exec_cfg.timeout_ms(),
                                        exec_cfg.max_result_rows(),
                                        exec_cfg.max_memory_bytes()};
  std::shared_ptr<governor::QueryContext> query_ctx;
  if (limits.any() || options.cancel_token.valid()) {
    query_ctx = std::make_shared<governor::QueryContext>(
        plan->script_text, limits, options.cancel_token);
  }
  governor::ScopedActiveQuery governed(query_ctx);

  gremlin::Interpreter interpreter(provider_.get(),
                                   InterpreterOptions(exec_cfg));
  const int64_t slow_ms = SlowQueryLog::Global().threshold_ms();
  const bool traced =
      options.trace != nullptr || plan->has_profile || slow_ms > 0;
  if (!traced) {
    // Untraced hot path: no QueryTrace exists, so every record site below
    // is a thread-local null check and nothing more. The query log adds
    // one relaxed atomic read, and when enabled two clock reads plus a
    // guarded deque push.
    if (!QueryLog::Global().enabled()) {
      Result<std::vector<Traverser>> out =
          interpreter.RunScript(plan->script, env);
      governor::CountTermination(out.status());
      return out;
    }
    uint64_t begin = trace_clock_->NowMicros();
    Result<std::vector<Traverser>> out =
        interpreter.RunScript(plan->script, env);
    governor::CountTermination(out.status());
    RecordGremlinQueryLog(*plan, plan_cached, out,
                          trace_clock_->NowMicros() - begin, nullptr,
                          exec_cfg.parallelism());
    return out;
  }

  QueryTrace local_trace(trace_clock_);
  QueryTrace* trace = options.trace != nullptr ? options.trace : &local_trace;
  trace->SetScript(plan->script_text);
  trace->SetPlanSource(plan_cached ? "cached" : "compiled");
  // Strategies already ran at compile time; replay their rewrites so a
  // cached plan's trace still explains how the plan came to be.
  for (const StrategyRewrite& r : plan->rewrites) {
    trace->AddRewrite(r.strategy, r.before, r.after);
  }
  uint64_t start = trace->clock()->NowMicros();
  Result<std::vector<Traverser>> out =
      [&]() -> Result<std::vector<Traverser>> {
    ScopedTrace scoped(trace);
    return interpreter.RunScript(plan->script, env);
  }();
  uint64_t elapsed = trace->clock()->NowMicros() - start;
  governor::CountTermination(out.status());
  trace->SetTermination(governor::TerminationReason(out.status()));
  trace->Finish(elapsed);
  if (slow_ms > 0 && elapsed >= static_cast<uint64_t>(slow_ms) * 1000) {
    SlowQueryLog::Entry entry;
    entry.script = plan->script_text;
    entry.elapsed_micros = elapsed;
    QueryTrace::RowTotals totals = trace->SqlRowTotals();
    entry.rows_scanned = totals.rows_scanned;
    entry.rows_emitted = totals.rows_emitted;
    entry.reason = governor::TerminationReason(out.status());
    entry.trace_json = trace->ToJson().Dump(2);
    SlowQueryLog::Global().Record(std::move(entry));
  }
  RecordGremlinQueryLog(*plan, plan_cached, out, elapsed, trace,
                        exec_cfg.parallelism());
  if (!out.ok()) return out.status();
  if (plan->has_profile) {
    std::vector<Traverser> result;
    result.push_back(Traverser::OfValue(Value(trace->ToJson().Dump(2))));
    return result;
  }
  return out;
}

Result<std::vector<Traverser>> Db2Graph::Execute(
    const std::string& script_text, const ExecOptions& options) {
  bool was_cached = false;
  Result<std::shared_ptr<const CompiledPlan>> plan =
      GetOrCompile(script_text, options.use_plan_cache, &was_cached);
  if (!plan.ok()) return plan.status();
  return ExecutePlan(std::move(*plan), options, was_cached);
}

Result<std::vector<Traverser>> Db2Graph::Execute(
    const std::string& script_text) {
  return Execute(script_text, ExecOptions{});
}

Result<PreparedQuery> Db2Graph::Prepare(const std::string& script_text) {
  bool was_cached = false;
  Result<std::shared_ptr<const CompiledPlan>> plan =
      GetOrCompile(script_text, /*use_cache=*/true, &was_cached);
  if (!plan.ok()) return plan.status();
  return PreparedQuery(this, std::move(*plan));
}

Result<std::vector<Traverser>> PreparedQuery::Execute(
    const gremlin::Environment& bindings) const {
  ExecOptions options;
  options.bindings = bindings;
  return Execute(options);
}

Result<std::vector<Traverser>> PreparedQuery::Execute(
    const ExecOptions& options) const {
  if (graph_ == nullptr || plan_ == nullptr) {
    return Status::InvalidArgument("PreparedQuery: not prepared");
  }
  return graph_->ExecutePlan(plan_, options, /*plan_cached=*/true);
}

std::vector<std::string> PreparedQuery::unbound_variables() const {
  std::vector<std::string> names;
  if (plan_ == nullptr) return names;
  for (const CompiledPlan::BindSlot& slot : plan_->binds) {
    names.push_back(slot.name);
  }
  return names;
}

bool PreparedQuery::IsStale() const {
  return graph_ != nullptr && plan_ != nullptr &&
         plan_->ddl_version != graph_->db_->ddl_version();
}

namespace {

using gremlin::Direction;
using gremlin::GremlinArg;
using gremlin::LookupSpec;
using gremlin::Step;

// Files one provider plan preview into the trace's innermost open span.
void AddPreviews(QueryTrace* trace,
                 const std::vector<Db2GraphProvider::SqlPreview>& previews) {
  for (const Db2GraphProvider::SqlPreview& p : previews) {
    if (p.pruned) {
      trace->AddTablePruned(p.table);
      continue;
    }
    trace->AddTableConsulted(p.table);
    SqlTraceRecord record;
    record.table = p.table;
    record.sql = p.sql;
    record.access_path = p.access_path;
    record.rows_estimated = p.estimated_rows;
    trace->RecordSql(std::move(record));
  }
}

// Opens a span per step and previews the SQL each GSA step would issue.
// Anchor sets are unknown at compile time, so VertexStep previews show
// the per-table plans the spec alone determines (label/property pruning);
// script-variable id arguments stay unresolved, and endpoint lookups show
// their runtime-bound ids as '?'.
Status ExplainSteps(const Db2GraphProvider* provider,
                    const std::vector<Step>& steps, QueryTrace* trace) {
  // The edge lookup of the latest edge-emitting step, whose edges an
  // EdgeVertexStep resolves.
  std::optional<LookupSpec> edges_spec;
  for (const Step& step : steps) {
    int span = trace->BeginStep(gremlin::StepKindName(step.kind),
                                step.ToString(), 0);
    Status st = Status::OK();
    std::vector<Db2GraphProvider::SqlPreview> previews;
    if (step.kind == StepKind::kGraph) {
      LookupSpec spec = step.spec;
      for (const GremlinArg& a : step.start_ids) {
        if (!a.is_var()) spec.ids.push_back(a.literal);
      }
      for (const GremlinArg& a : step.src_id_args) {
        if (!a.is_var()) spec.src_ids.push_back(a.literal);
      }
      for (const GremlinArg& a : step.dst_id_args) {
        if (!a.is_var()) spec.dst_ids.push_back(a.literal);
      }
      if (step.graph_emits_edges) {
        st = provider->ExplainEdges(spec, &previews);
        edges_spec = spec;
      } else {
        st = provider->ExplainVertices(spec, &previews);
      }
      if (st.ok()) AddPreviews(trace, previews);
    } else if (step.kind == StepKind::kVertex) {
      LookupSpec edge_spec = gremlin::AdjacencyEdgeSpec(step);
      st = provider->ExplainEdges(edge_spec, &previews);
      if (st.ok() && step.to_vertex) {
        AddPreviews(trace, previews);
        previews.clear();
        Direction endpoint = step.direction == Direction::kOut ? Direction::kIn
                             : step.direction == Direction::kIn
                                 ? Direction::kOut
                                 : Direction::kBoth;
        st = provider->ExplainEdgeEndpoints(edge_spec, endpoint, step.spec,
                                            &previews);
      }
      if (!step.to_vertex) edges_spec = edge_spec;
      if (st.ok()) AddPreviews(trace, previews);
    } else if (step.kind == StepKind::kEdgeVertex) {
      st = edges_spec ? provider->ExplainEdgeEndpoints(
                            *edges_spec, step.direction, step.spec, &previews)
                      : provider->ExplainVertices(step.spec, &previews);
      if (st.ok()) AddPreviews(trace, previews);
    } else if (step.kind == StepKind::kMultiHop &&
               step.multi_hop != nullptr) {
      st = provider->ExplainMultiHop(*step.multi_hop, &previews);
      if (st.ok()) AddPreviews(trace, previews);
    }
    // A MultiHopStep's body is the preserved step-at-a-time fallback, not
    // the plan execution is expected to take — its per-hop SQL would
    // double-count against the join preview above.
    if (st.ok() && !step.body.empty() &&
        step.kind != StepKind::kMultiHop) {
      st = ExplainSteps(provider, step.body, trace);
    }
    for (const auto& branch : step.branches) {
      if (!st.ok()) break;
      st = ExplainSteps(provider, branch, trace);
    }
    trace->EndStep(span, 0);
    DB2G_RETURN_NOT_OK(st);
  }
  return Status::OK();
}

}  // namespace

Result<Db2Graph::ExplainResult> Db2Graph::Explain(
    const std::string& script_text) {
  bool was_cached = false;
  Result<std::shared_ptr<const CompiledPlan>> plan =
      GetOrCompile(script_text, /*use_cache=*/true, &was_cached);
  if (!plan.ok()) return plan.status();
  QueryTrace trace(trace_clock_);
  trace.SetScript(script_text);
  trace.SetPlanSource(was_cached ? "cached" : "compiled");
  for (const StrategyRewrite& r : (*plan)->rewrites) {
    trace.AddRewrite(r.strategy, r.before, r.after);
  }
  {
    ScopedTrace scoped(&trace);
    for (const gremlin::ScriptStatement& stmt : (*plan)->script.statements) {
      DB2G_RETURN_NOT_OK(
          ExplainSteps(provider_.get(), stmt.traversal.steps, &trace));
    }
  }
  ExplainResult result;
  result.text = trace.RenderText();
  result.json = trace.ToJson();
  return result;
}

Status Db2Graph::RegisterGraphQueryFunction() {
  Db2Graph* self = this;
  db_->RegisterTableFunction(
      "graphQuery",
      [self](const std::vector<Value>& args) -> Result<sql::ResultSet> {
        if (args.size() != 2 || !args[0].is_string() ||
            !args[1].is_string()) {
          return Status::InvalidArgument(
              "graphQuery expects (language, query) string arguments");
        }
        if (!EqualsIgnoreCase(args[0].as_string(), "gremlin")) {
          return Status::Unsupported("graphQuery language must be 'gremlin'");
        }
        // Compile through the plan cache: a graphQuery embedded in a
        // repeatedly-executed SQL statement parses its script once.
        bool was_cached = false;
        Result<std::shared_ptr<const CompiledPlan>> plan =
            self->GetOrCompile(args[1].as_string(), /*use_cache=*/true,
                               &was_cached);
        if (!plan.ok()) return plan.status();
        const Script& script = (*plan)->script;
        // Row arity: a trailing values(k1..kn) yields n columns; anything
        // else yields single-column rows (element ids / scalar values).
        size_t arity = 1;
        if (!script.statements.empty()) {
          const auto& steps = script.statements.back().traversal.steps;
          for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
            if (it->kind == StepKind::kValues && !it->keys.empty()) {
              arity = it->keys.size();
              break;
            }
            // Look through trailing order/dedup/limit steps only.
            if (it->kind != StepKind::kOrder &&
                it->kind != StepKind::kDedup &&
                it->kind != StepKind::kLimit &&
                it->kind != StepKind::kRange) {
              break;
            }
          }
        }
        // Run the plan directly (not ExecutePlan): a graphQuery inside a
        // traced outer query must keep recording into the caller's
        // thread-local trace, not open one of its own. The exec config
        // resolves through the database session plus any thread-local
        // scope an outer execution installed.
        gremlin::Interpreter interpreter(
            self->provider(),
            InterpreterOptions(self->db()->ResolveExecConfig()));
        Result<std::vector<Traverser>> out = interpreter.RunScript(script);
        if (!out.ok()) return out.status();
        Result<std::vector<Row>> rows =
            gremlin::TraversersToRows(*out, arity);
        if (!rows.ok()) return rows.status();
        sql::ResultSet rs;
        for (size_t i = 0; i < arity; ++i) {
          rs.columns.push_back("c" + std::to_string(i + 1));
        }
        rs.rows = std::move(*rows);
        return rs;
      });
  return Status::OK();
}

Result<AutoGraph> AutoGraph::Open(sql::Database* db,
                                  Db2Graph::Options options) {
  AutoGraph auto_graph(db, options);
  DB2G_RETURN_NOT_OK(auto_graph.Reopen());
  return auto_graph;
}

Status AutoGraph::Reopen() {
  Result<overlay::OverlayConfig> config = overlay::AutoOverlay(*db_);
  if (!config.ok()) return config.status();
  Result<std::unique_ptr<Db2Graph>> graph =
      Db2Graph::Open(db_, *config, options_);
  if (!graph.ok()) return graph.status();
  graph_ = std::move(*graph);
  return Status::OK();
}

Result<Db2Graph*> AutoGraph::Get() {
  if (graph_ == nullptr || graph_->OverlayMayBeStale()) {
    DB2G_RETURN_NOT_OK(Reopen());
  }
  return graph_.get();
}

Result<std::vector<Traverser>> AutoGraph::Execute(const std::string& script) {
  return Execute(script, ExecOptions{});
}

Result<std::vector<Traverser>> AutoGraph::Execute(
    const std::string& script, const ExecOptions& options) {
  Result<Db2Graph*> graph = Get();
  if (!graph.ok()) return graph.status();
  return (*graph)->Execute(script, options);
}

}  // namespace db2graph::core
