// The repository benchmark: generates a named workload from a seed, runs
// it closed-loop against sql::Database + core::Db2Graph in process,
// checks every answer against an oracle built from the generated
// dataset, and prints the metrics as one JSON line.
//
//   perfbench --workload linkbench-read --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// with spans around the benchmark's calls into each layer and prints the
// per-layer metrics (see perfbench/README.md for both lists).

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/metrics.h"
#include "core/db2graph.h"
#include "core/plan_cache.h"
#include "gremlin/parser.h"
#include "linkbench/partitioned.h"
#include "oracle.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {
namespace {

using db2graph::ExecConfig;
using db2graph::Json;
using db2graph::Status;
using db2graph::Value;
using db2graph::core::Db2Graph;
using db2graph::core::ExecOptions;
namespace linkbench = db2graph::linkbench;
namespace metrics = db2graph::metrics;
namespace sql = db2graph::sql;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value);
    } else if (key == "--trace") {
      args->trace = std::atoi(value);
    } else if (key == "--out") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 && argc % 2 == 1;
}

void Log(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::fprintf(stderr, "[perfbench] ");
  std::vfprintf(stderr, fmt, args);
  std::fprintf(stderr, "\n");
  va_end(args);
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One-line JSON (Json::Dump always indents).
std::string Compact(const Json& j) {
  char buf[40];
  switch (j.type()) {
    case Json::Type::kNull:
      return "null";
    case Json::Type::kBool:
      return j.as_bool() ? "true" : "false";
    case Json::Type::kNumber:
      std::snprintf(buf, sizeof(buf), "%.17g", j.as_number());
      return buf;
    case Json::Type::kString: {
      std::string out = "\"";
      for (char c : j.as_string()) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) c = ' ';
        out += c;
      }
      return out + "\"";
    }
    case Json::Type::kArray: {
      std::string out = "[";
      for (size_t i = 0; i < j.items().size(); ++i) {
        out += (i ? "," : "") + Compact(j.items()[i]);
      }
      return out + "]";
    }
    case Json::Type::kObject: {
      std::string out = "{";
      for (size_t i = 0; i < j.members().size(); ++i) {
        out += (i ? "," : "") + Compact(Json::Str(j.members()[i].first)) +
               ":" + Compact(j.members()[i].second);
      }
      return out + "}";
    }
  }
  return "null";
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(v->size() - 1) + 0.5);
  return (*v)[std::min(idx, v->size() - 1)];
}

double Median(std::vector<double> v) { return Percentile(&v, 0.5); }

Json Metric(double value, const char* unit) {
  Json m = Json::Object();
  m.Set("value", Json::Number(value));
  m.Set("unit", Json::Str(unit));
  return m;
}

// -- set-up -------------------------------------------------------------------

/// One loaded database with the graph opened over it.
struct Deployment {
  std::unique_ptr<sql::Database> db;
  std::unique_ptr<Db2Graph> graph;  // destroyed before db
  double load_s = 0;
  double open_s = 0;
};

Status Deploy(const Dataset& dataset, Deployment* d) {
  d->graph.reset();
  d->db = std::make_unique<sql::Database>();
  const auto t0 = Clock::now();
  DB2G_RETURN_NOT_OK(
      linkbench::LoadIntoPartitionedDatabase(d->db.get(), dataset));
  const auto t1 = Clock::now();
  auto graph = Db2Graph::Open(d->db.get(),
                              linkbench::MakePartitionedOverlay(false));
  const auto t2 = Clock::now();
  if (!graph.ok()) return graph.status();
  d->graph = std::move(*graph);
  d->load_s = Seconds(t0, t1);
  d->open_s = Seconds(t1, t2);
  return Status::OK();
}

// -- closed loop -------------------------------------------------------------

struct OpRecord {
  float latency_us = 0;
  float end_s = 0;  // completion, seconds after the measured interval began
  uint64_t expected = 0;
  uint64_t actual = 0;
  OpClass cls = OpClass::kGetNode;
  bool ok = false;
  bool measured = false;
};

/// The clients of one workload, each with its own request stream.
struct Clients {
  std::vector<std::unique_ptr<LinkModel>> models;
  std::vector<std::unique_ptr<Generator>> generators;
};

Clients MakeClients(const WorkloadSpec& spec, const Dataset& dataset,
                    const TraverseOracle* oracle, uint64_t seed,
                    uint64_t stream) {
  Clients c;
  const int owners = spec.kind == WorkloadKind::kLinkbenchRw ? spec.clients : 1;
  if (spec.kind != WorkloadKind::kTraverseLarge) {
    for (int o = 0; o < owners; ++o) {
      c.models.push_back(std::make_unique<LinkModel>(dataset, o, owners));
    }
  }
  for (int i = 0; i < spec.clients; ++i) {
    const uint64_t client_seed = seed * 1000003ULL + stream * 101ULL + i;
    if (spec.kind == WorkloadKind::kTraverseLarge) {
      c.generators.push_back(
          MakeTraverseGenerator(dataset, oracle, client_seed));
    } else {
      c.generators.push_back(MakeLinkbenchGenerator(
          spec.kind, dataset, c.models[i % owners].get(), i, spec.clients,
          client_seed));
    }
  }
  return c;
}

/// The first `n` clients' generators (all when n < 0).
std::vector<Generator*> Streams(Clients* clients, int n = -1) {
  std::vector<Generator*> out;
  for (auto& g : clients->generators) {
    if (n >= 0 && static_cast<int>(out.size()) >= n) break;
    out.push_back(g.get());
  }
  return out;
}

/// Runs every client closed-loop (each waits for its reply before sending
/// the next request): `warmup_s` unrecorded, then `measure_s` measured.
/// With `spans`, each request is recorded as a span on its client's log.
std::vector<OpRecord> RunLoop(const Caller& caller,
                              const std::vector<Generator*>& generators,
                              double warmup_s, double measure_s,
                              std::vector<SpanLog>* spans) {
  const size_t n = generators.size();
  std::vector<std::vector<OpRecord>> per_client(n);
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto measure_begin =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(warmup_s));
  const auto end = measure_begin +
                   std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(measure_s));
  std::vector<std::thread> threads;
  for (size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      Generator* gen = generators[i];
      SpanLog* log = spans != nullptr ? &(*spans)[i] : nullptr;
      std::vector<OpRecord>& ops = per_client[i];
      ops.reserve(1 << 16);
      Request r;
      Outcome out;
      std::this_thread::sleep_until(start);
      int64_t request = static_cast<int64_t>(i) << 40;
      // The clock is read before the next request is drawn, so a
      // writing client never draws (and applies to its model) a write it
      // does not send.
      while (Clock::now() < end) {
        gen->Next(&r);
        out = Outcome();
        const Clock::time_point a = Clock::now();
        if (log != nullptr) {
          log->Time("request", -1, request++, [&] { caller.Call(r, &out); });
        } else {
          caller.Call(r, &out);
        }
        const Clock::time_point b = Clock::now();
        OpRecord rec;
        rec.latency_us = static_cast<float>(Micros(a, b));
        rec.end_s = static_cast<float>(Seconds(measure_begin, b));
        rec.cls = r.cls;
        rec.measured = a >= measure_begin && b <= end;
        rec.ok = out.status.ok();
        rec.expected = r.expected;
        rec.actual = rec.ok ? Caller::DigestOf(r, out) : 0;
        ops.push_back(rec);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<OpRecord> all;
  for (auto& ops : per_client) all.insert(all.end(), ops.begin(), ops.end());
  return all;
}

/// Counts failed or wrong answers (checked after the timed interval).
uint64_t CountFailures(const std::vector<OpRecord>& ops) {
  uint64_t failed = 0;
  for (const OpRecord& op : ops) {
    if (op.ok && op.expected == op.actual) continue;
    if (++failed <= 5) {
      Log("wrong or failed answer: class %s", ClassName(op.cls));
    }
  }
  return failed;
}

struct LoopMetrics {
  double ops_per_s = 0;
  double read_p50_us = 0;  // reads only: see RunEndToEnd
  double p90_us = 0;
  double p50_all_us = 0;  // over the whole interval, writes included
  double p99_all_us = 0;
  std::vector<double> window_rates;
  uint64_t samples = 0;
  double class_p50[kNumClasses] = {};
  double class_share[kNumClasses] = {};  // of the summed latency
  uint64_t class_samples[kNumClasses] = {};
};

/// Throughput and latency as medians over equal sub-intervals of the
/// measured interval, so one stall of the host moves one window only.
LoopMetrics Summarize(const std::vector<OpRecord>& ops, double measure_s) {
  constexpr int kWindows = 10;
  const double len = measure_s / kWindows;
  std::vector<std::vector<double>> windows(kWindows);
  std::vector<std::vector<double>> read_windows(kWindows);
  std::vector<std::vector<double>> by_class(kNumClasses);
  LoopMetrics m;
  for (const OpRecord& op : ops) {
    if (!op.measured) continue;
    ++m.samples;
    const int w = std::min(std::max(static_cast<int>(op.end_s / len), 0),
                           kWindows - 1);
    windows[w].push_back(op.latency_us);
    if (op.cls != OpClass::kWrite) read_windows[w].push_back(op.latency_us);
    by_class[static_cast<int>(op.cls)].push_back(op.latency_us);
  }
  std::vector<double> rates, p50s, p90s;
  for (int w = 0; w < kWindows; ++w) {
    rates.push_back(static_cast<double>(windows[w].size()) / len);
    p50s.push_back(Percentile(&read_windows[w], 0.50));
    p90s.push_back(Percentile(&windows[w], 0.90));
  }
  m.window_rates = rates;
  m.ops_per_s = Median(rates);
  m.read_p50_us = Median(p50s);
  m.p90_us = Median(p90s);
  std::vector<double> all;
  for (const auto& w : windows) all.insert(all.end(), w.begin(), w.end());
  m.p50_all_us = Percentile(&all, 0.50);
  m.p99_all_us = Percentile(&all, 0.99);
  double total = 0;
  for (const auto& v : by_class) {
    for (double us : v) total += us;
  }
  for (int c = 0; c < kNumClasses; ++c) {
    double sum = 0;
    for (double us : by_class[c]) sum += us;
    m.class_share[c] = Ratio(sum, total);
    m.class_samples[c] = by_class[c].size();
    m.class_p50[c] = Percentile(&by_class[c], 0.50);
  }
  return m;
}

// -- corrupted-answer self-check ----------------------------------------------

/// Sends a few requests of every class the workload issues, checks that
/// the true answer matches the oracle, then corrupts each answer and
/// checks that the comparison rejects it. Returns false if any corrupted
/// answer would have passed.
bool SelfCheck(const Caller& caller, Generator* gen, int draws, int* planted,
               int* caught) {
  int seen[kNumClasses] = {};
  bool ok = true;
  for (int i = 0; i < draws; ++i) {
    Request r;
    gen->Next(&r);
    // Writes are always sent, or a writing client's model would drift.
    if (seen[static_cast<int>(r.cls)]++ >= 2 && r.cls != OpClass::kWrite) {
      continue;
    }
    Outcome out;
    caller.Call(r, &out);
    if (seen[static_cast<int>(r.cls)] > 2) continue;
    if (!out.status.ok() || Caller::DigestOf(r, out) != r.expected) {
      Log("self-check: the true answer of a %s request did not match",
          ClassName(r.cls));
      ok = false;  // the true answer must match before corruption
      continue;
    }
    // Corrupt: alter a property of the first element, the scalar, or the
    // affected-row count; an empty result gains a spurious row.
    if (r.cls == OpClass::kWrite) {
      out.affected += 1;
    } else if (out.rows.empty()) {
      out.rows.push_back(db2graph::gremlin::Traverser::OfValue(Value(1)));
    } else {
      auto& t = out.rows.front();
      if (t.vertex != nullptr) {
        auto v = std::make_shared<db2graph::gremlin::Vertex>(*t.vertex);
        for (auto& [k, val] : v->properties) {
          if (k == "data") val = Value(val.ToString() + "x");
        }
        t.vertex = v;
      } else if (t.edge != nullptr) {
        auto e = std::make_shared<db2graph::gremlin::Edge>(*t.edge);
        for (auto& [k, val] : e->properties) {
          if (k == "data") val = Value(val.ToString() + "x");
        }
        t.edge = e;
      } else if (!t.list.empty()) {
        t.list.back() = Value(t.list.back().as_int() + 1);
      } else {
        t.value = Value(t.value.as_int() + 1);
      }
    }
    ++*planted;
    if (Caller::DigestOf(r, out) != r.expected) {
      ++*caught;
    } else {
      ok = false;
    }
  }
  return ok;
}

// -- counters ------------------------------------------------------------------

/// The layer counters the traced run reads before and after its loaded
/// windows.
struct Counters {
  uint64_t parse_calls = 0;
  db2graph::core::PlanCache::Counts plan_cache;
  uint64_t stale_recompiles = 0;
  uint64_t skeleton_hits = 0;
  uint64_t skeleton_misses = 0;
  sql::ExecStats::Counts sql;
  db2graph::core::Db2GraphProvider::Stats::Counts provider;
  uint64_t optimizer_attempted = 0;
  uint64_t optimizer_chosen = 0;
  uint64_t optimizer_fallbacks = 0;
};

uint64_t Registry(const char* name) {
  return metrics::MetricsRegistry::Global().GetCounter(name)->load();
}

Counters ReadCounters(Db2Graph* graph) {
  Counters c;
  c.parse_calls = Registry(db2graph::gremlin::kParseCallsCounter);
  c.plan_cache = graph->plan_cache()->Snapshot();
  c.stale_recompiles =
      Registry(db2graph::core::PlanCache::kStaleStatsRecompilesCounter);
  c.skeleton_hits = graph->dialect()->skeleton_cache_hits();
  c.skeleton_misses = graph->dialect()->skeleton_cache_misses();
  c.sql = graph->db()->stats().Snapshot();
  c.provider = graph->provider()->stats().Snapshot();
  c.optimizer_attempted = Registry("optimizer.attempted");
  c.optimizer_chosen = Registry("optimizer.chosen");
  c.optimizer_fallbacks = Registry("optimizer.fallbacks");
  return c;
}

// -- traced replay ---------------------------------------------------------------

/// Per class, per layer call: one value per replayed request.
using Samples = std::map<std::string, std::vector<double>>;

/// Times each of `fns` `reps` times as spans, interleaved and in
/// alternating order (a, b, b, a, a, b, ...), and stores the fastest time
/// of each in `best`. An enclosing call and the call it encloses are timed
/// together this way, so neither always runs in the same position after
/// the other calls (the call after a compile runs measurably slower) and
/// drift of the host falls on both; the minimum is the run least
/// disturbed.
void TimeMin(SpanLog* log, int64_t req, int reps,
             const std::vector<std::pair<const char*, int64_t>>& spans,
             const std::vector<std::function<void()>>& fns,
             std::vector<double>* best) {
  best->assign(fns.size(), 0);
  for (int i = 0; i < reps; ++i) {
    for (size_t j = 0; j < fns.size(); ++j) {
      const size_t k = i % 2 == 0 ? j : fns.size() - 1 - j;
      const double us =
          log->Time(spans[k].first, spans[k].second, req, fns[k]);
      if (i == 0 || us < (*best)[k]) (*best)[k] = us;
    }
  }
}

double TimeMin(SpanLog* log, const char* name, int64_t parent, int64_t req,
               int reps, const std::function<void()>& fn) {
  std::vector<double> best;
  TimeMin(log, req, reps, {{name, parent}}, {fn}, &best);
  return best[0];
}

struct Replay {
  Samples by_class[kNumClasses];
  Samples writes;  // keyed by "insert"/"update"/"delete"
  uint64_t write_rows_scanned = 0;
  uint64_t write_count = 0;
  uint64_t morsels = 0;
  uint64_t agg_statements = 0;
  uint64_t failed = 0;
  uint64_t attempted = 0;
};

/// Replays one read request single-threaded, timing each public entry
/// point of each layer around the same request. Besides each call's time
/// it records each self time as a per-request difference (enclosing call
/// minus enclosed calls), keyed "self.<layer>".
void ReplayRead(Db2Graph* graph, const Statements& st, const Caller& caller,
                const Request& r, SpanLog* log, int64_t req, Replay* out) {
  Samples& s = out->by_class[static_cast<int>(r.cls)];
  const int reps = r.cls == OpClass::kDrain ? 1
                   : r.cls == OpClass::kHop || r.cls == OpClass::kAgg ? 3
                                                                      : 5;
  const std::string& script = r.text.empty() ? st.gremlin_text[r.query] : r.text;
  const ExecOptions options = caller.Options(r);
  const int64_t root = log->Open("request", -1, req);

  // The workload's own call, untimed: it checks the answer and warms the
  // caches every timed call below then finds warm.
  Outcome first;
  caller.Call(r, &first);
  ++out->attempted;
  if (!first.status.ok() || Caller::DigestOf(r, first) != r.expected) {
    Log("wrong or failed answer in the replay: class %s (%s)",
        ClassName(r.cls), first.status.ToString().c_str());
    ++out->failed;
  }
  ExecOptions uncached = options;
  uncached.use_plan_cache = false;
  db2graph::core::PreparedQuery prepared;
  if (r.text.empty()) {
    prepared = st.gremlin[r.query];
  } else if (auto p = graph->Prepare(script); p.ok()) {
    prepared = *p;
  }
  auto compiled = graph->Compile(script);
  if (!compiled.ok()) {
    log->Close(root);
    return;
  }
  // The interpreter alone, with the execution config the facade would
  // install for this call.
  const ExecConfig cfg = ExecConfig::ProcessDefault()
                             .OverlaidBy(graph->db()->exec_config())
                             .OverlaidBy(caller.config());
  db2graph::gremlin::Interpreter::Options iopts;
  iopts.streaming = cfg.streaming();
  if (cfg.block_rows() > 0) iopts.block_size = cfg.block_rows();
  iopts.parallelism = cfg.parallelism();

  std::vector<double> t;
  TimeMin(log, req, reps,
          {{"core.execute", root},
           {"core.execute_uncached", root},
           {"gremlin.parse", root},
           {"core.compile", root},
           {"core.prepared_execute", root},
           {"gremlin.interpret", root}},
          {[&] {
             Outcome o;
             caller.Call(r, &o);
           },
           [&] { (void)graph->Execute(script, uncached); },
           [&] { (void)db2graph::gremlin::ParseGremlin(script); },
           [&] { (void)graph->Compile(script); },
           [&] { (void)prepared.Execute(options); },
           [&] {
             db2graph::ScopedExecConfig scoped(cfg);
             db2graph::gremlin::Environment env = r.bindings;
             db2graph::gremlin::Interpreter interpreter(graph->provider(),
                                                        iopts);
             (void)interpreter.RunScript(*compiled, &env);
           }},
          &t);
  const double execute = t[0], uncached_us = t[1], parse = t[2],
               compile = t[3], pe = t[4], interpret = t[5];

  // The SQL the request issued, from one traced execution (not timed),
  // replayed under the same execution config.
  db2graph::QueryTrace trace;
  ExecOptions traced = options;
  traced.trace = &trace;
  (void)prepared.Execute(traced);
  std::vector<std::string> statements;
  for (const auto& span : trace.Spans()) {
    for (const auto& rec : span.statements) statements.push_back(rec.sql);
  }
  double dialect = 0, sql_parse = 0, sql_exec = 0, agg = 0;
  const bool aggregate =
      r.cls == OpClass::kAgg || r.cls == OpClass::kCountLinks;
  {
    db2graph::ScopedExecConfig scoped(cfg);
    for (const std::string& sql_text : statements) {
      std::unique_ptr<sql::PreparedStatement> ps;
      sql_parse += TimeMin(log, "sql.parse", root, req, reps, [&] {
        auto p = graph->db()->Prepare(sql_text);
        if (p.ok()) ps = std::make_unique<sql::PreparedStatement>(*p);
      });
      if (ps == nullptr) continue;
      (void)graph->dialect()->Query(sql_text, {});  // warm its template
      TimeMin(log, req, reps,
              {{"core.dialect_query", root}, {"sql.prepared_exec", root}},
              {[&] { (void)graph->dialect()->Query(sql_text, {}); },
               [&] { (void)ps->Execute({}); }},
              &t);
      dialect += t[0];
      sql_exec += t[1];
      if (aggregate) {
        sql::ExecInfo info;
        agg += TimeMin(log, "sql.agg_exec", root, req, reps, [&] {
          auto rs = graph->db()->Execute(sql_text);
          if (rs.ok()) info = rs->exec;
        });
        out->morsels += info.morsels;
        ++out->agg_statements;
      }
    }
  }

  // The storage floor: the request's first index lookup, straight on the
  // table.
  double probe = 0;
  if (!r.probe_table.empty()) {
    const sql::Table* table = graph->db()->GetTable(r.probe_table);
    const sql::Index* index =
        table != nullptr ? table->FindIndexOn({0}) : nullptr;
    if (index != nullptr) {
      probe = TimeMin(log, "sql.index_probe", root, req, reps, [&] {
        std::vector<sql::RowId> rids;
        index->Lookup({Value(r.probe_key)}, &rids);
        db2graph::Row row;
        for (sql::RowId rid : rids) table->MaterializeRow(rid, &row);
      });
      s["sql.index_probe"].push_back(probe);
    }
  }
  log->Close(root);

  s["core.execute"].push_back(execute);
  s["core.execute_uncached"].push_back(uncached_us);
  s["gremlin.parse"].push_back(parse);
  s["core.compile"].push_back(compile);
  s["core.prepared_execute"].push_back(pe);
  s["gremlin.interpret"].push_back(interpret);
  s["core.dialect_query"].push_back(dialect);
  s["sql.parse"].push_back(sql_parse);
  s["sql.prepared_exec"].push_back(sql_exec);
  if (aggregate) s["sql.agg_exec"].push_back(agg);
  s["self.gremlin.parse"].push_back(parse);
  s["self.core.compile"].push_back(compile - parse);
  s["self.core.plan_build"].push_back(uncached_us - pe - compile);
  s["self.core.facade"].push_back(pe - interpret);
  s["self.core.provider"].push_back(interpret - dialect);
  s["self.core.dialect"].push_back(dialect - sql_exec);
  s["self.sql.exec"].push_back(sql_exec - probe);
  s["self.sql.index_probe"].push_back(probe);
}

/// Times one write (the request itself: it changes the database).
void ReplayWrite(const Caller& caller, sql::Database* db, const Request& r,
                 SpanLog* log, int64_t req, Replay* out) {
  const uint64_t scanned = db->stats().Snapshot().rows_scanned;
  Outcome o;
  const double us =
      log->Time(WriteKindName(r.write), -1, req, [&] { caller.Call(r, &o); });
  out->writes[WriteKindName(r.write)].push_back(us);
  out->write_rows_scanned += db->stats().Snapshot().rows_scanned - scanned;
  ++out->write_count;
  ++out->attempted;
  if (!o.status.ok() || Caller::DigestOf(r, o) != r.expected) {
    Log("failed write in the replay: %s, %lld rows (%s)", WriteKindName(r.write),
        static_cast<long long>(o.affected), o.status.ToString().c_str());
    ++out->failed;
  }
}

/// Read-only workloads issue no writes; their traced run times the DML
/// path with an insert/update/delete of a link no query reads (negative
/// ids), which leaves the data as it was.
void ProbeWrites(const Caller& caller, sql::Database* db, SpanLog* log,
                 double budget_s, Replay* out) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(budget_s));
  for (int i = 0; i < 20 && (i < 2 || Clock::now() < deadline); ++i) {
    const int ltype = i % 10;
    const Value id1(static_cast<int64_t>(-1 - i));
    const Value id2(static_cast<int64_t>(-1000 - i));
    Request r;
    r.cls = OpClass::kWrite;
    r.shape = Shape::kScalar;
    r.expected = ScalarDigest(1);
    r.write = WriteKind::kInsert;
    r.query = LinkDml(WriteKind::kInsert, ltype);
    r.params = {id1, id2, Value(int64_t{1}), Value("probe"),
                Value(int64_t{5}), Value(int64_t{1})};
    ReplayWrite(caller, db, r, log, -1, out);
    r.write = WriteKind::kUpdate;
    r.query = LinkDml(WriteKind::kUpdate, ltype);
    r.params = {Value("probe2"), Value(int64_t{6}), Value(int64_t{2}), id1,
                id2};
    ReplayWrite(caller, db, r, log, -1, out);
    r.write = WriteKind::kDelete;
    r.query = LinkDml(WriteKind::kDelete, ltype);
    r.params = {id1, id2};
    ReplayWrite(caller, db, r, log, -1, out);
  }
}

/// Per-class medians combined with the workload's class mix as weights,
/// over the classes that have samples of `name`.
double Mixed(const Replay& replay, const double* weights, const char* name) {
  double sum = 0, wsum = 0;
  for (int c = 0; c < kNumClasses; ++c) {
    auto it = replay.by_class[c].find(name);
    if (weights[c] <= 0 || it == replay.by_class[c].end() ||
        it->second.empty()) {
      continue;
    }
    sum += weights[c] * Median(it->second);
    wsum += weights[c];
  }
  return wsum > 0 ? sum / wsum : 0;
}

/// Standard error of a sample median, from the interquartile range
/// (robust to the outliers a shared host produces).
double MedianStdError(std::vector<double> v) {
  if (v.size() < 2) return 0;
  const double iqr = Percentile(&v, 0.75) - Percentile(&v, 0.25);
  return 1.2533 * (iqr / 1.349) / std::sqrt(static_cast<double>(v.size()));
}

double ClassMedian(const Replay& replay, int c, const char* name) {
  auto it = replay.by_class[c].find(name);
  return it == replay.by_class[c].end() ? 0 : Median(it->second);
}

// -- the two kinds of run ----------------------------------------------------------

struct Context {
  Args args;
  WorkloadSpec spec;
  Dataset dataset;
  std::unique_ptr<TraverseOracle> oracle;
  Json report = Json::Object();
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
};

/// Loads the dataset `times` times (keeping the last deployment) and
/// prepares the workload's statements on it; exits on failure. Returns
/// each set-up's time.
std::vector<double> SetUp(const Context& ctx, int times, Deployment* d,
                          Statements* st) {
  std::vector<double> setups;
  for (int i = 0; i < times; ++i) {
    const Status s = Deploy(ctx.dataset, d);
    if (!s.ok()) {
      Log("set-up failed: %s", s.ToString().c_str());
      std::exit(1);
    }
    setups.push_back(d->load_s + d->open_s);
  }
  const Status s = st->Prepare(ctx.spec.kind, ctx.oracle.get(),
                               d->graph.get(), d->db.get());
  if (!s.ok()) {
    Log("prepare failed: %s", s.ToString().c_str());
    std::exit(1);
  }
  return setups;
}

ExecConfig CallConfig(const WorkloadSpec& spec) {
  return spec.dop > 0 ? ExecConfig().parallelism(spec.dop) : ExecConfig();
}

/// Runs the corrupted-answer check on client 0's stream, which goes on
/// where the measured run left it (so a writing client's model is exact).
void RunSelfCheck(Context* ctx, const Caller& caller, Clients* clients) {
  int planted = 0, caught = 0;
  const int draws = ctx->spec.kind == WorkloadKind::kTraverseLarge ? 200 : 600;
  const bool ok = SelfCheck(caller, clients->generators[0].get(), draws,
                            &planted, &caught);
  Json j = Json::Object();
  j.Set("planted", Json::Number(planted));
  j.Set("caught", Json::Number(caught));
  ctx->report.Set("corrupted_answer_check", std::move(j));
  if (!ok || planted == 0 || caught != planted) {
    Log("corrupted-answer self-check FAILED");
    ctx->correct = false;
  }
}

Json RunEndToEnd(Context* ctx) {
  const WorkloadSpec& spec = ctx->spec;
  Deployment d;
  Statements st;
  const std::vector<double> setups = SetUp(*ctx, spec.setups, &d, &st);
  Caller caller(d.graph.get(), &st, CallConfig(spec));
  Clients clients = MakeClients(spec, ctx->dataset, ctx->oracle.get(),
                                ctx->args.seed, /*stream=*/0);
  Log("running %s for %.1f s", spec.name.c_str(), ctx->args.seconds);
  std::vector<OpRecord> ops =
      RunLoop(caller, Streams(&clients), 1.0, ctx->args.seconds, nullptr);
  const uint64_t failed = CountFailures(ops);
  ctx->attempted += ops.size();
  ctx->failed += failed;
  LoopMetrics m = Summarize(ops, ctx->args.seconds);
  if (m.samples == 0) ctx->correct = false;
  RunSelfCheck(ctx, caller, &clients);

  const double space_amp =
      static_cast<double>(d.db->ApproxBytes()) /
      static_cast<double>(ctx->dataset.Stats().approx_csv_bytes);
  Json classes = Json::Object();
  for (int c = 0; c < kNumClasses; ++c) {
    if (m.class_samples[c] == 0) continue;
    Json cj = Json::Object();
    cj.Set("p50_us", Json::Number(m.class_p50[c]));
    cj.Set("samples", Json::Number(static_cast<double>(m.class_samples[c])));
    cj.Set("time_share", Json::Number(m.class_share[c]));
    classes.Set(ClassName(static_cast<OpClass>(c)), std::move(cj));
  }
  Json setup_list = Json::Array();
  for (double v : setups) setup_list.Append(Json::Number(v));
  ctx->report.Set("samples", Json::Number(static_cast<double>(m.samples)));
  // The tail is reported, not gated: over ten seeds on a shared host
  // the 90th percentile moved by a third between runs (slow phases of
  // the host last longer than a run), more than any bound allows.
  ctx->report.Set("p50_all_us", Json::Number(m.p50_all_us));
  ctx->report.Set("p90_us", Json::Number(m.p90_us));
  ctx->report.Set("p99_all_us", Json::Number(m.p99_all_us));
  Json rates = Json::Array();
  for (double v : m.window_rates) rates.Append(Json::Number(v));
  ctx->report.Set("window_ops_per_s", std::move(rates));
  ctx->report.Set("classes", std::move(classes));
  ctx->report.Set("error_rate",
                  Json::Number(Ratio(static_cast<double>(failed),
                                     static_cast<double>(ops.size()))));
  ctx->report.Set("setup_runs_s", std::move(setup_list));

  // Throughput is reported, not gated: over ten seeds on a shared host
  // it moved by 20-50% between runs on linkbench-rw and traverse-large,
  // whose write scans and parallel phases slow most in the host's slow
  // phases, which last longer than a run.
  ctx->report.Set("ops_per_s", Json::Number(m.ops_per_s));
  Json metrics = Json::Object();
  // The median is taken over reads: on linkbench-rw the median of all
  // requests falls between the reads that waited for a writer's
  // exclusive lock and those that did not, and jumps between the two
  // from run to run. Writes have their own figure in the report.
  metrics.Set("read_p50_us", Metric(m.read_p50_us, "us"));
  metrics.Set("setup_s", Metric(Median(setups), "s"));
  metrics.Set("space_amp", Metric(space_amp, "ratio"));
  return metrics;
}

/// The loaded part of a traced run: the workload's own clients in four
/// equal windows, untraced / traced / traced / untraced (so drift of the
/// data or the host falls on both sides), then one client alone.
struct Loaded {
  std::vector<SpanLog> logs;  // one per client, traced windows only
  LoopMetrics loaded;         // all four windows
  LoopMetrics unloaded;       // the single-client window
  double untraced_ops_per_s = 0;
  double traced_ops_per_s = 0;
  uint64_t ops = 0;  // measured requests in the four windows
  Counters before;
  Counters after;
  /// Each read class's share of the measured reads: the weights that
  /// combine per-class figures into one per workload.
  double weights[kNumClasses] = {};
};

void RunLoaded(Context* ctx, const Caller& caller, Clients* clients,
               Db2Graph* graph, Loaded* out) {
  const double window = ctx->args.seconds / 4;
  for (int i = 0; i < ctx->spec.clients; ++i) {
    out->logs.emplace_back(i + 1, static_cast<int64_t>(i + 1) << 44);
  }
  std::vector<OpRecord> all;
  out->before = ReadCounters(graph);
  for (int w = 0; w < 4; ++w) {
    const bool traced = w == 1 || w == 2;
    std::vector<OpRecord> ops = RunLoop(caller, Streams(clients),
                                        w == 0 ? 1.0 : 0.0, window,
                                        traced ? &out->logs : nullptr);
    (traced ? out->traced_ops_per_s : out->untraced_ops_per_s) +=
        Summarize(ops, window).ops_per_s;
    ctx->failed += CountFailures(ops);
    ctx->attempted += ops.size();
    all.insert(all.end(), ops.begin(), ops.end());
  }
  out->after = ReadCounters(graph);
  out->loaded = Summarize(all, window);
  std::vector<OpRecord> single =
      RunLoop(caller, Streams(clients, 1), 0.0, window, nullptr);
  ctx->failed += CountFailures(single);
  ctx->attempted += single.size();
  out->unloaded = Summarize(single, window);

  double reads = 0;
  for (const OpRecord& op : all) {
    if (!op.measured) continue;
    ++out->ops;
    if (op.cls == OpClass::kWrite) continue;
    reads += 1;
    out->weights[static_cast<int>(op.cls)] += 1;
  }
  for (double& w : out->weights) w = Ratio(w, reads);
}

/// Replays client 0's stream single-threaded (it goes on where the loaded
/// windows left it, so a writing client's model stays exact) until every
/// read class has its sample or the time budget is spent.
void RunReplay(const Context& ctx, const Caller& caller, Clients* clients,
               Db2Graph* graph, const Statements& st, const double* weights,
               SpanLog* log, Replay* replay) {
  const bool large = ctx.spec.kind == WorkloadKind::kTraverseLarge;
  auto cap = [&](int c) {
    if (c == static_cast<int>(OpClass::kDrain)) return 4;
    return large ? 60 : 300;
  };
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             std::min(ctx.args.seconds, 10.0)));
  int taken[kNumClasses] = {};
  Generator* gen = clients->generators[0].get();
  int64_t req = 0;
  while (Clock::now() < deadline) {
    Request r;
    gen->Next(&r);
    const int c = static_cast<int>(r.cls);
    if (r.cls == OpClass::kWrite) {
      ReplayWrite(caller, graph->db(), r, log, req++, replay);
    } else if (taken[c] < cap(c)) {
      ++taken[c];
      ReplayRead(graph, st, caller, r, log, req++, replay);
    }
    bool done = true;
    for (int k = 0; k < kNumClasses; ++k) {
      if (weights[k] > 0 && taken[k] < cap(k)) done = false;
    }
    if (done) break;
  }
  if (ctx.spec.kind != WorkloadKind::kLinkbenchRw) {
    ProbeWrites(caller, graph->db(), log, 2.0, replay);
  }
}

/// Per class: the median self time of each layer along the call chain
/// (per-request differences, since requests of one class vary in cost by
/// an order of magnitude), which should add up to the class's inclusive
/// time: Execute(text) with a compile on the text workload, the prepared
/// execution on the others.
void Attribute(const Replay& replay, const double* weights, bool text,
               Json* report) {
  std::vector<const char*> chain = {"core.facade", "core.provider",
                                    "core.dialect", "sql.exec",
                                    "sql.index_probe"};
  if (text) {
    chain.insert(chain.begin(),
                 {"gremlin.parse", "core.compile", "core.plan_build"});
  }
  Json attribution = Json::Object();
  Json negatives = Json::Array();
  Json unresolved = Json::Array();
  for (int c = 0; c < kNumClasses; ++c) {
    if (weights[c] <= 0 || replay.by_class[c].empty()) continue;
    const std::string cls = ClassName(static_cast<OpClass>(c));
    const double inclusive = ClassMedian(
        replay, c, text ? "core.execute_uncached" : "core.execute");
    Json self = Json::Object();
    double sum = 0;
    for (const char* name : chain) {
      const std::string key = std::string("self.") + name;
      const double v = ClassMedian(replay, c, key.c_str());
      self.Set(name, Json::Number(v));
      sum += v;
      // A median below zero by less than twice its standard error is a
      // self time too small to resolve at this class's cost and sample
      // count, not a negative one.
      if (v < 0) {
        const double se = MedianStdError(replay.by_class[c].at(key));
        (v < -2 * se ? negatives : unresolved)
            .Append(Json::Str(cls + ":" + name));
      }
    }
    Json cj = Json::Object();
    cj.Set("inclusive_us", Json::Number(inclusive));
    cj.Set("self_us", std::move(self));
    cj.Set("self_sum_us", Json::Number(sum));
    cj.Set("accounted", Json::Number(Ratio(sum, inclusive)));
    cj.Set("replayed", Json::Number(static_cast<double>(
                           replay.by_class[c].at("core.execute").size())));
    attribution.Set(cls, std::move(cj));
  }
  report->Set("attribution", std::move(attribution));
  report->Set("negative_self_times", std::move(negatives));
  report->Set("unresolved_self_times", std::move(unresolved));
}

/// The per-layer metrics: replay timings combined over the classes, and
/// counter deltas over the loaded windows per measured request.
Json LayerMetrics(const Loaded& l, const Replay& replay,
                  const Deployment& d) {
  const double* w = l.weights;
  const double ops = static_cast<double>(std::max<uint64_t>(l.ops, 1));
  auto delta = [](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before);
  };
  auto hit_ratio = [&](uint64_t h1, uint64_t h0, uint64_t m1, uint64_t m0) {
    return Ratio(delta(h1, h0), delta(h1, h0) + delta(m1, m0));
  };
  auto write_us = [&](const char* kind) {
    auto it = replay.writes.find(kind);
    return it == replay.writes.end() ? 0.0 : Median(it->second);
  };
  const Counters& a = l.after;
  const Counters& b = l.before;
  const double sql_exec = Mixed(replay, w, "sql.prepared_exec");
  const double probe = Mixed(replay, w, "sql.index_probe");

  Json m = Json::Object();
  m.Set("gremlin.parse_us", Metric(Mixed(replay, w, "gremlin.parse"), "us"));
  m.Set("gremlin.parse_calls_per_op",
        Metric(delta(a.parse_calls, b.parse_calls) / ops, "count"));
  m.Set("gremlin.interpret_us",
        Metric(Mixed(replay, w, "gremlin.interpret"), "us"));
  m.Set("core.compile_us", Metric(Mixed(replay, w, "self.core.compile"), "us"));
  m.Set("core.plan_build_us",
        Metric(Mixed(replay, w, "self.core.plan_build"), "us"));
  m.Set("core.plan_cache_hit_ratio",
        Metric(hit_ratio(a.plan_cache.hits, b.plan_cache.hits,
                         a.plan_cache.misses, b.plan_cache.misses),
               "ratio"));
  m.Set("core.plan_cache_evictions_per_op",
        Metric(delta(a.plan_cache.evictions, b.plan_cache.evictions) / ops,
               "count"));
  m.Set("core.stale_stats_recompiles_per_op",
        Metric(delta(a.stale_recompiles, b.stale_recompiles) / ops, "count"));
  m.Set("core.skeleton_hit_ratio",
        Metric(hit_ratio(a.skeleton_hits, b.skeleton_hits, a.skeleton_misses,
                         b.skeleton_misses),
               "ratio"));
  m.Set("core.prepared_execute_us",
        Metric(Mixed(replay, w, "core.prepared_execute"), "us"));
  m.Set("core.facade_us", Metric(Mixed(replay, w, "self.core.facade"), "us"));
  m.Set("core.dialect_query_us",
        Metric(Mixed(replay, w, "core.dialect_query"), "us"));
  m.Set("core.provider_us",
        Metric(Mixed(replay, w, "self.core.provider"), "us"));
  // Per class, loaded median latency minus the single client's.
  double wait = 0, wsum = 0;
  for (int c = 0; c < kNumClasses; ++c) {
    if (w[c] <= 0 || l.loaded.class_samples[c] == 0 ||
        l.unloaded.class_samples[c] == 0) {
      continue;
    }
    wait += w[c] * (l.loaded.class_p50[c] - l.unloaded.class_p50[c]);
    wsum += w[c];
  }
  m.Set("core.wait_us", Metric(Ratio(wait, wsum), "us"));
  m.Set("core.sql_stmts_per_op",
        Metric(delta(a.sql.selects, b.sql.selects) / ops, "count"));
  m.Set("core.vertex_tables_queried_per_op",
        Metric(delta(a.provider.vertex_tables_queried,
                     b.provider.vertex_tables_queried) /
                   ops,
               "count"));
  m.Set("core.vertex_tables_pruned_per_op",
        Metric(delta(a.provider.vertex_tables_pruned,
                     b.provider.vertex_tables_pruned) /
                   ops,
               "count"));
  m.Set("core.vertex_cache_hit_ratio",
        Metric(hit_ratio(a.provider.cache_hits, b.provider.cache_hits,
                         a.provider.cache_misses, b.provider.cache_misses),
               "ratio"));
  // Plans are compiled at Prepare, before the windows: the ratio covers
  // every collapse decision the process made.
  m.Set("core.optimizer_chosen_ratio",
        Metric(Ratio(static_cast<double>(a.optimizer_chosen),
                     static_cast<double>(a.optimizer_attempted)),
               "ratio"));
  m.Set("core.optimizer_fallbacks",
        Metric(delta(a.optimizer_fallbacks, b.optimizer_fallbacks), "count"));
  m.Set("sql.parse_us", Metric(Mixed(replay, w, "sql.parse"), "us"));
  m.Set("sql.prepared_exec_us", Metric(sql_exec, "us"));
  m.Set("sql.index_probe_us", Metric(probe, "us"));
  m.Set("sql.probe_quotient", Metric(Ratio(sql_exec, probe), "ratio"));
  m.Set("sql.rows_scanned_per_row_returned",
        Metric(Ratio(delta(a.sql.rows_scanned, b.sql.rows_scanned),
                     delta(a.sql.rows_returned, b.sql.rows_returned)),
               "ratio"));
  m.Set("sql.full_scans_per_op",
        Metric(delta(a.sql.full_scans, b.sql.full_scans) / ops, "count"));
  m.Set("sql.index_probes_per_op",
        Metric(delta(a.sql.index_probes, b.sql.index_probes) / ops, "count"));
  m.Set("sql.agg_exec_us", Metric(Mixed(replay, w, "sql.agg_exec"), "us"));
  m.Set("sql.morsels_per_agg",
        Metric(Ratio(static_cast<double>(replay.morsels),
                     static_cast<double>(replay.agg_statements)),
               "count"));
  m.Set("sql.write_us.insert", Metric(write_us("insert"), "us"));
  m.Set("sql.write_us.update", Metric(write_us("update"), "us"));
  m.Set("sql.write_us.delete", Metric(write_us("delete"), "us"));
  m.Set("sql.write_rows_scanned_per_write",
        Metric(Ratio(static_cast<double>(replay.write_rows_scanned),
                     static_cast<double>(replay.write_count)),
               "count"));
  m.Set("sql.load_s", Metric(d.load_s, "s"));
  m.Set("overlay.open_ms", Metric(d.open_s * 1000, "ms"));
  m.Set("trace.overhead",
        Metric(Ratio(l.untraced_ops_per_s, l.traced_ops_per_s), "ratio"));
  return m;
}

Json RunTraced(Context* ctx) {
  const auto origin = Clock::now();
  SpanLog setup_log(/*tid=*/100, /*id_base=*/1LL << 50);
  Deployment d;
  Statements st;
  setup_log.Time("setup", -1, -1, [&] { SetUp(*ctx, 1, &d, &st); });
  Db2Graph* graph = d.graph.get();
  Caller caller(graph, &st, CallConfig(ctx->spec));
  Clients clients = MakeClients(ctx->spec, ctx->dataset, ctx->oracle.get(),
                                ctx->args.seed, /*stream=*/0);
  Loaded loaded;
  RunLoaded(ctx, caller, &clients, graph, &loaded);
  Replay replay;
  SpanLog replay_log(/*tid=*/0, /*id_base=*/1LL << 52);
  RunReplay(*ctx, caller, &clients, graph, st, loaded.weights, &replay_log,
            &replay);
  ctx->attempted += replay.attempted;
  ctx->failed += replay.failed;
  RunSelfCheck(ctx, caller, &clients);
  Attribute(replay, loaded.weights,
            ctx->spec.kind == WorkloadKind::kLinkbenchRead, &ctx->report);

  // Every replay span, and the first of the loaded windows' request
  // spans (the point workloads record a quarter of a million).
  constexpr size_t kRequestSpansWritten = 50000;
  std::vector<Span> spans = setup_log.spans();
  size_t recorded = spans.size() + replay_log.spans().size();
  for (const SpanLog& log : loaded.logs) {
    const size_t n = std::min(log.spans().size(),
                              kRequestSpansWritten / loaded.logs.size());
    spans.insert(spans.end(), log.spans().begin(), log.spans().begin() + n);
    recorded += log.spans().size();
  }
  spans.insert(spans.end(), replay_log.spans().begin(),
               replay_log.spans().end());
  const std::string path = ctx->args.out_dir + "/" + ctx->spec.name +
                           "-seed" + std::to_string(ctx->args.seed) +
                           ".trace.json";
  if (WriteChromeTrace(path, origin, spans)) {
    ctx->report.Set("chrome_trace", Json::Str(path));
  }
  ctx->report.Set("spans_recorded", Json::Number(static_cast<double>(recorded)));
  ctx->report.Set("spans_written", Json::Number(static_cast<double>(spans.size())));
  return LayerMetrics(loaded, replay, d);
}

int Main(int argc, char** argv) {
  Context ctx;
  if (!ParseArgs(argc, argv, &ctx.args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR]\n");
    return 2;
  }
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (!ResolveWorkload(ctx.args.workload, hw, &ctx.spec)) {
    std::fprintf(stderr, "unknown workload '%s'\n", ctx.args.workload.c_str());
    return 2;
  }
  linkbench::Config config =
      ctx.spec.large ? linkbench::Config::Large() : linkbench::Config::Small();
  config.seed = ctx.args.seed;
  Log("generating dataset for %s", ctx.spec.name.c_str());
  ctx.dataset = linkbench::GeneratePartitioned(config);
  if (ctx.spec.kind == WorkloadKind::kTraverseLarge) {
    ctx.oracle = std::make_unique<TraverseOracle>(ctx.dataset);
  }
  const auto stats = ctx.dataset.Stats();
  ctx.report.Set("workload", Json::Str(ctx.spec.name));
  ctx.report.Set("seed", Json::Number(static_cast<double>(ctx.args.seed)));
  ctx.report.Set("clients", Json::Number(ctx.spec.clients));
  ctx.report.Set("dop", Json::Number(ctx.spec.dop));
  ctx.report.Set("vertices", Json::Number(static_cast<double>(stats.num_vertices)));
  ctx.report.Set("edges", Json::Number(static_cast<double>(stats.num_edges)));
  ctx.report.Set("csv_bytes",
                 Json::Number(static_cast<double>(stats.approx_csv_bytes)));
  ctx.report.Set("trace", Json::Number(ctx.args.trace));

  Json metrics = ctx.args.trace != 0 ? RunTraced(&ctx) : RunEndToEnd(&ctx);
  const bool correct = ctx.correct && ctx.failed == 0 && ctx.attempted > 0;

  Json report = Json::Object();
  report.Set("report", std::move(ctx.report));
  std::printf("%s\n", Compact(report).c_str());
  Json result = Json::Object();
  result.Set("correct", Json::Bool(correct));
  result.Set("attempted", Json::Number(static_cast<double>(ctx.attempted)));
  result.Set("failed", Json::Number(static_cast<double>(ctx.failed)));
  result.Set("metrics", std::move(metrics));
  std::printf("%s\n", Compact(result).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
