#include "core/graph_structure.h"

#include "core/optimizer.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <thread>
#include <unordered_set>
#include <utility>

#include "common/fault_injection.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "common/workload_governor.h"

namespace db2graph::core {

using gremlin::AggOp;
using gremlin::Direction;
using gremlin::Edge;
using gremlin::EdgePtr;
using gremlin::LookupSpec;
using gremlin::PropPredicate;
using gremlin::Vertex;
using gremlin::VertexPtr;
using overlay::ResolvedEdgeTable;
using overlay::ResolvedField;
using overlay::ResolvedVertexTable;

namespace {

// Per table, the layout of a full-row fetch: every schema column, in
// schema order.
template <typename Table>
std::vector<FetchLayout> FullRowLayouts(const std::vector<Table>& tables) {
  std::vector<FetchLayout> layouts;
  for (const Table& t : tables) {
    std::vector<size_t> cols(t.schema->columns.size());
    std::iota(cols.begin(), cols.end(), size_t{0});
    layouts.push_back(MakeLayout(*t.schema, std::move(cols)));
  }
  return layouts;
}

// The aggregate select list `spec` pushes down to table `t`; nullopt when
// the table lacks the aggregated property and so contributes nothing.
template <typename Table>
std::optional<std::string> AggregateSelect(const Table& t,
                                           const LookupSpec& spec) {
  std::string column;  // quoted; count(*) needs none
  if (spec.agg != AggOp::kCount || !spec.agg_key.empty()) {
    for (size_t i = 0; i < t.properties.size(); ++i) {
      if (EqualsIgnoreCase(t.properties[i], spec.agg_key)) {
        column = "\"" + t.schema->columns[t.property_columns[i]].name + "\"";
        break;
      }
    }
    if (column.empty()) return std::nullopt;
  }
  switch (spec.agg) {
    case AggOp::kCount:
      return column.empty() ? "COUNT(*)" : "COUNT(" + column + ")";
    case AggOp::kSum:
    case AggOp::kMean:
      return "SUM(" + column + "), COUNT(" + column + ")";
    case AggOp::kMin:
      return "MIN(" + column + ")";
    case AggOp::kMax:
      return "MAX(" + column + ")";
    case AggOp::kNone:
      break;
  }
  return std::nullopt;
}

// Plans every table of `subset` (all of `tables` when null) in order,
// handing each surviving table's statement to `on_planned` and each
// pruned table's name to `on_pruned`. Aggregate tables without the
// aggregated property contribute nothing. An aggregate that needs
// client-side filtering is Unsupported — the caller falls back to
// fetching — after the tables before it were handed on.
template <typename Table, typename OnPruned, typename OnPlanned>
Status PlanTables(const std::vector<Table>& tables,
                  const std::vector<int>* subset, const LookupSpec& spec,
                  bool aggregate, const RuntimeOptions& options,
                  TablePlan (*plan_table)(const Table&, const LookupSpec&,
                                          const RuntimeOptions&),
                  std::vector<size_t> (*fetch_columns)(const Table&,
                                                       const LookupSpec&),
                  const std::vector<FetchLayout>& full_rows,
                  const OnPruned& on_pruned, const OnPlanned& on_planned) {
  auto plan_one = [&](int ti) -> Status {
    const Table& t = tables[static_cast<size_t>(ti)];
    TablePlan plan = plan_table(t, spec, options);
    if (aggregate && plan.client_filter) {
      return Status::Unsupported(
          "aggregate requires client-side filtering; falling back");
    }
    if (plan.skip) {
      on_pruned(t.conf.table_name);
      return Status::OK();
    }
    TableStatement stmt;
    stmt.table_index = ti;
    stmt.table = t.conf.table_name;
    stmt.client_filter = plan.client_filter;
    if (aggregate) {
      std::optional<std::string> select = AggregateSelect(t, spec);
      if (!select) return Status::OK();
      stmt.select = std::move(*select);
    } else {
      // A client-filtered fetch reads full rows without conditions, and
      // must not be truncated by the per-table row budget before the
      // provider filters it; a pushed-down fetch reads only the projected
      // layout.
      stmt.layout = plan.client_filter
                        ? full_rows[static_cast<size_t>(ti)]
                        : MakeLayout(*t.schema, fetch_columns(t, spec));
      stmt.select = SelectListFor(*t.schema, stmt.layout);
      if (!plan.client_filter) stmt.limit = spec.limit;
    }
    if (!plan.client_filter) stmt.conds = std::move(plan.conds);
    stmt.predicate_columns = std::move(plan.predicate_columns);
    on_planned(std::move(stmt));
    return Status::OK();
  };
  if (subset == nullptr) {
    for (size_t ti = 0; ti < tables.size(); ++ti) {
      DB2G_RETURN_NOT_OK(plan_one(static_cast<int>(ti)));
    }
  } else {
    for (int ti : *subset) DB2G_RETURN_NOT_OK(plan_one(ti));
  }
  return Status::OK();
}

// Issues one statement through the dialect's statement cache.
Result<sql::ResultSet> RunStatement(SqlDialect* dialect,
                                    const TableStatement& stmt) {
  dialect->RecordPattern(stmt.table, stmt.predicate_columns);
  return dialect->QueryShaped(
      stmt.ShapeKey(),
      [&stmt] {
        std::vector<Value> ignored;
        return stmt.Sql(&ignored);
      },
      stmt.Params());
}

// Streaming counterpart of RunStatement, for the vertex streams.
Result<std::unique_ptr<DialectRowStream>> OpenVertexStatement(
    SqlDialect* dialect, const TableStatement& stmt) {
  DB2G_FAILPOINT("provider.open_vertex_stream");
  dialect->RecordPattern(stmt.table, stmt.predicate_columns);
  return dialect->QueryShapedStreaming(
      stmt.ShapeKey(),
      [&stmt] {
        std::vector<Value> ignored;
        return stmt.Sql(&ignored);
      },
      stmt.Params());
}

VertexPtr BuildVertexFromFetched(const ResolvedVertexTable& t, int table_index,
                                 const FetchLayout& layout, Row row) {
  auto v = std::make_shared<Vertex>();
  v->id = ComposeField(t.id, layout, row);
  v->label = t.conf.label.fixed
                 ? t.conf.label.value
                 : row[layout.PosOf(*t.label_column)].ToString();
  for (size_t i = 0; i < t.properties.size(); ++i) {
    if (!layout.Has(t.property_columns[i])) continue;
    const Value& value = row[layout.PosOf(t.property_columns[i])];
    if (!value.is_null()) {
      v->properties.emplace_back(t.properties[i], value);
    }
  }
  v->source_table = t.conf.table_name;
  auto prov = std::make_shared<RowProvenance>();
  prov->table_index = table_index;
  prov->row = std::move(row);
  v->provenance = std::move(prov);
  return v;
}

/// The edge id of a fetched edge row: src::label::dst for implicit ids,
/// the composed id columns otherwise.
Value ComposeEdgeId(const ResolvedEdgeTable& et, const FetchLayout& layout,
                    const Row& erow) {
  std::string label = et.conf.label.fixed
                          ? et.conf.label.value
                          : erow[layout.PosOf(*et.label_column)].ToString();
  if (et.conf.implicit_edge_id) {
    Value src = ComposeField(et.src_v, layout, erow);
    Value dst = ComposeField(et.dst_v, layout, erow);
    return Value(src.ToString() + kIdSeparator + label + kIdSeparator +
                 dst.ToString());
  }
  return ComposeField(et.id, layout, erow);
}

EdgePtr BuildEdgeFromFetched(const ResolvedEdgeTable& t, int table_index,
                             const FetchLayout& layout, Row row) {
  auto e = std::make_shared<Edge>();
  e->src_id = ComposeField(t.src_v, layout, row);
  e->dst_id = ComposeField(t.dst_v, layout, row);
  e->label = t.conf.label.fixed
                 ? t.conf.label.value
                 : row[layout.PosOf(*t.label_column)].ToString();
  e->id = ComposeEdgeId(t, layout, row);
  for (size_t i = 0; i < t.properties.size(); ++i) {
    if (!layout.Has(t.property_columns[i])) continue;
    const Value& value = row[layout.PosOf(t.property_columns[i])];
    if (!value.is_null()) {
      e->properties.emplace_back(t.properties[i], value);
    }
  }
  e->source_table = t.conf.table_name;
  auto prov = std::make_shared<RowProvenance>();
  prov->table_index = table_index;
  prov->row = std::move(row);
  e->provenance = std::move(prov);
  return e;
}

// The vertex of one row `stmt` fetched; nullptr when a client-filtered
// fetch drops it.
VertexPtr FetchedVertex(const overlay::Topology& topology,
                        const TableStatement& stmt, const LookupSpec& spec,
                        Row row) {
  VertexPtr v = BuildVertexFromFetched(
      topology.vertex_tables()[static_cast<size_t>(stmt.table_index)],
      stmt.table_index, stmt.layout, std::move(row));
  if (stmt.client_filter && !gremlin::MatchesSpec(*v, spec)) return nullptr;
  return v;
}

EdgePtr FetchedEdge(const overlay::Topology& topology,
                    const TableStatement& stmt, const LookupSpec& spec,
                    Row row) {
  EdgePtr e = BuildEdgeFromFetched(
      topology.edge_tables()[static_cast<size_t>(stmt.table_index)],
      stmt.table_index, stmt.layout, std::move(row));
  if (stmt.client_filter && !MatchesEdgeSpec(*e, spec)) return nullptr;
  return e;
}

}  // namespace

// ----------------------------------------------------------------------

Db2GraphProvider::Db2GraphProvider(SqlDialect* dialect,
                                   overlay::Topology topology,
                                   RuntimeOptions options)
    : dialect_(dialect),
      topology_(std::move(topology)),
      options_(options),
      vertex_full_rows_(FullRowLayouts(topology_.vertex_tables())),
      edge_full_rows_(FullRowLayouts(topology_.edge_tables())) {
  if (options_.vertex_cache) cache_ = std::make_unique<VertexCache>();
}

bool Db2GraphProvider::FanOut(size_t n) {
  // Fanning out while this thread already holds the database's shared
  // read lock (a graphQuery table function inside a SELECT) is unsafe:
  // pool workers would queue for fresh shared locks behind any waiting
  // writer, which in turn waits on this thread — a deadlock. Reentrant
  // calls run serially instead; the outer statement still parallelizes.
  if (n < 2 || !options_.parallel_fanout ||
      dialect_->db()->ReadLockHeldByThisThread()) {
    return false;
  }
  stats_.parallel_batches.fetch_add(1, std::memory_order_relaxed);
  stats_.parallel_tasks.fetch_add(n, std::memory_order_relaxed);
  return true;
}

void Db2GraphProvider::ExecuteJobs(size_t n,
                                   const std::function<void(size_t)>& fn) {
  if (FanOut(n)) {
    QueryTrace* trace = CurrentTrace();
    // Pool workers have no thread-local trace or governor context; install
    // this query's for the duration of each job so per-table SQL lands in
    // the right trace (never a concurrent query's) and deadline /
    // cancellation checks inside the job observe the right budgets.
    governor::QueryContext* qctx = governor::CurrentQueryContext();
    if (trace != nullptr || qctx != nullptr) {
      if (trace != nullptr) trace->AddFanout(1, n);
      ThreadPool::Shared().RunBatch(n, [&fn, trace, qctx](size_t i) {
        ScopedTrace scoped(trace);
        governor::ScopedQueryContext governed(qctx);
        fn(i);
      });
      return;
    }
    ThreadPool::Shared().RunBatch(n, fn);
    return;
  }
  for (size_t i = 0; i < n; ++i) fn(i);
}

bool Db2GraphProvider::CacheUsable(const LookupSpec& spec) const {
  // Single-id point lookups only: multi-id answers would interleave
  // cached and fetched rows and break the deterministic table-major
  // result order. Projections fetch partial rows (never cacheable), and
  // under access control every lookup must reach SQL so grants apply.
  return cache_ != nullptr && options_.vertex_cache && spec.ids.size() == 1 &&
         spec.agg == AggOp::kNone && !spec.has_projection &&
         !dialect_->db()->access_control_enabled();
}

bool Db2GraphProvider::CacheFillEligible(const LookupSpec& spec) const {
  // Labels prune tables and predicates are pushed into WHERE: either one
  // makes the fetched set a subset of "all vertices with this id", which
  // is what a cache entry must hold. (Id-type pinning is fine — a table
  // skipped because the id cannot decompose into its key columns cannot
  // contain the vertex at all.) A limit truncates the fetch, so a limited
  // lookup can never populate an entry either.
  return spec.labels.empty() && spec.predicates.empty() && spec.limit < 0;
}

template <typename OnPruned, typename OnPlanned>
Status Db2GraphProvider::PlanStatements(TableKind kind, const LookupSpec& spec,
                                        const std::vector<int>* tables,
                                        bool aggregate,
                                        const OnPruned& on_pruned,
                                        const OnPlanned& on_planned) const {
  if (kind == TableKind::kVertex) {
    return PlanTables(topology_.vertex_tables(), tables, spec, aggregate,
                      options_, &PlanVertexTable, &VertexFetchColumns,
                      vertex_full_rows_, on_pruned, on_planned);
  }
  return PlanTables(topology_.edge_tables(), tables, spec, aggregate,
                    options_, &PlanEdgeTable, &EdgeFetchColumns,
                    edge_full_rows_, on_pruned, on_planned);
}

Result<std::vector<TableStatement>> Db2GraphProvider::SurvivingTables(
    TableKind kind, const LookupSpec& spec, const std::vector<int>* tables,
    bool aggregate) {
  metrics::Counter& pruned = kind == TableKind::kVertex
                                 ? stats_.vertex_tables_pruned
                                 : stats_.edge_tables_pruned;
  metrics::Counter& queried = kind == TableKind::kVertex
                                  ? stats_.vertex_tables_queried
                                  : stats_.edge_tables_queried;
  QueryTrace* trace = CurrentTrace();
  std::vector<TableStatement> surviving;
  DB2G_RETURN_NOT_OK(PlanStatements(
      kind, spec, tables, aggregate,
      [&](const std::string& table) {
        pruned.fetch_add(1, std::memory_order_relaxed);
        if (trace != nullptr) trace->AddTablePruned(table);
      },
      [&](TableStatement stmt) {
        queried.fetch_add(1, std::memory_order_relaxed);
        if (trace != nullptr) trace->AddTableConsulted(stmt.table);
        surviving.push_back(std::move(stmt));
      }));
  return surviving;
}

template <typename Ptr, typename Build>
Status Db2GraphProvider::FetchAll(const std::vector<TableStatement>& stmts,
                                  [[maybe_unused]] const char* failpoint,
                                  const Build& build, std::vector<Ptr>* out) {
  // Per-statement result slots keep the merge deterministic in table
  // order no matter which worker finishes first.
  std::vector<std::vector<Ptr>> slots(stmts.size());
  std::vector<Status> statuses(stmts.size(), Status::OK());
  ExecuteJobs(stmts.size(), [&](size_t j) {
    statuses[j] = [&]() -> Status {
      // A cancelled / timed-out query skips the tables it has not fetched
      // yet; with fan-out, workers past this check finish their one
      // statement and the batch unwinds at the merge.
      DB2G_RETURN_NOT_OK(governor::CheckCurrent());
      DB2G_FAILPOINT(failpoint);
      Result<sql::ResultSet> rs = RunStatement(dialect_, stmts[j]);
      if (!rs.ok()) return rs.status();
      for (Row& row : rs->rows) {
        Ptr element = build(j, std::move(row));
        if (element != nullptr) slots[j].push_back(std::move(element));
      }
      return Status::OK();
    }();
  });
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  for (auto& slot : slots) {
    for (Ptr& element : slot) out->push_back(std::move(element));
  }
  return Status::OK();
}

Result<Value> Db2GraphProvider::Aggregate(TableKind kind,
                                          const LookupSpec& spec) {
  if (spec.agg == AggOp::kNone) {
    return Status::Unsupported("no aggregate in spec");
  }
  Result<std::vector<TableStatement>> stmts =
      SurvivingTables(kind, spec, nullptr, /*aggregate=*/true);
  if (!stmts.ok()) return stmts.status();
  struct Partial {
    Status status = Status::OK();
    std::optional<Row> row;
  };
  std::vector<Partial> partials(stmts->size());
  ExecuteJobs(stmts->size(), [&](size_t j) {
    Result<sql::ResultSet> rs = RunStatement(dialect_, (*stmts)[j]);
    if (!rs.ok()) {
      partials[j].status = rs.status();
    } else if (!rs->rows.empty()) {
      partials[j].row = std::move(rs->rows[0]);
    }
  });
  gremlin::AggregateAccumulator acc(spec.agg);
  for (const Partial& partial : partials) {
    if (!partial.status.ok()) return partial.status;
    if (partial.row) acc.AddPartial(*partial.row);
  }
  return acc.Result();
}

bool Db2GraphProvider::FromCache(const Value& id, uint64_t epoch,
                                 const LookupSpec& check,
                                 std::vector<VertexPtr>* out) {
  std::vector<VertexPtr> cached;
  if (!cache_->Get(id, epoch, &cached)) {
    stats_.cache_misses.fetch_add(1, std::memory_order_relaxed);
    if (QueryTrace* trace = CurrentTrace()) trace->AddCacheMiss();
    return false;
  }
  stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
  if (QueryTrace* trace = CurrentTrace()) trace->AddCacheHit();
  for (VertexPtr& v : cached) {
    if (gremlin::MatchesSpec(*v, check)) out->push_back(std::move(v));
  }
  return true;
}

// ----------------------------------------------------------------------
// Vertices
// ----------------------------------------------------------------------

namespace {

// Bounded handoff of vertex blocks from one per-table producer to the
// consuming stream: producers block when their queue is full (backpressure
// instead of materializing the table), the consumer blocks until the
// producer delivers or finishes, and cancellation wakes both sides.
class VertexBlockQueue {
 public:
  explicit VertexBlockQueue(size_t capacity) : capacity_(capacity) {}

  // Producer side. False = the consumer cancelled; stop fetching.
  bool Push(std::vector<VertexPtr> block) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock, [&] {
      return cancelled_ || blocks_.size() < capacity_;
    });
    if (cancelled_) return false;
    blocks_.push_back(std::move(block));
    not_empty_.notify_one();
    return true;
  }
  void MarkDone(Status status) {
    std::lock_guard<std::mutex> lock(mutex_);
    done_ = true;
    status_ = std::move(status);
    not_empty_.notify_all();
  }

  // Consumer side. False = producer finished; check TakeStatus().
  bool Pop(std::vector<VertexPtr>* block) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [&] { return done_ || !blocks_.empty(); });
    if (blocks_.empty()) return false;
    *block = std::move(blocks_.front());
    blocks_.pop_front();
    not_full_.notify_one();
    return true;
  }
  Status TakeStatus() {
    std::lock_guard<std::mutex> lock(mutex_);
    return status_;
  }
  void Cancel() {
    std::lock_guard<std::mutex> lock(mutex_);
    cancelled_ = true;
    not_full_.notify_all();
    not_empty_.notify_all();
  }

 private:
  const size_t capacity_;
  std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<std::vector<VertexPtr>> blocks_;
  bool done_ = false;
  bool cancelled_ = false;
  Status status_ = Status::OK();
};

// Live streaming vertex lookup over the surviving tables.
//
// Serial mode keeps at most one per-table SQL stream open and pulls
// exactly the vertices the consumer asks for. Parallel mode (fan-out
// eligible) starts a coordinator thread that fans the per-table producers
// out on the shared pool; each producer streams its table into a bounded
// VertexBlockQueue and the consumer drains the queues in table order, so
// results match the materialized table-major merge exactly. Close()
// cancels: producers stop at their next push, and ones that have not
// started observe the flag and never open their SQL stream.
class Db2VertexStream : public gremlin::VertexStream {
 public:
  static constexpr size_t kQueueBlocks = 4;  // per-table backpressure bound

  Db2VertexStream(SqlDialect* dialect, const overlay::Topology* topology,
                  LookupSpec spec, std::vector<TableStatement> jobs,
                  bool parallel)
      : dialect_(dialect),
        topology_(topology),
        spec_(std::move(spec)),
        jobs_(std::move(jobs)) {
    if (parallel) StartParallel();
  }

  ~Db2VertexStream() override { Close(); }

  bool Next(std::vector<VertexPtr>* out, size_t max) override {
    out->clear();
    if (closed_ || !status_.ok()) return false;
    if (max == 0) max = 1;
    return parallel_mode_ ? NextParallel(out, max) : NextSerial(out, max);
  }

  void Close() override {
    if (closed_) return;
    closed_ = true;
    if (serial_stream_ != nullptr) {
      serial_stream_->Close();
      serial_stream_.reset();
    }
    if (parallel_mode_) {
      cancel_.store(true, std::memory_order_release);
      for (auto& q : queues_) q->Cancel();
      if (coordinator_.joinable()) coordinator_.join();
    }
  }

  const Status& status() const override { return status_; }

 private:
  // -- serial: lazy per-table SQL streams, opened in table order ----------
  bool NextSerial(std::vector<VertexPtr>* out, size_t max) {
    while (true) {
      Status gst = governor::CheckCurrent();
      if (!gst.ok()) {
        status_ = std::move(gst);
        return false;
      }
      if (serial_stream_ == nullptr) {
        if (job_pos_ >= jobs_.size()) return false;
        Result<std::unique_ptr<DialectRowStream>> stream =
            OpenVertexStatement(dialect_, jobs_[job_pos_]);
        if (!stream.ok()) {
          status_ = stream.status();
          return false;
        }
        serial_stream_ = std::move(*stream);
      }
      block_.capacity = max;
      if (!serial_stream_->Next(&block_)) {
        status_ = serial_stream_->status();
        serial_stream_->Close();
        serial_stream_.reset();
        if (!status_.ok()) return false;
        ++job_pos_;
        continue;
      }
      for (Row& row : block_.rows) {
        VertexPtr v =
            FetchedVertex(*topology_, jobs_[job_pos_], spec_, std::move(row));
        if (v != nullptr) out->push_back(std::move(v));
      }
      if (!out->empty()) return true;  // all-filtered block: keep pulling
    }
  }

  // -- parallel: bounded queues fed by pool workers -----------------------
  void StartParallel() {
    parallel_mode_ = true;
    queues_.reserve(jobs_.size());
    for (size_t i = 0; i < jobs_.size(); ++i) {
      queues_.push_back(std::make_unique<VertexBlockQueue>(kQueueBlocks));
    }
    QueryTrace* trace = CurrentTrace();
    if (trace != nullptr) trace->AddFanout(1, jobs_.size());
    // Producers inherit the consumer's governor context so a deadline or
    // kill observed mid-table stops the fetch from inside the producer,
    // not only when the consumer gets around to calling Close().
    governor::QueryContext* qctx = governor::CurrentQueryContext();
    // RunBatch blocks its caller until every task finished, which must not
    // be the consumer: a dedicated coordinator submits the batch and is
    // joined on Close(). The consumer only ever waits on queue pops.
    coordinator_ = std::thread([this, trace, qctx] {
      ThreadPool::Shared().RunBatch(jobs_.size(),
                                    [this, trace, qctx](size_t j) {
        ScopedTrace scoped(trace);
        governor::ScopedQueryContext governed(qctx);
        ProduceTable(j);
      });
    });
  }

  void ProduceTable(size_t j) {
    VertexBlockQueue& queue = *queues_[j];
    // Early termination: a task that has not opened its SQL stream when
    // the consumer closes never runs it at all.
    if (cancel_.load(std::memory_order_acquire)) {
      queue.MarkDone(Status::OK());
      return;
    }
    Result<std::unique_ptr<DialectRowStream>> stream =
        OpenVertexStatement(dialect_, jobs_[j]);
    if (!stream.ok()) {
      queue.MarkDone(stream.status());
      return;
    }
    governor::QueryContext* qctx = governor::CurrentQueryContext();
    Status final_status = Status::OK();
    sql::RowBlock block;
    while (!cancel_.load(std::memory_order_acquire)) {
      // The governor check makes an expired deadline stop the fetch from
      // inside the producer; the consumer's unwind (Close) still runs, but
      // the SQL stream stops pulling rows immediately.
      if (qctx != nullptr) {
        final_status = qctx->Check();
        if (!final_status.ok()) break;
      }
      DB2G_FAILPOINT_STATUS("provider.producer_block", final_status);
      if (!final_status.ok()) break;
      block.capacity = sql::kDefaultBlockRows;
      if (!(*stream)->Next(&block)) {
        final_status = (*stream)->status();
        break;
      }
      std::vector<VertexPtr> vertices;
      vertices.reserve(block.rows.size());
      for (Row& row : block.rows) {
        VertexPtr v = FetchedVertex(*topology_, jobs_[j], spec_, std::move(row));
        if (v != nullptr) vertices.push_back(std::move(v));
      }
      if (vertices.empty()) continue;
      if (qctx != nullptr) {
        // Blocks parked in the bounded queue count against the query's
        // memory budget; the consumer releases the charge on pop. Charges
        // stranded by cancellation die with the query context.
        final_status = qctx->ChargeMemory(vertices.size() *
                                          governor::kApproxVertexBytes);
        if (!final_status.ok()) break;
      }
      if (!queue.Push(std::move(vertices))) break;
    }
    (*stream)->Close();
    queue.MarkDone(std::move(final_status));
  }

  bool NextParallel(std::vector<VertexPtr>* out, size_t max) {
    while (true) {
      if (pending_pos_ < pending_.size()) {
        size_t n = std::min(max, pending_.size() - pending_pos_);
        for (size_t i = 0; i < n; ++i) {
          out->push_back(std::move(pending_[pending_pos_ + i]));
        }
        pending_pos_ += n;
        if (pending_pos_ >= pending_.size()) {
          pending_.clear();
          pending_pos_ = 0;
        }
        return true;
      }
      if (queue_pos_ >= queues_.size()) return false;
      std::vector<VertexPtr> block;
      if (!queues_[queue_pos_]->Pop(&block)) {
        Status st = queues_[queue_pos_]->TakeStatus();
        if (!st.ok()) {
          status_ = std::move(st);
          return false;
        }
        ++queue_pos_;  // table drained; move to the next in order
        continue;
      }
      if (governor::QueryContext* qctx = governor::CurrentQueryContext()) {
        qctx->ReleaseMemory(block.size() * governor::kApproxVertexBytes);
      }
      pending_ = std::move(block);
      pending_pos_ = 0;
    }
  }

  SqlDialect* dialect_;
  const overlay::Topology* topology_;
  LookupSpec spec_;
  std::vector<TableStatement> jobs_;
  Status status_ = Status::OK();
  bool closed_ = false;

  // Serial state.
  size_t job_pos_ = 0;
  std::unique_ptr<DialectRowStream> serial_stream_;
  sql::RowBlock block_;

  // Parallel state.
  bool parallel_mode_ = false;
  std::atomic<bool> cancel_{false};
  std::vector<std::unique_ptr<VertexBlockQueue>> queues_;
  std::thread coordinator_;
  size_t queue_pos_ = 0;
  std::vector<VertexPtr> pending_;
  size_t pending_pos_ = 0;
};

}  // namespace

Status Db2GraphProvider::Vertices(const LookupSpec& spec,
                                  std::vector<VertexPtr>* out) {
  const bool cache_on = CacheUsable(spec);
  uint64_t epoch = 0;
  if (cache_on) {
    // Epoch read *before* the lookup: a write racing with the fetch makes
    // the entry stale-by-construction rather than stale-but-current.
    epoch = dialect_->db()->write_epoch();
    if (FromCache(spec.ids[0], epoch, spec, out)) return Status::OK();
  }

  Result<std::vector<TableStatement>> stmts =
      SurvivingTables(TableKind::kVertex, spec);
  if (!stmts.ok()) return stmts.status();
  std::vector<VertexPtr> fetched;
  DB2G_RETURN_NOT_OK(FetchAll(
      *stmts, "provider.fetch_vertex_table",
      [&](size_t j, Row row) {
        return FetchedVertex(topology_, (*stmts)[j], spec, std::move(row));
      },
      &fetched));
  if (cache_on && CacheFillEligible(spec)) {
    // Every surviving table was consulted and nothing was filtered, so
    // `fetched` is the complete vertex set for this id (possibly empty —
    // a cached negative).
    cache_->Put(spec.ids[0], fetched, epoch);
  }
  for (VertexPtr& v : fetched) out->push_back(std::move(v));
  return Status::OK();
}

Result<std::unique_ptr<gremlin::VertexStream>>
Db2GraphProvider::VerticesStreaming(const LookupSpec& spec) {
  // Aggregates produce no element stream, and cache-eligible point
  // lookups answer from (and fill) the vertex cache only on the
  // materialized path — both fall back to materialize-and-chunk.
  if (spec.agg != AggOp::kNone || CacheUsable(spec)) {
    return GraphProvider::VerticesStreaming(spec);
  }
  Result<std::vector<TableStatement>> jobs =
      SurvivingTables(TableKind::kVertex, spec);
  if (!jobs.ok()) return jobs.status();

  const bool parallel = FanOut(jobs->size());
  return std::unique_ptr<gremlin::VertexStream>(new Db2VertexStream(
      dialect_, &topology_, spec, std::move(*jobs), parallel));
}

Result<Value> Db2GraphProvider::AggregateVertices(const LookupSpec& spec) {
  return Aggregate(TableKind::kVertex, spec);
}

// ----------------------------------------------------------------------
// Edges
// ----------------------------------------------------------------------

Status Db2GraphProvider::Edges(const LookupSpec& spec,
                               std::vector<EdgePtr>* out) {
  return EdgesOnTables(spec, nullptr, out);
}

Status Db2GraphProvider::EdgesOnTables(const LookupSpec& spec,
                                       const std::vector<int>* tables,
                                       std::vector<EdgePtr>* out) {
  Result<std::vector<TableStatement>> stmts =
      SurvivingTables(TableKind::kEdge, spec, tables);
  if (!stmts.ok()) return stmts.status();
  // Edge order matters downstream (per-source emission order in the
  // interpreter), so FetchAll merges in table order.
  return FetchAll(
      *stmts, "provider.fetch_edge_table",
      [&](size_t j, Row row) {
        return FetchedEdge(topology_, (*stmts)[j], spec, std::move(row));
      },
      out);
}

Result<Value> Db2GraphProvider::AggregateEdges(const LookupSpec& spec) {
  return Aggregate(TableKind::kEdge, spec);
}

// ----------------------------------------------------------------------
// Adjacency with endpoint-table pruning
// ----------------------------------------------------------------------

Status Db2GraphProvider::AdjacentEdges(const std::vector<VertexPtr>& from,
                                       Direction dir, const LookupSpec& spec,
                                       std::vector<EdgePtr>* out) {
  // Which vertex tables do the anchors come from?
  std::unordered_set<std::string> source_tables;
  std::vector<Value> ids;
  ids.reserve(from.size());
  for (const VertexPtr& v : from) {
    ids.push_back(v->id);
    if (!v->source_table.empty()) source_tables.insert(v->source_table);
  }
  // Candidate edge tables: drop those whose declared endpoint vertex table
  // cannot contain any anchor (Section 6.3 "Using Source/Destination
  // Vertex Tables").
  QueryTrace* trace = CurrentTrace();
  std::vector<int> candidates;
  for (size_t ti = 0; ti < topology_.edge_tables().size(); ++ti) {
    const ResolvedEdgeTable& t = topology_.edge_tables()[ti];
    if (options_.endpoint_table_pruning && !source_tables.empty()) {
      auto endpoint_possible = [&](int vertex_table) {
        if (vertex_table < 0) return true;  // endpoint table unknown
        return source_tables.count(
                   topology_.vertex_tables()[vertex_table].conf.table_name) >
               0;
      };
      bool possible = false;
      if (dir == Direction::kOut || dir == Direction::kBoth) {
        possible |= endpoint_possible(t.src_vertex_table);
      }
      if (dir == Direction::kIn || dir == Direction::kBoth) {
        possible |= endpoint_possible(t.dst_vertex_table);
      }
      if (!possible) {
        stats_.edge_tables_pruned.fetch_add(1, std::memory_order_relaxed);
        if (trace != nullptr) trace->AddTablePruned(t.conf.table_name);
        continue;
      }
    }
    candidates.push_back(static_cast<int>(ti));
  }

  LookupSpec edge_spec = spec;
  if (dir == Direction::kOut) {
    edge_spec.src_ids = ids;
    return EdgesOnTables(edge_spec, &candidates, out);
  }
  if (dir == Direction::kIn) {
    edge_spec.dst_ids = ids;
    return EdgesOnTables(edge_spec, &candidates, out);
  }
  edge_spec.src_ids = ids;
  DB2G_RETURN_NOT_OK(EdgesOnTables(edge_spec, &candidates, out));
  edge_spec.src_ids.clear();
  edge_spec.dst_ids = ids;
  std::vector<EdgePtr> in_edges;
  DB2G_RETURN_NOT_OK(EdgesOnTables(edge_spec, &candidates, &in_edges));
  for (EdgePtr& e : in_edges) {
    if (!(e->src_id == e->dst_id)) out->push_back(std::move(e));
  }
  return Status::OK();
}

Status Db2GraphProvider::EdgeEndpoints(const std::vector<EdgePtr>& edges,
                                       Direction endpoint,
                                       const LookupSpec& spec,
                                       std::vector<VertexPtr>* out) {
  // Downstream the interpreter joins endpoints back to edges through an
  // id-keyed map, so result order here is free — cache hits can be
  // emitted immediately during classification.
  const bool cache_on = cache_ != nullptr && options_.vertex_cache &&
                        spec.agg == AggOp::kNone && !spec.has_projection &&
                        !dialect_->db()->access_control_enabled();
  uint64_t epoch = cache_on ? dialect_->db()->write_epoch() : 0;
  // The pinned paths below replace spec.ids with the endpoint ids, so
  // cached vertices are filtered against labels/predicates only.
  LookupSpec cached_check = spec;
  cached_check.ids.clear();

  // Partition endpoint ids by the vertex table they are pinned to, in
  // table-index order so the merge (and any trace) is deterministic
  // under fan-out.
  std::map<int, std::vector<Value>> pinned;  // vertex table -> ids
  std::vector<Value> unpinned;
  std::unordered_set<Value, ValueHash> seen;

  auto classify = [&](const EdgePtr& e, bool source_side) {
    const Value& id = source_side ? e->src_id : e->dst_id;
    if (!seen.insert(id).second) return;  // already handled
    const auto* prov = static_cast<const RowProvenance*>(e->provenance.get());
    int vertex_table = -1;
    if (prov != nullptr && options_.endpoint_table_pruning) {
      const ResolvedEdgeTable& t = topology_.edge_tables()[prov->table_index];
      vertex_table =
          source_side ? t.src_vertex_table : t.dst_vertex_table;
      // The vertex-table-is-also-edge-table shortcut: when the pinned
      // vertex table IS the edge's own table, the vertex's columns are in
      // the very row we already fetched — construct it without SQL.
      if (vertex_table >= 0 && options_.vertex_from_edge_shortcut) {
        const ResolvedVertexTable& vt =
            topology_.vertex_tables()[vertex_table];
        if (EqualsIgnoreCase(vt.conf.table_name, t.conf.table_name) &&
            prov->row.size() == vt.schema->columns.size()) {
          VertexPtr v = BuildVertexFromFetched(
              vt, vertex_table, vertex_full_rows_[vertex_table], prov->row);
          if (gremlin::MatchesSpec(*v, spec)) {
            out->push_back(std::move(v));
          }
          stats_.shortcut_vertices.fetch_add(1, std::memory_order_relaxed);
          if (QueryTrace* trace = CurrentTrace()) {
            trace->AddShortcutVertices(1);
          }
          return;
        }
      }
    }
    if (cache_on && FromCache(id, epoch, cached_check, out)) return;
    if (vertex_table >= 0) {
      pinned[vertex_table].push_back(id);
    } else {
      unpinned.push_back(id);
    }
  };

  for (const EdgePtr& e : edges) {
    if (endpoint == Direction::kOut || endpoint == Direction::kBoth) {
      classify(e, /*source_side=*/true);
    }
    if (endpoint == Direction::kIn || endpoint == Direction::kBoth) {
      classify(e, /*source_side=*/false);
    }
  }

  // One statement per pinned vertex table.
  std::vector<LookupSpec> group_specs;
  group_specs.reserve(pinned.size());
  std::vector<TableStatement> stmts;
  std::vector<const LookupSpec*> stmt_specs;
  for (auto& [vertex_table, ids] : pinned) {
    group_specs.push_back(spec);
    group_specs.back().ids = std::move(ids);
    const std::vector<int> only{vertex_table};
    Result<std::vector<TableStatement>> planned =
        SurvivingTables(TableKind::kVertex, group_specs.back(), &only);
    if (!planned.ok()) return planned.status();
    for (TableStatement& stmt : *planned) {
      stmts.push_back(std::move(stmt));
      stmt_specs.push_back(&group_specs.back());
    }
  }
  DB2G_RETURN_NOT_OK(FetchAll(
      stmts, "provider.fetch_vertex_table",
      [&](size_t j, Row row) {
        return FetchedVertex(topology_, stmts[j], *stmt_specs[j],
                             std::move(row));
      },
      out));

  if (!unpinned.empty()) {
    LookupSpec vertex_spec = spec;
    vertex_spec.ids = std::move(unpinned);
    DB2G_RETURN_NOT_OK(Vertices(vertex_spec, out));
  }
  return Status::OK();
}

// ----------------------------------------------------------------------
// Multi-hop collapsed traversal
// ----------------------------------------------------------------------

namespace {

void SetCondAlias(QueryConds* conds, const std::string& alias) {
  for (SqlCond& c : conds->conjuncts) c.alias = alias;
  for (auto& group : conds->or_groups) {
    for (auto& alt : group) {
      for (SqlCond& c : alt) c.alias = alias;
    }
  }
}

/// One table of a built multi-hop join, with everything emission needs:
/// the stage's fetched-column layout and its column offset in the joined
/// result row (stages are concatenated in SELECT order).
struct ChainStageMeta {
  FetchLayout layout;
  size_t offset = 0;
};

/// A fully-rendered join plan for one (edge-table × vertex-table) chain.
/// Stage order is e0, v1, e1, v2, ... — hop h contributes edge stage
/// 2h and vertex stage 2h+1.
struct JoinChainPlan {
  std::vector<JoinStage> stages;
  std::vector<ChainStageMeta> meta;
  std::vector<std::vector<std::string>> patterns;  // per-stage pred columns
  std::vector<const ResolvedEdgeTable*> edge_tables;     // per hop
  std::vector<const ResolvedVertexTable*> vertex_tables; // per hop
  std::vector<int> vertex_table_indexes;                 // per hop
  std::string select;
};

/// Builds the collapsed N-way join for chain `chain` of the provider
/// plan. `first_plan` is hop 1's edge plan — with the source-endpoint
/// conditions for execution, without them for Explain. Any violation of
/// the compile-time legality assumptions returns Unsupported so the
/// caller can fall back to step-at-a-time execution.
Status BuildJoinChainPlan(const overlay::Topology& topology,
                          const RuntimeOptions& options,
                          const gremlin::MultiHopSpec& spec,
                          const MultiHopProviderPlan& plan, size_t chain,
                          const TablePlan& first_plan, JoinChainPlan* out) {
  const size_t hops = spec.hops.size();
  if (hops == 0 || plan.later_hops.size() + 1 != hops ||
      chain >= plan.first_hop.size()) {
    return Status::Unsupported("malformed multi-hop plan");
  }
  size_t offset = 0;
  int prev_vt = -1;
  for (size_t h = 0; h < hops; ++h) {
    const MultiHopProviderPlan::HopTables& ht =
        h == 0 ? plan.first_hop[chain] : plan.later_hops[h - 1];
    if (ht.edge_table < 0 ||
        static_cast<size_t>(ht.edge_table) >= topology.edge_tables().size() ||
        ht.vertex_table < 0 ||
        static_cast<size_t>(ht.vertex_table) >=
            topology.vertex_tables().size()) {
      return Status::Unsupported("multi-hop plan references unknown tables");
    }
    const ResolvedEdgeTable& et =
        topology.edge_tables()[static_cast<size_t>(ht.edge_table)];
    const ResolvedVertexTable& vt =
        topology.vertex_tables()[static_cast<size_t>(ht.vertex_table)];
    const gremlin::MultiHopHop& hop = spec.hops[h];
    if (hop.direction == Direction::kBoth) {
      return Status::Unsupported("multi-hop over both()");
    }
    const bool outward = hop.direction == Direction::kOut;
    const ResolvedField& nearf = outward ? et.src_v : et.dst_v;
    const ResolvedField& farf = outward ? et.dst_v : et.src_v;
    if (!farf.def.SingleColumn() || !vt.id.def.SingleColumn()) {
      return Status::Unsupported("composite multi-hop join field");
    }
    const std::string ealias = "e" + std::to_string(h);
    const std::string valias = "v" + std::to_string(h + 1);

    // Edge stage.
    TablePlan ep = h == 0 ? first_plan
                         : PlanEdgeTable(et, hop.edge_spec, options);
    if (ep.skip || ep.client_filter) {
      return Status::Unsupported("multi-hop edge plan not pushable");
    }
    QueryConds econds = ep.conds;
    if (h > 0) {
      if (!nearf.def.SingleColumn() || prev_vt < 0) {
        return Status::Unsupported("composite multi-hop join field");
      }
      const ResolvedVertexTable& pvt =
          topology.vertex_tables()[static_cast<size_t>(prev_vt)];
      if (!pvt.id.def.SingleColumn()) {
        return Status::Unsupported("composite multi-hop join field");
      }
      SqlCond join;
      join.column = et.schema->columns[nearf.column_indexes[0]].name;
      join.op = "=";
      join.ref_alias = "v" + std::to_string(h);
      join.ref_column = pvt.schema->columns[pvt.id.column_indexes[0]].name;
      econds.conjuncts.insert(
          econds.conjuncts.begin() +
              static_cast<ptrdiff_t>(
                  JoinCondPosition(ep.conds, *et.schema, et.label_column)),
          std::move(join));
    }
    SetCondAlias(&econds, ealias);
    std::vector<size_t> ecols = nearf.column_indexes;
    ecols.insert(ecols.end(), farf.column_indexes.begin(),
                 farf.column_indexes.end());
    if (et.label_column) ecols.push_back(*et.label_column);
    if (hop.emit_edge_id && !et.conf.implicit_edge_id) {
      ecols.insert(ecols.end(), et.id.column_indexes.begin(),
                   et.id.column_indexes.end());
    }
    FetchLayout elayout = MakeLayout(*et.schema, std::move(ecols));
    JoinStage estage;
    estage.table = et.conf.table_name;
    estage.alias = ealias;
    estage.conds = std::move(econds);
    out->stages.push_back(std::move(estage));
    ChainStageMeta emeta;
    emeta.layout = elayout;
    emeta.offset = offset;
    offset += elayout.schema_cols.size();
    out->meta.push_back(std::move(emeta));
    out->patterns.push_back(ep.predicate_columns);

    // Vertex stage.
    TablePlan vp = PlanVertexTable(vt, hop.vertex_spec, options);
    if (vp.skip || vp.client_filter) {
      return Status::Unsupported("multi-hop vertex plan not pushable");
    }
    QueryConds vconds = vp.conds;
    SqlCond vjoin;
    vjoin.column = vt.schema->columns[vt.id.column_indexes[0]].name;
    vjoin.op = "=";
    vjoin.ref_alias = ealias;
    vjoin.ref_column = et.schema->columns[farf.column_indexes[0]].name;
    vconds.conjuncts.insert(
        vconds.conjuncts.begin() +
            static_cast<ptrdiff_t>(
                JoinCondPosition(vp.conds, *vt.schema, vt.label_column)),
        std::move(vjoin));
    SetCondAlias(&vconds, valias);
    std::vector<size_t> vcols = h + 1 == hops
                                    ? VertexFetchColumns(vt, hop.vertex_spec)
                                    : vt.id.column_indexes;
    FetchLayout vlayout = MakeLayout(*vt.schema, std::move(vcols));
    JoinStage vstage;
    vstage.table = vt.conf.table_name;
    vstage.alias = valias;
    vstage.conds = std::move(vconds);
    out->stages.push_back(std::move(vstage));
    ChainStageMeta vmeta;
    vmeta.layout = vlayout;
    vmeta.offset = offset;
    offset += vlayout.schema_cols.size();
    out->meta.push_back(std::move(vmeta));
    out->patterns.push_back(vp.predicate_columns);

    out->edge_tables.push_back(&et);
    out->vertex_tables.push_back(&vt);
    out->vertex_table_indexes.push_back(ht.vertex_table);
    prev_vt = ht.vertex_table;
  }

  std::vector<std::string> select_parts;
  for (size_t s = 0; s < out->stages.size(); ++s) {
    const sql::TableSchema& schema =
        s % 2 == 0 ? *out->edge_tables[s / 2]->schema
                   : *out->vertex_tables[s / 2]->schema;
    for (size_t ci : out->meta[s].layout.schema_cols) {
      select_parts.push_back("\"" + out->stages[s].alias + "\".\"" +
                             schema.columns[ci].name + "\"");
    }
  }
  out->select = Join(select_parts, ", ");
  return Status::OK();
}

/// Sub-row of one stage in the joined result row.
Row StageRow(const Row& row, const ChainStageMeta& meta) {
  return Row(row.begin() + static_cast<ptrdiff_t>(meta.offset),
             row.begin() + static_cast<ptrdiff_t>(meta.offset +
                                                  meta.layout.schema_cols
                                                      .size()));
}


}  // namespace

Status Db2GraphProvider::MultiHopTraverse(const std::vector<VertexPtr>& sources,
                                          const gremlin::MultiHopSpec& spec,
                                          gremlin::MultiHopBuckets* out) {
  auto plan = std::static_pointer_cast<const MultiHopProviderPlan>(
      spec.provider_plan);
  auto decline = [&](const char* why) {
    if (plan != nullptr) {
      if (auto log = plan->log.lock()) {
        log->RecordExecution(plan->decision_id, 0, /*fell_back=*/true);
      }
    }
    return Status::Unsupported(why);
  };
  if (plan == nullptr || spec.hops.empty() || plan->first_hop.empty() ||
      plan->later_hops.size() + 1 != spec.hops.size() ||
      !options_.endpoint_table_pruning) {
    return decline("no executable multi-hop plan");
  }
  if (sources.empty()) return Status::OK();

  // Hop 1 repeats the step-at-a-time endpoint handling exactly: the
  // sources' ids become endpoint conditions and their source tables
  // drive the same endpoint pruning AdjacentEdges would apply.
  const gremlin::MultiHopHop& first = spec.hops[0];
  LookupSpec espec = first.edge_spec;
  std::vector<Value>& endpoint_ids =
      first.direction == Direction::kOut ? espec.src_ids : espec.dst_ids;
  endpoint_ids.reserve(sources.size());
  for (const VertexPtr& v : sources) endpoint_ids.push_back(v->id);
  std::unordered_set<std::string> source_tables;
  for (const VertexPtr& v : sources) {
    if (!v->source_table.empty()) source_tables.insert(v->source_table);
  }

  QueryTrace* trace = CurrentTrace();
  uint64_t total = 0;
  for (size_t ci = 0; ci < plan->first_hop.size(); ++ci) {
    const MultiHopProviderPlan::HopTables& ht = plan->first_hop[ci];
    if (ht.edge_table < 0 ||
        static_cast<size_t>(ht.edge_table) >=
            topology_.edge_tables().size()) {
      return decline("multi-hop plan references unknown tables");
    }
    const ResolvedEdgeTable& et =
        topology_.edge_tables()[static_cast<size_t>(ht.edge_table)];
    if (!source_tables.empty()) {
      int near = first.direction == Direction::kOut ? et.src_vertex_table
                                                    : et.dst_vertex_table;
      if (near >= 0 &&
          source_tables.count(
              topology_.vertex_tables()[static_cast<size_t>(near)]
                  .conf.table_name) == 0) {
        continue;  // no source can live in this chain's near table
      }
    }
    TablePlan ep = PlanEdgeTable(et, espec, options_);
    if (ep.client_filter) return decline("multi-hop edge plan not pushable");
    if (ep.skip) {
      stats_.edge_tables_pruned.fetch_add(1, std::memory_order_relaxed);
      if (trace != nullptr) trace->AddTablePruned(et.conf.table_name);
      continue;
    }

    JoinChainPlan cp;
    Status built =
        BuildJoinChainPlan(topology_, options_, spec, *plan, ci, ep, &cp);
    if (built.code() == StatusCode::kUnsupported) {
      return decline(built.message().c_str());
    }
    DB2G_RETURN_NOT_OK(built);

    stats_.edge_tables_queried.fetch_add(1, std::memory_order_relaxed);
    for (size_t s = 0; s < cp.stages.size(); ++s) {
      if (trace != nullptr) trace->AddTableConsulted(cp.stages[s].table);
      dialect_->RecordPattern(cp.stages[s].table, cp.patterns[s]);
    }
    std::vector<Value> params;
    CollectJoinParams(cp.stages, &params);
    Result<std::unique_ptr<DialectRowStream>> stream =
        dialect_->QueryShapedStreaming(
            JoinShapeKey(cp.stages, cp.select),
            [&] {
              std::vector<Value> ignored;
              return BuildJoinSql(cp.stages, cp.select, &ignored);
            },
            params);
    if (!stream.ok()) return stream.status();

    const size_t hops = spec.hops.size();
    const ResolvedField& near0 = first.direction == Direction::kOut
                                     ? et.src_v
                                     : et.dst_v;
    sql::RowBlock block;
    while ((*stream)->Next(&block)) {
      Status governed = governor::CheckCurrent();
      if (!governed.ok()) {
        (*stream)->Close();
        return governed;
      }
      for (Row& row : block.rows) {
        Row e0row = StageRow(row, cp.meta[0]);
        Value source_id = ComposeField(near0, cp.meta[0].layout, e0row);
        gremlin::MultiHopEmission emission;
        for (size_t h = 0; h < hops; ++h) {
          const ChainStageMeta& emeta = cp.meta[2 * h];
          const ChainStageMeta& vmeta = cp.meta[2 * h + 1];
          const ResolvedEdgeTable& het = *cp.edge_tables[h];
          const bool outward =
              spec.hops[h].direction == Direction::kOut;
          Row erow = h == 0 ? e0row : StageRow(row, emeta);
          if (spec.hops[h].emit_edge_id) {
            emission.path_ids.push_back(
                ComposeEdgeId(het, emeta.layout, erow));
          }
          // The hop's vertex id enters the path as the edge row's far
          // endpoint value — exactly the value step-at-a-time emission
          // uses (the join guarantees it matches the vertex row's id).
          const ResolvedField& farf = outward ? het.dst_v : het.src_v;
          emission.path_ids.push_back(
              ComposeField(farf, emeta.layout, erow));
          if (h + 1 == hops) {
            emission.vertex = BuildVertexFromFetched(
                *cp.vertex_tables[h], cp.vertex_table_indexes[h],
                vmeta.layout, StageRow(row, vmeta));
          }
        }
        ++total;
        (*out)[source_id].push_back(std::move(emission));
      }
    }
    if (!(*stream)->status().ok()) return (*stream)->status();
  }

  if (auto log = plan->log.lock()) {
    log->RecordExecution(plan->decision_id, total, /*fell_back=*/false);
  }
  return Status::OK();
}

// ----------------------------------------------------------------------
// Compile-time plan previews (Explain)
// ----------------------------------------------------------------------

Db2GraphProvider::SqlPreview Db2GraphProvider::Preview(
    const std::string& table, const TableStatement* stmt,
    size_t unbound_begin, size_t unbound_end) const {
  SqlPreview preview;
  preview.table = table;
  const sql::Table* base = dialect_->db()->GetTable(table);
  preview.estimated_rows = base != nullptr ? base->row_count() : 0;
  if (stmt == nullptr) {
    preview.pruned = true;
    preview.access_path = "pruned";
    return preview;
  }
  std::vector<Value> params;
  std::string sql = stmt->Sql(&params);
  preview.sql =
      SqlDialect::RenderSql(sql, params, unbound_begin, unbound_end);
  preview.access_path = PredictAccessPath(dialect_->db(), table, stmt->conds);
  return preview;
}

Status Db2GraphProvider::ExplainTables(TableKind kind, const LookupSpec& spec,
                                       std::vector<SqlPreview>* out) const {
  std::vector<SqlPreview> previews;
  auto plan = [&](bool aggregate) {
    previews.clear();
    return PlanStatements(
        kind, spec, nullptr, aggregate,
        [&](const std::string& table) {
          previews.push_back(Preview(table, nullptr));
        },
        [&](TableStatement stmt) {
          previews.push_back(Preview(stmt.table, &stmt));
        });
  };
  // An aggregate that needs client-side filtering runs as a fetch, which
  // the interpreter then aggregates — preview that fetch.
  if (spec.agg == AggOp::kNone || !plan(/*aggregate=*/true).ok()) {
    DB2G_RETURN_NOT_OK(plan(/*aggregate=*/false));
  }
  for (SqlPreview& p : previews) out->push_back(std::move(p));
  return Status::OK();
}

Status Db2GraphProvider::ExplainVertices(const LookupSpec& spec,
                                         std::vector<SqlPreview>* out) const {
  return ExplainTables(TableKind::kVertex, spec, out);
}

Status Db2GraphProvider::ExplainEdges(const LookupSpec& spec,
                                      std::vector<SqlPreview>* out) const {
  return ExplainTables(TableKind::kEdge, spec, out);
}

Status Db2GraphProvider::ExplainEdgeEndpoints(
    const LookupSpec& edge_spec, Direction endpoint,
    const LookupSpec& spec, std::vector<SqlPreview>* out) const {
  // Mirrors EdgeEndpoints per edge table instead of per edge: each
  // surviving edge table pins the endpoint to its declared vertex table,
  // unless the vertex is built from the edge row itself.
  std::set<int> pinned;
  bool unpinned = false;
  auto classify = [&](const TableStatement& e) {
    const ResolvedEdgeTable& et =
        topology_.edge_tables()[static_cast<size_t>(e.table_index)];
    for (bool source_side : {true, false}) {
      if (endpoint == (source_side ? Direction::kIn : Direction::kOut)) {
        continue;
      }
      int vt = -1;
      if (options_.endpoint_table_pruning) {
        vt = source_side ? et.src_vertex_table : et.dst_vertex_table;
      }
      if (vt < 0) {
        unpinned = true;
      } else if (!options_.vertex_from_edge_shortcut ||
                 !EqualsIgnoreCase(et.conf.table_name,
                                   topology_.vertex_tables()[vt]
                                       .conf.table_name) ||
                 e.layout.schema_cols.size() !=
                     topology_.vertex_tables()[vt].schema->columns.size()) {
        pinned.insert(vt);
      }
    }
  };
  DB2G_RETURN_NOT_OK(PlanStatements(
      TableKind::kEdge, edge_spec, nullptr, /*aggregate=*/false,
      [](const std::string&) {}, classify));

  // Pinned lookups replace the spec's ids with the endpoint ids, which
  // bind at execution: one '?' per id column.
  LookupSpec vertex_spec = spec;
  vertex_spec.ids.clear();
  for (int vt : pinned) {
    const ResolvedVertexTable& t = topology_.vertex_tables()[vt];
    auto preview_pinned = [&](TableStatement stmt) {
      if (stmt.client_filter) {
        out->push_back(Preview(stmt.table, &stmt));
        return;
      }
      std::vector<SqlCond> id_conds;
      for (size_t c : t.id.column_indexes) {
        SqlCond cond;
        cond.column = t.schema->columns[c].name;
        cond.op = t.id.column_indexes.size() == 1 ? "IN" : "=";
        cond.params.emplace_back();
        id_conds.push_back(std::move(cond));
      }
      size_t unbound_begin = 0;
      if (id_conds.size() == 1) {
        // BuildIdConds' IN conjunct, placed where PlanVertexTable puts it.
        size_t pos = JoinCondPosition(stmt.conds, *t.schema, t.label_column);
        QueryConds before;
        before.conjuncts.assign(stmt.conds.conjuncts.begin(),
                                stmt.conds.conjuncts.begin() + pos);
        std::vector<Value> before_params;
        CollectParams(before, &before_params);
        unbound_begin = before_params.size();
        stmt.conds.conjuncts.insert(stmt.conds.conjuncts.begin() + pos,
                                    std::move(id_conds[0]));
      } else {
        // A composite id is an OR-group, rendered after every conjunct.
        unbound_begin = stmt.Params().size();
        stmt.conds.or_groups.push_back({std::move(id_conds)});
      }
      out->push_back(Preview(stmt.table, &stmt, unbound_begin,
                             unbound_begin + t.id.column_indexes.size()));
    };
    const std::vector<int> only{vt};
    DB2G_RETURN_NOT_OK(PlanStatements(
        TableKind::kVertex, vertex_spec, &only, /*aggregate=*/false,
        [&](const std::string& table) {
          out->push_back(Preview(table, nullptr));
        },
        preview_pinned));
  }
  if (unpinned) return ExplainVertices(vertex_spec, out);
  return Status::OK();
}

Status Db2GraphProvider::ExplainMultiHop(const gremlin::MultiHopSpec& spec,
                                         std::vector<SqlPreview>* out) const {
  auto plan = std::static_pointer_cast<const MultiHopProviderPlan>(
      spec.provider_plan);
  if (plan == nullptr || spec.hops.empty()) return Status::OK();
  const gremlin::MultiHopHop& first = spec.hops[0];
  for (size_t ci = 0; ci < plan->first_hop.size(); ++ci) {
    const MultiHopProviderPlan::HopTables& ht = plan->first_hop[ci];
    if (ht.edge_table < 0 ||
        static_cast<size_t>(ht.edge_table) >=
            topology_.edge_tables().size()) {
      continue;
    }
    const ResolvedEdgeTable& et =
        topology_.edge_tables()[static_cast<size_t>(ht.edge_table)];
    SqlPreview preview;
    TablePlan ep = PlanEdgeTable(et, first.edge_spec, options_);
    JoinChainPlan cp;
    if (ep.skip || ep.client_filter ||
        !BuildJoinChainPlan(topology_, options_, spec, *plan, ci, ep, &cp)
             .ok()) {
      preview.table = et.conf.table_name;
      preview.pruned = true;
      preview.access_path = "pruned";
      out->push_back(std::move(preview));
      continue;
    }
    std::vector<std::string> chain_tables;
    chain_tables.reserve(cp.stages.size());
    for (const JoinStage& stage : cp.stages) {
      chain_tables.push_back(stage.table);
    }
    preview.table = Join(chain_tables, ">");
    std::vector<Value> params;
    std::string sql = BuildJoinSql(cp.stages, cp.select, &params);
    preview.sql = SqlDialect::RenderSql(sql, params);
    preview.access_path =
        "multi-hop join (" + std::to_string(cp.stages.size()) + " stages)";
    preview.estimated_rows = spec.est_rows;
    out->push_back(std::move(preview));
  }
  return Status::OK();
}

}  // namespace db2graph::core
