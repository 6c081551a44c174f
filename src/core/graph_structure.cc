#include "core/graph_structure.h"

#include "core/graph_planning.h"
#include "core/optimizer.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
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

// ----------------------------------------------------------------------

Db2GraphProvider::Db2GraphProvider(SqlDialect* dialect,
                                   overlay::Topology topology,
                                   RuntimeOptions options)
    : dialect_(dialect), topology_(std::move(topology)), options_(options) {
  if (options_.vertex_cache) cache_ = std::make_unique<VertexCache>();
}

void Db2GraphProvider::ExecuteJobs(size_t n,
                                   const std::function<void(size_t)>& fn) {
  // Fanning out while this thread already holds the database's shared
  // read lock (a graphQuery table function inside a SELECT) is unsafe:
  // pool workers would queue for fresh shared locks behind any waiting
  // writer, which in turn waits on this thread — a deadlock. Reentrant
  // calls run serially instead; the outer statement still parallelizes.
  if (n > 1 && options_.parallel_fanout &&
      !dialect_->db()->ReadLockHeldByThisThread()) {
    stats_.parallel_batches.fetch_add(1, std::memory_order_relaxed);
    stats_.parallel_tasks.fetch_add(n, std::memory_order_relaxed);
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

VertexPtr Db2GraphProvider::MaterializeVertex(int table_index,
                                              const Row& row) const {
  // Only used with full-row fetches (client-filter paths).
  const ResolvedVertexTable& t = topology_.vertex_tables()[table_index];
  auto v = std::make_shared<Vertex>();
  v->id = t.id.Compose(row);
  v->label = t.conf.label.fixed ? t.conf.label.value
                                : row[*t.label_column].ToString();
  for (size_t i = 0; i < t.properties.size(); ++i) {
    const Value& value = row[t.property_columns[i]];
    if (!value.is_null()) v->properties.emplace_back(t.properties[i], value);
  }
  v->source_table = t.conf.table_name;
  auto prov = std::make_shared<RowProvenance>();
  prov->table_index = table_index;
  prov->row = row;
  v->provenance = std::move(prov);
  return v;
}

// ----------------------------------------------------------------------
// Vertices
// ----------------------------------------------------------------------

namespace {

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

// One per-table vertex fetch: the unit of work the fan-out parallelizes.
// Everything it touches is either private to the call or internally
// synchronized (dialect template cache, database shared lock, atomics).
Status FetchVertexTable(SqlDialect* dialect, const ResolvedVertexTable& t,
                        int table_index, const LookupSpec& spec,
                        const VertexPlan& plan, std::vector<VertexPtr>* out) {
  // A cancelled / timed-out query skips the tables it has not fetched
  // yet; with fan-out, workers past this check finish their one statement
  // and the batch unwinds at the merge.
  DB2G_RETURN_NOT_OK(governor::CheckCurrent());
  DB2G_FAILPOINT("provider.fetch_vertex_table");
  const sql::TableSchema& schema = *t.schema;
  // The naive path fetches full rows (needed for client-side filtering);
  // the pushdown path fetches only the projected layout.
  std::vector<size_t> cols;
  if (plan.client_filter) {
    for (size_t i = 0; i < schema.columns.size(); ++i) cols.push_back(i);
  } else {
    cols = VertexFetchColumns(t, spec);
  }
  FetchLayout layout = MakeLayout(schema, std::move(cols));

  QueryConds conds = plan.client_filter ? QueryConds{} : plan.conds;
  // The per-table row budget holds only when SQL sees every filter; a
  // client-filtered fetch must not be truncated before filtering.
  int64_t limit = plan.client_filter ? -1 : spec.limit;
  std::string select = SelectListFor(schema, layout);
  std::vector<Value> params;
  CollectParams(conds, &params);
  dialect->RecordPattern(t.conf.table_name, plan.predicate_columns);
  Result<sql::ResultSet> rs = dialect->QueryShaped(
      ShapeKey(t.conf.table_name, select, conds, limit),
      [&] {
        std::vector<Value> ignored;
        return BuildSql(t.conf.table_name, select, conds, &ignored, limit);
      },
      params);
  if (!rs.ok()) return rs.status();

  for (Row& row : rs->rows) {
    VertexPtr v = BuildVertexFromFetched(t, table_index, layout,
                                         std::move(row));
    if (plan.client_filter && !gremlin::MatchesSpec(*v, spec)) continue;
    out->push_back(std::move(v));
  }
  return Status::OK();
}

// One surviving table of a streaming vertex lookup.
struct VertexJob {
  int table_index;
  VertexPlan plan;
};

// Opens the per-table SQL stream FetchVertexTable would have executed
// materialized. `layout` receives the fetched-column layout the caller
// needs to build vertices from the stream's rows.
Result<std::unique_ptr<DialectRowStream>> OpenVertexTableStream(
    SqlDialect* dialect, const ResolvedVertexTable& t, const LookupSpec& spec,
    const VertexPlan& plan, FetchLayout* layout) {
  DB2G_FAILPOINT("provider.open_vertex_stream");
  const sql::TableSchema& schema = *t.schema;
  std::vector<size_t> cols;
  if (plan.client_filter) {
    for (size_t i = 0; i < schema.columns.size(); ++i) cols.push_back(i);
  } else {
    cols = VertexFetchColumns(t, spec);
  }
  *layout = MakeLayout(schema, std::move(cols));
  QueryConds conds = plan.client_filter ? QueryConds{} : plan.conds;
  int64_t limit = plan.client_filter ? -1 : spec.limit;
  std::string select = SelectListFor(schema, *layout);
  std::vector<Value> params;
  CollectParams(conds, &params);
  dialect->RecordPattern(t.conf.table_name, plan.predicate_columns);
  return dialect->QueryShapedStreaming(
      ShapeKey(t.conf.table_name, select, conds, limit),
      [&] {
        std::vector<Value> ignored;
        return BuildSql(t.conf.table_name, select, conds, &ignored, limit);
      },
      params);
}

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
                  LookupSpec spec, std::vector<VertexJob> jobs, bool parallel)
      : dialect_(dialect),
        topology_(topology),
        spec_(std::move(spec)),
        jobs_(std::move(jobs)) {
    if (parallel && jobs_.size() > 1) StartParallel();
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
            OpenVertexTableStream(
                dialect_, topology_->vertex_tables()[jobs_[job_pos_].table_index],
                spec_, jobs_[job_pos_].plan, &layout_);
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
      const VertexJob& job = jobs_[job_pos_];
      const ResolvedVertexTable& t =
          topology_->vertex_tables()[job.table_index];
      for (Row& row : block_.rows) {
        VertexPtr v = BuildVertexFromFetched(t, job.table_index, layout_,
                                             std::move(row));
        if (job.plan.client_filter && !gremlin::MatchesSpec(*v, spec_)) {
          continue;
        }
        out->push_back(std::move(v));
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
    const VertexJob& job = jobs_[j];
    const ResolvedVertexTable& t = topology_->vertex_tables()[job.table_index];
    FetchLayout layout;
    Result<std::unique_ptr<DialectRowStream>> stream =
        OpenVertexTableStream(dialect_, t, spec_, job.plan, &layout);
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
        VertexPtr v = BuildVertexFromFetched(t, job.table_index, layout,
                                             std::move(row));
        if (job.plan.client_filter && !gremlin::MatchesSpec(*v, spec_)) {
          continue;
        }
        vertices.push_back(std::move(v));
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
  std::vector<VertexJob> jobs_;
  Status status_ = Status::OK();
  bool closed_ = false;

  // Serial state.
  size_t job_pos_ = 0;
  std::unique_ptr<DialectRowStream> serial_stream_;
  FetchLayout layout_;
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
    std::vector<VertexPtr> cached;
    if (cache_->Get(spec.ids[0], epoch, &cached)) {
      stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
      if (QueryTrace* trace = CurrentTrace()) trace->AddCacheHit();
      for (VertexPtr& v : cached) {
        if (gremlin::MatchesSpec(*v, spec)) out->push_back(std::move(v));
      }
      return Status::OK();
    }
    stats_.cache_misses.fetch_add(1, std::memory_order_relaxed);
    if (QueryTrace* trace = CurrentTrace()) trace->AddCacheMiss();
  }

  struct Job {
    int table_index;
    VertexPlan plan;
  };
  QueryTrace* trace = CurrentTrace();
  std::vector<Job> jobs;
  for (size_t ti = 0; ti < topology_.vertex_tables().size(); ++ti) {
    const ResolvedVertexTable& t = topology_.vertex_tables()[ti];
    VertexPlan plan = PlanVertexTable(t, spec, options_);
    if (plan.skip) {
      stats_.vertex_tables_pruned.fetch_add(1, std::memory_order_relaxed);
      if (trace != nullptr) trace->AddTablePruned(t.conf.table_name);
      continue;
    }
    stats_.vertex_tables_queried.fetch_add(1, std::memory_order_relaxed);
    if (trace != nullptr) trace->AddTableConsulted(t.conf.table_name);
    jobs.push_back(Job{static_cast<int>(ti), std::move(plan)});
  }

  // Per-job result slots keep the merge deterministic in table order no
  // matter which worker finishes first.
  std::vector<std::vector<VertexPtr>> slots(jobs.size());
  std::vector<Status> statuses(jobs.size(), Status::OK());
  ExecuteJobs(jobs.size(), [&](size_t j) {
    statuses[j] = FetchVertexTable(
        dialect_, topology_.vertex_tables()[jobs[j].table_index],
        jobs[j].table_index, spec, jobs[j].plan, &slots[j]);
  });
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }

  std::vector<VertexPtr> fetched;
  for (auto& slot : slots) {
    for (VertexPtr& v : slot) fetched.push_back(std::move(v));
  }
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

  QueryTrace* trace = CurrentTrace();
  std::vector<VertexJob> jobs;
  for (size_t ti = 0; ti < topology_.vertex_tables().size(); ++ti) {
    const ResolvedVertexTable& t = topology_.vertex_tables()[ti];
    VertexPlan plan = PlanVertexTable(t, spec, options_);
    if (plan.skip) {
      stats_.vertex_tables_pruned.fetch_add(1, std::memory_order_relaxed);
      if (trace != nullptr) trace->AddTablePruned(t.conf.table_name);
      continue;
    }
    stats_.vertex_tables_queried.fetch_add(1, std::memory_order_relaxed);
    if (trace != nullptr) trace->AddTableConsulted(t.conf.table_name);
    jobs.push_back(VertexJob{static_cast<int>(ti), std::move(plan)});
  }

  // Same fan-out eligibility rule as ExecuteJobs: never spawn workers
  // when this thread already holds the database read lock.
  bool parallel = jobs.size() > 1 && options_.parallel_fanout &&
                  !dialect_->db()->ReadLockHeldByThisThread();
  if (parallel) {
    stats_.parallel_batches.fetch_add(1, std::memory_order_relaxed);
    stats_.parallel_tasks.fetch_add(jobs.size(), std::memory_order_relaxed);
  }
  return std::unique_ptr<gremlin::VertexStream>(new Db2VertexStream(
      dialect_, &topology_, spec, std::move(jobs), parallel));
}

Result<Value> Db2GraphProvider::AggregateVertices(const LookupSpec& spec) {
  if (spec.agg == AggOp::kNone) {
    return Status::Unsupported("no aggregate in spec");
  }
  struct Job {
    int table_index;
    VertexPlan plan;
    std::string select;
  };
  QueryTrace* trace = CurrentTrace();
  std::vector<Job> jobs;
  for (size_t ti = 0; ti < topology_.vertex_tables().size(); ++ti) {
    const ResolvedVertexTable& t = topology_.vertex_tables()[ti];
    VertexPlan plan = PlanVertexTable(t, spec, options_);
    if (plan.client_filter) {
      return Status::Unsupported(
          "aggregate requires client-side filtering; falling back");
    }
    if (plan.skip) {
      stats_.vertex_tables_pruned.fetch_add(1, std::memory_order_relaxed);
      if (trace != nullptr) trace->AddTablePruned(t.conf.table_name);
      continue;
    }
    // Locate the aggregated property column (count(*) needs none).
    std::string agg_column;
    if (spec.agg != AggOp::kCount || !spec.agg_key.empty()) {
      bool found = false;
      for (size_t i = 0; i < t.properties.size(); ++i) {
        if (EqualsIgnoreCase(t.properties[i], spec.agg_key)) {
          agg_column = t.schema->columns[t.property_columns[i]].name;
          found = true;
          break;
        }
      }
      if (!found) continue;  // table contributes nothing
    }
    stats_.vertex_tables_queried.fetch_add(1, std::memory_order_relaxed);
    if (trace != nullptr) trace->AddTableConsulted(t.conf.table_name);
    std::string select;
    switch (spec.agg) {
      case AggOp::kCount:
        select = agg_column.empty() ? "COUNT(*)"
                                    : "COUNT(\"" + agg_column + "\")";
        break;
      case AggOp::kSum:
      case AggOp::kMean:
        select = "SUM(\"" + agg_column + "\"), COUNT(\"" + agg_column + "\")";
        break;
      case AggOp::kMin:
        select = "MIN(\"" + agg_column + "\")";
        break;
      case AggOp::kMax:
        select = "MAX(\"" + agg_column + "\")";
        break;
      case AggOp::kNone:
        return Status::Internal("unreachable");
    }
    jobs.push_back(Job{static_cast<int>(ti), std::move(plan),
                       std::move(select)});
  }

  struct Partial {
    Status status = Status::OK();
    bool has_row = false;
    Row row;
  };
  std::vector<Partial> partials(jobs.size());
  ExecuteJobs(jobs.size(), [&](size_t j) {
    const ResolvedVertexTable& t =
        topology_.vertex_tables()[jobs[j].table_index];
    std::vector<Value> params;
    CollectParams(jobs[j].plan.conds, &params);
    dialect_->RecordPattern(t.conf.table_name, jobs[j].plan.predicate_columns);
    Result<sql::ResultSet> rs = dialect_->QueryShaped(
        ShapeKey(t.conf.table_name, jobs[j].select, jobs[j].plan.conds),
        [&] {
          std::vector<Value> ignored;
          return BuildSql(t.conf.table_name, jobs[j].select,
                          jobs[j].plan.conds, &ignored);
        },
        params);
    if (!rs.ok()) {
      partials[j].status = rs.status();
      return;
    }
    if (!rs->rows.empty()) {
      partials[j].has_row = true;
      partials[j].row = std::move(rs->rows[0]);
    }
  });

  int64_t total_count = 0;
  double total_sum = 0;
  bool sum_is_int = true;
  int64_t total_isum = 0;
  Value min_v;
  Value max_v;
  for (Partial& partial : partials) {
    if (!partial.status.ok()) return partial.status;
    if (!partial.has_row) continue;
    const Row& row = partial.row;
    switch (spec.agg) {
      case AggOp::kCount:
        total_count += row[0].is_null() ? 0 : row[0].as_int();
        break;
      case AggOp::kSum:
      case AggOp::kMean:
        if (!row[0].is_null()) {
          total_sum += row[0].NumericValue();
          if (row[0].is_int()) {
            total_isum += row[0].as_int();
          } else {
            sum_is_int = false;
          }
          total_count += row[1].as_int();
        }
        break;
      case AggOp::kMin:
        if (!row[0].is_null() && (min_v.is_null() || row[0] < min_v)) {
          min_v = row[0];
        }
        break;
      case AggOp::kMax:
        if (!row[0].is_null() && (max_v.is_null() || row[0] > max_v)) {
          max_v = row[0];
        }
        break;
      case AggOp::kNone:
        break;
    }
  }
  switch (spec.agg) {
    case AggOp::kCount:
      return Value(total_count);
    case AggOp::kSum:
      if (total_count == 0) return Value::Null();
      return sum_is_int ? Value(total_isum) : Value(total_sum);
    case AggOp::kMean:
      if (total_count == 0) return Value::Null();
      return Value(total_sum / static_cast<double>(total_count));
    case AggOp::kMin:
      return min_v;
    case AggOp::kMax:
      return max_v;
    case AggOp::kNone:
      break;
  }
  return Status::Internal("unreachable");
}

// ----------------------------------------------------------------------
// Edges
// ----------------------------------------------------------------------

namespace {

// One per-table edge fetch: the parallel fan-out unit for Edges /
// AdjacentEdges. Same thread-safety contract as FetchVertexTable.
Status FetchEdgeTable(SqlDialect* dialect, const ResolvedEdgeTable& t,
                      int table_index, const LookupSpec& spec,
                      const EdgePlan& plan, std::vector<EdgePtr>* out) {
  DB2G_RETURN_NOT_OK(governor::CheckCurrent());
  DB2G_FAILPOINT("provider.fetch_edge_table");
  const sql::TableSchema& schema = *t.schema;
  std::vector<size_t> cols;
  if (plan.client_filter) {
    for (size_t i = 0; i < schema.columns.size(); ++i) cols.push_back(i);
  } else {
    cols = EdgeFetchColumns(t, spec);
  }
  FetchLayout layout = MakeLayout(schema, std::move(cols));

  QueryConds conds = plan.client_filter ? QueryConds{} : plan.conds;
  int64_t limit = plan.client_filter ? -1 : spec.limit;
  std::string select = SelectListFor(schema, layout);
  std::vector<Value> params;
  CollectParams(conds, &params);
  dialect->RecordPattern(t.conf.table_name, plan.predicate_columns);
  Result<sql::ResultSet> rs = dialect->QueryShaped(
      ShapeKey(t.conf.table_name, select, conds, limit),
      [&] {
        std::vector<Value> ignored;
        return BuildSql(t.conf.table_name, select, conds, &ignored, limit);
      },
      params);
  if (!rs.ok()) return rs.status();

  for (Row& row : rs->rows) {
    auto e = std::make_shared<Edge>();
    e->src_id = ComposeField(t.src_v, layout, row);
    e->dst_id = ComposeField(t.dst_v, layout, row);
    e->label = t.conf.label.fixed
                   ? t.conf.label.value
                   : row[layout.PosOf(*t.label_column)].ToString();
    if (t.conf.implicit_edge_id) {
      e->id = Value(e->src_id.ToString() + kIdSeparator + e->label +
                    kIdSeparator + e->dst_id.ToString());
    } else {
      e->id = ComposeField(t.id, layout, row);
    }
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
    if (plan.client_filter && !MatchesEdgeSpec(*e, spec)) continue;
    out->push_back(std::move(e));
  }
  return Status::OK();
}

}  // namespace

Status Db2GraphProvider::Edges(const LookupSpec& spec,
                               std::vector<EdgePtr>* out) {
  return EdgesOnTables(spec, {}, out);
}

Status Db2GraphProvider::EdgesOnTables(const LookupSpec& spec,
                                       const std::vector<int>& tables,
                                       std::vector<EdgePtr>* out) {
  struct Job {
    int table_index;
    EdgePlan plan;
  };
  QueryTrace* trace = CurrentTrace();
  std::vector<Job> jobs;
  for (size_t ti = 0; ti < topology_.edge_tables().size(); ++ti) {
    if (!tables.empty() &&
        std::find(tables.begin(), tables.end(), static_cast<int>(ti)) ==
            tables.end()) {
      continue;
    }
    const ResolvedEdgeTable& t = topology_.edge_tables()[ti];
    EdgePlan plan = PlanEdgeTable(t, spec, options_);
    if (plan.skip) {
      stats_.edge_tables_pruned.fetch_add(1, std::memory_order_relaxed);
      if (trace != nullptr) trace->AddTablePruned(t.conf.table_name);
      continue;
    }
    stats_.edge_tables_queried.fetch_add(1, std::memory_order_relaxed);
    if (trace != nullptr) trace->AddTableConsulted(t.conf.table_name);
    jobs.push_back(Job{static_cast<int>(ti), std::move(plan)});
  }

  // Edge order matters downstream (per-source emission order in the
  // interpreter), so per-job slots are merged in table order.
  std::vector<std::vector<EdgePtr>> slots(jobs.size());
  std::vector<Status> statuses(jobs.size(), Status::OK());
  ExecuteJobs(jobs.size(), [&](size_t j) {
    statuses[j] = FetchEdgeTable(
        dialect_, topology_.edge_tables()[jobs[j].table_index],
        jobs[j].table_index, spec, jobs[j].plan, &slots[j]);
  });
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  for (auto& slot : slots) {
    for (EdgePtr& e : slot) out->push_back(std::move(e));
  }
  return Status::OK();
}

Result<Value> Db2GraphProvider::AggregateEdges(const LookupSpec& spec) {
  return AggregateEdgesOnTables(spec, {});
}

Result<Value> Db2GraphProvider::AggregateEdgesOnTables(
    const LookupSpec& spec, const std::vector<int>& tables) {
  if (spec.agg == AggOp::kNone) {
    return Status::Unsupported("no aggregate in spec");
  }
  struct Job {
    int table_index;
    EdgePlan plan;
    std::string select;
  };
  QueryTrace* trace = CurrentTrace();
  std::vector<Job> jobs;
  for (size_t ti = 0; ti < topology_.edge_tables().size(); ++ti) {
    if (!tables.empty() &&
        std::find(tables.begin(), tables.end(), static_cast<int>(ti)) ==
            tables.end()) {
      continue;
    }
    const ResolvedEdgeTable& t = topology_.edge_tables()[ti];
    EdgePlan plan = PlanEdgeTable(t, spec, options_);
    if (plan.client_filter) {
      return Status::Unsupported("aggregate needs client-side filtering");
    }
    if (plan.skip) {
      stats_.edge_tables_pruned.fetch_add(1, std::memory_order_relaxed);
      if (trace != nullptr) trace->AddTablePruned(t.conf.table_name);
      continue;
    }
    std::string agg_column;
    if (spec.agg != AggOp::kCount || !spec.agg_key.empty()) {
      bool found = false;
      for (size_t i = 0; i < t.properties.size(); ++i) {
        if (EqualsIgnoreCase(t.properties[i], spec.agg_key)) {
          agg_column = t.schema->columns[t.property_columns[i]].name;
          found = true;
          break;
        }
      }
      if (!found) continue;
    }
    stats_.edge_tables_queried.fetch_add(1, std::memory_order_relaxed);
    if (trace != nullptr) trace->AddTableConsulted(t.conf.table_name);
    std::string select;
    switch (spec.agg) {
      case AggOp::kCount:
        select = agg_column.empty() ? "COUNT(*)"
                                    : "COUNT(\"" + agg_column + "\")";
        break;
      case AggOp::kSum:
      case AggOp::kMean:
        select = "SUM(\"" + agg_column + "\"), COUNT(\"" + agg_column + "\")";
        break;
      case AggOp::kMin:
        select = "MIN(\"" + agg_column + "\")";
        break;
      case AggOp::kMax:
        select = "MAX(\"" + agg_column + "\")";
        break;
      case AggOp::kNone:
        return Status::Internal("unreachable");
    }
    jobs.push_back(Job{static_cast<int>(ti), std::move(plan),
                       std::move(select)});
  }

  struct Partial {
    Status status = Status::OK();
    bool has_row = false;
    Row row;
  };
  std::vector<Partial> partials(jobs.size());
  ExecuteJobs(jobs.size(), [&](size_t j) {
    const ResolvedEdgeTable& t = topology_.edge_tables()[jobs[j].table_index];
    std::vector<Value> params;
    CollectParams(jobs[j].plan.conds, &params);
    dialect_->RecordPattern(t.conf.table_name, jobs[j].plan.predicate_columns);
    Result<sql::ResultSet> rs = dialect_->QueryShaped(
        ShapeKey(t.conf.table_name, jobs[j].select, jobs[j].plan.conds),
        [&] {
          std::vector<Value> ignored;
          return BuildSql(t.conf.table_name, jobs[j].select,
                          jobs[j].plan.conds, &ignored);
        },
        params);
    if (!rs.ok()) {
      partials[j].status = rs.status();
      return;
    }
    if (!rs->rows.empty()) {
      partials[j].has_row = true;
      partials[j].row = std::move(rs->rows[0]);
    }
  });

  int64_t total_count = 0;
  double total_sum = 0;
  bool sum_is_int = true;
  int64_t total_isum = 0;
  Value min_v;
  Value max_v;
  for (Partial& partial : partials) {
    if (!partial.status.ok()) return partial.status;
    if (!partial.has_row) continue;
    const Row& row = partial.row;
    switch (spec.agg) {
      case AggOp::kCount:
        total_count += row[0].is_null() ? 0 : row[0].as_int();
        break;
      case AggOp::kSum:
      case AggOp::kMean:
        if (!row[0].is_null()) {
          total_sum += row[0].NumericValue();
          if (row[0].is_int()) {
            total_isum += row[0].as_int();
          } else {
            sum_is_int = false;
          }
          total_count += row[1].as_int();
        }
        break;
      case AggOp::kMin:
        if (!row[0].is_null() && (min_v.is_null() || row[0] < min_v)) {
          min_v = row[0];
        }
        break;
      case AggOp::kMax:
        if (!row[0].is_null() && (max_v.is_null() || row[0] > max_v)) {
          max_v = row[0];
        }
        break;
      case AggOp::kNone:
        break;
    }
  }
  switch (spec.agg) {
    case AggOp::kCount:
      return Value(total_count);
    case AggOp::kSum:
      if (total_count == 0) return Value::Null();
      return sum_is_int ? Value(total_isum) : Value(total_sum);
    case AggOp::kMean:
      if (total_count == 0) return Value::Null();
      return Value(total_sum / static_cast<double>(total_count));
    case AggOp::kMin:
      return min_v;
    case AggOp::kMax:
      return max_v;
    case AggOp::kNone:
      break;
  }
  return Status::Internal("unreachable");
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
    return EdgesOnTables(edge_spec, candidates, out);
  }
  if (dir == Direction::kIn) {
    edge_spec.dst_ids = ids;
    return EdgesOnTables(edge_spec, candidates, out);
  }
  edge_spec.src_ids = ids;
  DB2G_RETURN_NOT_OK(EdgesOnTables(edge_spec, candidates, out));
  edge_spec.src_ids.clear();
  edge_spec.dst_ids = ids;
  std::vector<EdgePtr> in_edges;
  DB2G_RETURN_NOT_OK(EdgesOnTables(edge_spec, candidates, &in_edges));
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

  // Partition endpoint ids by the vertex table they are pinned to.
  std::unordered_map<int, std::vector<Value>> pinned;  // vertex table -> ids
  std::vector<Value> unpinned;
  std::unordered_set<Value, ValueHash> seen;

  auto classify = [&](const EdgePtr& e, bool source_side) -> bool {
    const Value& id = source_side ? e->src_id : e->dst_id;
    if (!seen.insert(id).second) return true;  // already handled
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
          VertexPtr v = MaterializeVertex(vertex_table, prov->row);
          if (gremlin::MatchesSpec(*v, spec)) {
            out->push_back(std::move(v));
          }
          stats_.shortcut_vertices.fetch_add(1, std::memory_order_relaxed);
          if (QueryTrace* trace = CurrentTrace()) {
            trace->AddShortcutVertices(1);
          }
          return true;
        }
      }
    }
    if (cache_on) {
      std::vector<VertexPtr> cached;
      if (cache_->Get(id, epoch, &cached)) {
        stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
        if (QueryTrace* trace = CurrentTrace()) trace->AddCacheHit();
        for (VertexPtr& v : cached) {
          if (gremlin::MatchesSpec(*v, cached_check)) {
            out->push_back(std::move(v));
          }
        }
        return true;
      }
      stats_.cache_misses.fetch_add(1, std::memory_order_relaxed);
      if (QueryTrace* trace = CurrentTrace()) trace->AddCacheMiss();
    }
    if (vertex_table >= 0) {
      pinned[vertex_table].push_back(id);
    } else {
      unpinned.push_back(id);
    }
    return true;
  };

  for (const EdgePtr& e : edges) {
    if (endpoint == Direction::kOut || endpoint == Direction::kBoth) {
      classify(e, /*source_side=*/true);
    }
    if (endpoint == Direction::kIn || endpoint == Direction::kBoth) {
      classify(e, /*source_side=*/false);
    }
  }

  // One job per pinned vertex table, in table-index order so the merge
  // (and any trace) is deterministic under fan-out.
  struct Job {
    int vertex_table;
    LookupSpec vertex_spec;
    VertexPlan plan;
  };
  std::vector<std::pair<int, std::vector<Value>>> groups(pinned.begin(),
                                                         pinned.end());
  std::sort(groups.begin(), groups.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Job> jobs;
  for (auto& [vertex_table, ids] : groups) {
    LookupSpec vertex_spec = spec;
    vertex_spec.ids = std::move(ids);
    // Query exactly the pinned table.
    const ResolvedVertexTable& t = topology_.vertex_tables()[vertex_table];
    VertexPlan plan = PlanVertexTable(t, vertex_spec, options_);
    if (plan.skip) {
      stats_.vertex_tables_pruned.fetch_add(1, std::memory_order_relaxed);
      if (QueryTrace* trace = CurrentTrace()) {
        trace->AddTablePruned(t.conf.table_name);
      }
      continue;
    }
    stats_.vertex_tables_queried.fetch_add(1, std::memory_order_relaxed);
    if (QueryTrace* trace = CurrentTrace()) {
      trace->AddTableConsulted(t.conf.table_name);
    }
    jobs.push_back(Job{vertex_table, std::move(vertex_spec), std::move(plan)});
  }

  std::vector<std::vector<VertexPtr>> slots(jobs.size());
  std::vector<Status> statuses(jobs.size(), Status::OK());
  ExecuteJobs(jobs.size(), [&](size_t j) {
    statuses[j] = FetchVertexTable(
        dialect_, topology_.vertex_tables()[jobs[j].vertex_table],
        jobs[j].vertex_table, jobs[j].vertex_spec, jobs[j].plan, &slots[j]);
  });
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  for (auto& slot : slots) {
    for (VertexPtr& v : slot) out->push_back(std::move(v));
  }

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
                          const EdgePlan& first_plan, JoinChainPlan* out) {
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
    EdgePlan ep = h == 0 ? first_plan
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
    VertexPlan vp = PlanVertexTable(vt, hop.vertex_spec, options);
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

/// The edge id FetchEdgeTable would assign for this edge row.
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
    EdgePlan ep = PlanEdgeTable(et, espec, options_);
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

Status Db2GraphProvider::ExplainVertices(const LookupSpec& spec,
                                         std::vector<SqlPreview>* out) const {
  for (size_t ti = 0; ti < topology_.vertex_tables().size(); ++ti) {
    const ResolvedVertexTable& t = topology_.vertex_tables()[ti];
    VertexPlan plan = PlanVertexTable(t, spec, options_);
    SqlPreview preview;
    preview.table = t.conf.table_name;
    const sql::Table* base = dialect_->db()->GetTable(t.conf.table_name);
    preview.estimated_rows = base != nullptr ? base->row_count() : 0;
    if (plan.skip) {
      preview.pruned = true;
      preview.access_path = "pruned";
      out->push_back(std::move(preview));
      continue;
    }
    const sql::TableSchema& schema = *t.schema;
    std::vector<size_t> cols;
    if (plan.client_filter) {
      for (size_t i = 0; i < schema.columns.size(); ++i) cols.push_back(i);
    } else {
      cols = VertexFetchColumns(t, spec);
    }
    FetchLayout layout = MakeLayout(schema, std::move(cols));
    std::vector<Value> params;
    QueryConds conds = plan.client_filter ? QueryConds{} : plan.conds;
    std::string sql = BuildSql(t.conf.table_name,
                               SelectListFor(schema, layout), conds, &params,
                               plan.client_filter ? -1 : spec.limit);
    preview.sql = SqlDialect::RenderSql(sql, params);
    preview.access_path =
        PredictAccessPath(dialect_->db(), t.conf.table_name, conds);
    out->push_back(std::move(preview));
  }
  return Status::OK();
}

Status Db2GraphProvider::ExplainEdges(const LookupSpec& spec,
                                      std::vector<SqlPreview>* out) const {
  for (size_t ti = 0; ti < topology_.edge_tables().size(); ++ti) {
    const ResolvedEdgeTable& t = topology_.edge_tables()[ti];
    EdgePlan plan = PlanEdgeTable(t, spec, options_);
    SqlPreview preview;
    preview.table = t.conf.table_name;
    const sql::Table* base = dialect_->db()->GetTable(t.conf.table_name);
    preview.estimated_rows = base != nullptr ? base->row_count() : 0;
    if (plan.skip) {
      preview.pruned = true;
      preview.access_path = "pruned";
      out->push_back(std::move(preview));
      continue;
    }
    const sql::TableSchema& schema = *t.schema;
    std::vector<size_t> cols;
    if (plan.client_filter) {
      for (size_t i = 0; i < schema.columns.size(); ++i) cols.push_back(i);
    } else {
      cols = EdgeFetchColumns(t, spec);
    }
    FetchLayout layout = MakeLayout(schema, std::move(cols));
    std::vector<Value> params;
    QueryConds conds = plan.client_filter ? QueryConds{} : plan.conds;
    std::string sql = BuildSql(t.conf.table_name,
                               SelectListFor(schema, layout), conds, &params,
                               plan.client_filter ? -1 : spec.limit);
    preview.sql = SqlDialect::RenderSql(sql, params);
    preview.access_path =
        PredictAccessPath(dialect_->db(), t.conf.table_name, conds);
    out->push_back(std::move(preview));
  }
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
    EdgePlan ep = PlanEdgeTable(et, first.edge_spec, options_);
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
