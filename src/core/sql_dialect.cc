#include "core/sql_dialect.h"

#include <algorithm>

#include "common/strings.h"
#include "common/trace.h"

namespace db2graph::core {

namespace {

// Table name between FROM "..." for trace attribution; the graph layer
// only ever generates single-table statements of that shape.
std::string TableFromSql(const std::string& sql) {
  size_t from = sql.find(" FROM \"");
  if (from == std::string::npos) return "";
  // Multi-hop join statements list several tables: FROM "A" AS e0, "B" AS
  // v1, ... — label the trace record with the whole chain, '>'-joined.
  std::string tables;
  size_t begin = from + 7;
  while (true) {
    size_t end = sql.find('"', begin);
    if (end == std::string::npos) return tables;
    if (!tables.empty()) tables += '>';
    tables += sql.substr(begin, end - begin);
    size_t next = sql.find(", \"", end);
    if (next == std::string::npos) return tables;
    // Stop at the WHERE clause: a quoted column reference there would
    // otherwise read as another table.
    size_t where = sql.find(" WHERE ", end);
    if (where != std::string::npos && where < next) return tables;
    begin = next + 3;
  }
}

}  // namespace

std::string SqlDialect::RenderSql(const std::string& sql,
                                  const std::vector<Value>& params) {
  std::string out;
  size_t next = 0;
  for (char c : sql) {
    if (c == '?' && next < params.size()) {
      out += params[next++].ToSqlLiteral();
    } else {
      out += c;
    }
  }
  return out;
}

Result<sql::ResultSet> SqlDialect::Query(const std::string& sql,
                                         const std::vector<Value>& params) {
  queries_issued_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (trace_enabled_) trace_.push_back(RenderSql(sql, params));
  }
  QueryTrace* query_trace = CurrentTrace();
  uint64_t start = query_trace != nullptr
                       ? query_trace->clock()->NowMicros()
                       : 0;
  Result<sql::ResultSet> result = QueryUntraced(sql, params);
  if (query_trace != nullptr) {
    SqlTraceRecord record;
    record.table = TableFromSql(sql);
    record.sql = RenderSql(sql, params);
    record.micros = query_trace->clock()->NowMicros() - start;
    if (result.ok()) {
      record.access_path = result->exec.AccessPath();
      record.exec_mode = result->exec.ExecMode();
      record.rows_scanned = result->exec.rows_scanned;
      record.rows_returned = result->rows.size();
      record.rows_emitted = result->exec.rows_emitted;
    } else {
      record.access_path = "error: " + result.status().ToString();
    }
    query_trace->RecordSql(std::move(record));
  }
  return result;
}

Result<sql::ResultSet> SqlDialect::QueryShaped(
    const std::string& shape_key,
    const std::function<std::string()>& build_sql,
    const std::vector<Value>& params) {
  std::string sql;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = skeletons_.find(shape_key);
    if (it != skeletons_.end()) sql = it->second;
  }
  if (sql.empty()) {
    skeleton_misses_.fetch_add(1, std::memory_order_relaxed);
    registry_skeleton_misses_->fetch_add(1);
    sql = build_sql();
    std::lock_guard<std::mutex> lock(mutex_);
    skeletons_.emplace(shape_key, sql);
  } else {
    skeleton_hits_.fetch_add(1, std::memory_order_relaxed);
    registry_skeleton_hits_->fetch_add(1);
  }
  return Query(sql, params);
}

Result<sql::PreparedStatement> SqlDialect::PrepareCached(
    const std::string& sql) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = templates_.find(sql);
    if (it != templates_.end()) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;  // copy out of the lock: cheap shared handle
    }
  }
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  Result<sql::PreparedStatement> prepared = db_->Prepare(sql);
  if (!prepared.ok()) return prepared.status();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    templates_.emplace(sql, *prepared);
  }
  return prepared;
}

Result<sql::ResultSet> SqlDialect::QueryUntraced(
    const std::string& sql, const std::vector<Value>& params) {
  Result<sql::PreparedStatement> stmt = PrepareCached(sql);
  if (!stmt.ok()) return stmt.status();
  // Execute outside the cache lock: statement execution takes database
  // locks and may run long.
  return stmt->Execute(params);
}

DialectRowStream::DialectRowStream(std::unique_ptr<sql::RowStream> stream,
                                   QueryTrace* trace, SqlTraceRecord record,
                                   uint64_t start_micros)
    : stream_(std::move(stream)),
      trace_(trace),
      record_(std::move(record)),
      start_micros_(start_micros) {}

DialectRowStream::~DialectRowStream() { Close(); }

bool DialectRowStream::Next(sql::RowBlock* out) {
  bool ok = stream_->Next(out);
  if (ok) {
    rows_seen_ += out->rows.size();
  } else {
    FileRecord();  // exhausted (or failed): final counters are in
  }
  return ok;
}

void DialectRowStream::Close() {
  FileRecord();  // file *before* releasing: Close wipes the stream's plan
  stream_->Close();
}

void DialectRowStream::FileRecord() {
  if (trace_ == nullptr || filed_) return;
  filed_ = true;
  const sql::ExecInfo& exec = stream_->exec();
  record_.micros = trace_->clock()->NowMicros() - start_micros_;
  if (stream_->status().ok()) {
    record_.access_path = exec.AccessPath();
    record_.exec_mode = exec.ExecMode();
    record_.rows_scanned = exec.rows_scanned;
    record_.rows_returned = rows_seen_;
    record_.rows_emitted = exec.rows_emitted;
  } else {
    record_.access_path = "error: " + stream_->status().ToString();
  }
  trace_->RecordSql(std::move(record_));
}

Result<std::unique_ptr<DialectRowStream>> SqlDialect::QueryStreaming(
    const std::string& sql, const std::vector<Value>& params,
    size_t block_rows) {
  queries_issued_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (trace_enabled_) trace_.push_back(RenderSql(sql, params));
  }
  QueryTrace* query_trace = CurrentTrace();
  uint64_t start =
      query_trace != nullptr ? query_trace->clock()->NowMicros() : 0;
  Result<sql::PreparedStatement> stmt = PrepareCached(sql);
  if (!stmt.ok()) return stmt.status();
  Result<std::unique_ptr<sql::RowStream>> stream =
      stmt->ExecuteStreaming(params, block_rows);
  if (!stream.ok()) {
    if (query_trace != nullptr) {
      SqlTraceRecord record;
      record.table = TableFromSql(sql);
      record.sql = RenderSql(sql, params);
      record.access_path = "error: " + stream.status().ToString();
      record.micros = query_trace->clock()->NowMicros() - start;
      query_trace->RecordSql(std::move(record));
    }
    return stream.status();
  }
  SqlTraceRecord record;
  if (query_trace != nullptr) {
    record.table = TableFromSql(sql);
    record.sql = RenderSql(sql, params);
  }
  return std::unique_ptr<DialectRowStream>(new DialectRowStream(
      std::move(*stream), query_trace, std::move(record), start));
}

Result<std::unique_ptr<DialectRowStream>> SqlDialect::QueryShapedStreaming(
    const std::string& shape_key,
    const std::function<std::string()>& build_sql,
    const std::vector<Value>& params, size_t block_rows) {
  std::string sql;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = skeletons_.find(shape_key);
    if (it != skeletons_.end()) sql = it->second;
  }
  if (sql.empty()) {
    skeleton_misses_.fetch_add(1, std::memory_order_relaxed);
    registry_skeleton_misses_->fetch_add(1);
    sql = build_sql();
    std::lock_guard<std::mutex> lock(mutex_);
    skeletons_.emplace(shape_key, sql);
  } else {
    skeleton_hits_.fetch_add(1, std::memory_order_relaxed);
    registry_skeleton_hits_->fetch_add(1);
  }
  return QueryStreaming(sql, params, block_rows);
}

void SqlDialect::RecordPattern(const std::string& table,
                               std::vector<std::string> predicate_columns) {
  if (predicate_columns.empty()) return;
  // Sampled: pattern statistics do not need every query, and the map
  // update would otherwise sit on the per-query hot path.
  thread_local uint64_t counter = 0;
  if ((counter++ & 0x7) != 0) return;
  for (std::string& c : predicate_columns) c = ToLower(c);
  std::sort(predicate_columns.begin(), predicate_columns.end());
  predicate_columns.erase(
      std::unique(predicate_columns.begin(), predicate_columns.end()),
      predicate_columns.end());
  std::lock_guard<std::mutex> lock(mutex_);
  ++pattern_counts_[{ToLower(table), std::move(predicate_columns)}];
}

std::vector<SqlDialect::IndexSuggestion> SqlDialect::SuggestIndexes() const {
  std::vector<IndexSuggestion> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [key, count] : pattern_counts_) {
    if (count < kFrequentPatternThreshold) continue;
    const auto& [table, columns] = key;
    const sql::Table* base = db_->GetTable(table);
    if (base == nullptr) continue;  // views cannot be indexed
    // Resolve to column indexes; skip when an index already covers them.
    std::vector<size_t> idxs;
    bool resolvable = true;
    for (const std::string& c : columns) {
      auto idx = base->schema().ColumnIndex(c);
      if (!idx) {
        resolvable = false;
        break;
      }
      idxs.push_back(*idx);
    }
    if (!resolvable || base->FindIndexOn(idxs) != nullptr) continue;
    IndexSuggestion suggestion;
    suggestion.table = base->schema().name;
    for (size_t i : idxs) {
      suggestion.columns.push_back(base->schema().columns[i].name);
    }
    suggestion.occurrences = count;
    suggestion.ddl = "CREATE INDEX idx_" + suggestion.table + "_" +
                     Join(suggestion.columns, "_") + " ON " +
                     suggestion.table + " (" +
                     Join(suggestion.columns, ", ") + ")";
    out.push_back(std::move(suggestion));
  }
  std::sort(out.begin(), out.end(),
            [](const IndexSuggestion& a, const IndexSuggestion& b) {
              return a.occurrences > b.occurrences;
            });
  return out;
}

}  // namespace db2graph::core
