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

// One trace record: the statement's table and rendered text, plus its
// execution counters when it ran (an error description when it failed).
SqlTraceRecord MakeTraceRecord(const std::string& sql,
                               const std::vector<Value>& params,
                               const Status& status,
                               const sql::ExecInfo& exec,
                               uint64_t rows_returned, uint64_t micros) {
  SqlTraceRecord record;
  record.table = TableFromSql(sql);
  record.sql = SqlDialect::RenderSql(sql, params);
  record.micros = micros;
  if (status.ok()) {
    record.access_path = exec.AccessPath();
    record.exec_mode = exec.ExecMode();
    record.rows_scanned = exec.rows_scanned;
    record.rows_returned = rows_returned;
    record.rows_emitted = exec.rows_emitted;
  } else {
    record.access_path = "error: " + status.ToString();
  }
  return record;
}

}  // namespace

std::string SqlDialect::RenderSql(const std::string& sql,
                                  const std::vector<Value>& params,
                                  size_t unbound_begin, size_t unbound_end) {
  std::string out;
  size_t next = 0;
  for (char c : sql) {
    if (c == '?' && next < params.size()) {
      const bool bound = next < unbound_begin || next >= unbound_end;
      out += bound ? params[next].ToSqlLiteral() : "?";
      ++next;
    } else {
      out += c;
    }
  }
  return out;
}

Result<std::shared_ptr<const SqlDialect::CachedStatement>> SqlDialect::Lookup(
    const std::string& key, const std::function<std::string()>& build_sql) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = statements_.find(key);
    if (it != statements_.end()) {
      skeleton_hits_.fetch_add(1, std::memory_order_relaxed);
      registry_skeleton_hits_->fetch_add(1);
      return it->second;
    }
  }
  skeleton_misses_.fetch_add(1, std::memory_order_relaxed);
  registry_skeleton_misses_->fetch_add(1);
  // Render and prepare outside the lock; a racing miss on the same key
  // keeps whichever entry landed first.
  std::string sql = build_sql();
  Result<sql::PreparedStatement> prepared = db_->Prepare(sql);
  if (!prepared.ok()) return prepared.status();
  auto entry = std::make_shared<const CachedStatement>(
      CachedStatement{std::move(sql), std::move(*prepared)});
  std::lock_guard<std::mutex> lock(mutex_);
  return statements_.emplace(key, std::move(entry)).first->second;
}

void SqlDialect::NoteIssued(const std::string& sql,
                            const std::vector<Value>& params) {
  queries_issued_.fetch_add(1, std::memory_order_relaxed);
  if (!trace_enabled_.load(std::memory_order_relaxed)) return;
  std::string rendered = RenderSql(sql, params);
  std::lock_guard<std::mutex> lock(mutex_);
  trace_.push_back(std::move(rendered));
}

Result<sql::ResultSet> SqlDialect::QueryShaped(
    const std::string& shape_key,
    const std::function<std::string()>& build_sql,
    const std::vector<Value>& params) {
  Result<std::shared_ptr<const CachedStatement>> stmt =
      Lookup(shape_key, build_sql);
  if (!stmt.ok()) return stmt.status();
  const std::string& sql = (*stmt)->sql;
  NoteIssued(sql, params);
  QueryTrace* query_trace = CurrentTrace();
  uint64_t start =
      query_trace != nullptr ? query_trace->clock()->NowMicros() : 0;
  // Execute outside the cache lock: statement execution takes database
  // locks and may run long.
  Result<sql::ResultSet> result = (*stmt)->prepared.Execute(params);
  if (query_trace != nullptr) {
    static const sql::ExecInfo kNoExec;
    query_trace->RecordSql(MakeTraceRecord(
        sql, params, result.status(), result.ok() ? result->exec : kNoExec,
        result.ok() ? result->rows.size() : 0,
        query_trace->clock()->NowMicros() - start));
  }
  return result;
}

Result<sql::ResultSet> SqlDialect::Query(const std::string& sql,
                                         const std::vector<Value>& params) {
  std::string key(1, '\0');
  key += sql;
  return QueryShaped(key, [&sql] { return sql; }, params);
}

DialectRowStream::DialectRowStream(std::unique_ptr<sql::RowStream> stream,
                                   QueryTrace* trace, std::string sql,
                                   std::vector<Value> params,
                                   uint64_t start_micros)
    : stream_(std::move(stream)),
      trace_(trace),
      sql_(std::move(sql)),
      params_(std::move(params)),
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
  trace_->RecordSql(MakeTraceRecord(sql_, params_, stream_->status(),
                                    stream_->exec(), rows_seen_,
                                    trace_->clock()->NowMicros() -
                                        start_micros_));
}

Result<std::unique_ptr<DialectRowStream>> SqlDialect::QueryShapedStreaming(
    const std::string& shape_key,
    const std::function<std::string()>& build_sql,
    const std::vector<Value>& params, size_t block_rows) {
  Result<std::shared_ptr<const CachedStatement>> stmt =
      Lookup(shape_key, build_sql);
  if (!stmt.ok()) return stmt.status();
  const std::string& sql = (*stmt)->sql;
  NoteIssued(sql, params);
  QueryTrace* query_trace = CurrentTrace();
  uint64_t start =
      query_trace != nullptr ? query_trace->clock()->NowMicros() : 0;
  Result<std::unique_ptr<sql::RowStream>> stream =
      (*stmt)->prepared.ExecuteStreaming(params, block_rows);
  if (!stream.ok()) {
    if (query_trace != nullptr) {
      query_trace->RecordSql(MakeTraceRecord(
          sql, params, stream.status(), sql::ExecInfo{}, 0,
          query_trace->clock()->NowMicros() - start));
    }
    return stream.status();
  }
  if (query_trace == nullptr) {
    return std::unique_ptr<DialectRowStream>(new DialectRowStream(
        std::move(*stream), nullptr, {}, {}, start));
  }
  return std::unique_ptr<DialectRowStream>(new DialectRowStream(
      std::move(*stream), query_trace, sql, params, start));
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
