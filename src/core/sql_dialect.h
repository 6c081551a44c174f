// Copyright (c) 2026 The db2graph-repro Authors.
//
// The SQL Dialect module (paper Section 6.1): everything Db2-facing.
// It executes the SQL the Graph Structure module generates, keeps a cache
// of pre-compiled statement templates, tracks frequent query patterns, and
// suggests indexes that would speed the translated queries up.

#ifndef DB2GRAPH_CORE_SQL_DIALECT_H_
#define DB2GRAPH_CORE_SQL_DIALECT_H_

#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "sql/database.h"

namespace db2graph::core {

class SqlDialect;

/// A live streaming query handed out by SqlDialect::QueryStreaming: wraps
/// the database RowStream and, when a QueryTrace is installed, files the
/// statement's SqlTraceRecord once — when the stream is exhausted or
/// closed — so a short-circuited query reports the rows it actually
/// scanned, not the full materialized cost.
class DialectRowStream : public sql::RowSource {
 public:
  ~DialectRowStream() override;
  bool Next(sql::RowBlock* out) override;
  void Close() override;

  const std::vector<std::string>& columns() const {
    return stream_->columns();
  }
  const Status& status() const { return stream_->status(); }
  const sql::ExecInfo& exec() const { return stream_->exec(); }

 private:
  friend class SqlDialect;
  DialectRowStream(std::unique_ptr<sql::RowStream> stream, QueryTrace* trace,
                   SqlTraceRecord record, uint64_t start_micros);
  void FileRecord();

  std::unique_ptr<sql::RowStream> stream_;
  QueryTrace* trace_;  // nullptr when untraced
  SqlTraceRecord record_;
  uint64_t start_micros_;
  uint64_t rows_seen_ = 0;
  bool filed_ = false;
};

class SqlDialect {
 public:
  /// A (table, predicate-columns) pattern seen at least this many times
  /// is considered frequent and produces an index suggestion when no
  /// matching index exists.
  static constexpr uint64_t kFrequentPatternThreshold = 16;

  /// Registry metric names for the SQL-skeleton cache.
  static constexpr const char* kSkeletonHitsCounter =
      "sql_dialect.skeleton_hits";
  static constexpr const char* kSkeletonMissesCounter =
      "sql_dialect.skeleton_misses";

  explicit SqlDialect(sql::Database* db)
      : db_(db),
        registry_skeleton_hits_(metrics::MetricsRegistry::Global().GetCounter(
            kSkeletonHitsCounter)),
        registry_skeleton_misses_(
            metrics::MetricsRegistry::Global().GetCounter(
                kSkeletonMissesCounter)) {}

  sql::Database* db() const { return db_; }

  /// Executes a parameterized SELECT, preparing it on first use and
  /// reusing the compiled statement afterwards (the pre-compiled SQL
  /// template cache of Section 6.1).
  Result<sql::ResultSet> Query(const std::string& sql,
                               const std::vector<Value>& params);

  /// Executes a query identified by its *shape*: `build_sql` runs only
  /// the first time `shape_key` is seen and the produced SQL text is
  /// cached, so steady-state execution of a repeated query shape skips
  /// string assembly entirely — per-execution values arrive through
  /// `params`. The cached text then flows through Query(), reusing its
  /// compiled statement template as well. Callers must guarantee the key
  /// uniquely determines the text `build_sql` would produce.
  Result<sql::ResultSet> QueryShaped(
      const std::string& shape_key,
      const std::function<std::string()>& build_sql,
      const std::vector<Value>& params);

  /// Streaming variant of Query(): compiles (reusing the statement
  /// template cache) and returns a live block stream instead of a
  /// materialized result. See sql::RowStream for lock/lifetime rules.
  Result<std::unique_ptr<DialectRowStream>> QueryStreaming(
      const std::string& sql, const std::vector<Value>& params,
      size_t block_rows = sql::kDefaultBlockRows);

  /// Streaming variant of QueryShaped().
  Result<std::unique_ptr<DialectRowStream>> QueryShapedStreaming(
      const std::string& shape_key,
      const std::function<std::string()>& build_sql,
      const std::vector<Value>& params,
      size_t block_rows = sql::kDefaultBlockRows);

  /// Records that a query against `table` constrained these columns.
  void RecordPattern(const std::string& table,
                     std::vector<std::string> predicate_columns);

  /// Renders a parameterized statement with '?' placeholders substituted
  /// by SQL literals (trace/EXPLAIN display; never executed).
  static std::string RenderSql(const std::string& sql,
                               const std::vector<Value>& params);

  /// Index advisor output: frequent patterns that have no backing index.
  struct IndexSuggestion {
    std::string table;
    std::vector<std::string> columns;
    uint64_t occurrences = 0;
    /// CREATE INDEX statement implementing the suggestion.
    std::string ddl;
  };
  std::vector<IndexSuggestion> SuggestIndexes() const;

  // -- tracing ------------------------------------------------------------
  /// When enabled, records every executed statement with its parameters
  /// substituted (tests assert the exact SQL the graph layer generates).
  void EnableTrace() {
    std::lock_guard<std::mutex> lock(mutex_);
    trace_enabled_ = true;
    trace_.clear();
  }
  /// Returns and clears the trace.
  std::vector<std::string> TakeTrace() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out = std::move(trace_);
    trace_.clear();
    return out;
  }

  uint64_t queries_issued() const { return queries_issued_.load(); }
  uint64_t template_cache_hits() const { return cache_hits_.load(); }
  uint64_t template_cache_misses() const { return cache_misses_.load(); }
  uint64_t skeleton_cache_hits() const { return skeleton_hits_.load(); }
  uint64_t skeleton_cache_misses() const { return skeleton_misses_.load(); }
  void ResetCounters() {
    queries_issued_ = 0;
    cache_hits_ = 0;
    cache_misses_ = 0;
    skeleton_hits_ = 0;
    skeleton_misses_ = 0;
  }

 private:
  /// Query() minus the per-statement trace bookkeeping.
  Result<sql::ResultSet> QueryUntraced(const std::string& sql,
                                       const std::vector<Value>& params);

  /// Looks the statement up in (or inserts it into) the template cache.
  Result<sql::PreparedStatement> PrepareCached(const std::string& sql);

  sql::Database* db_;

  mutable std::mutex mutex_;
  std::unordered_map<std::string, sql::PreparedStatement> templates_;
  /// shape key -> generated SQL text (the skeleton).
  std::unordered_map<std::string, std::string> skeletons_;
  std::map<std::pair<std::string, std::vector<std::string>>, uint64_t>
      pattern_counts_;

  std::atomic<uint64_t> queries_issued_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
  std::atomic<uint64_t> skeleton_hits_{0};
  std::atomic<uint64_t> skeleton_misses_{0};
  metrics::Counter* registry_skeleton_hits_;
  metrics::Counter* registry_skeleton_misses_;

  bool trace_enabled_ = false;
  std::vector<std::string> trace_;
};

}  // namespace db2graph::core

#endif  // DB2GRAPH_CORE_SQL_DIALECT_H_
