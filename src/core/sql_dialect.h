// Copyright (c) 2026 The db2graph-repro Authors.
//
// The SQL Dialect module (paper Section 6.1): everything Db2-facing.
// It executes the SQL the Graph Structure module generates, keeps one cache
// of pre-compiled statement templates keyed by query shape, tracks frequent
// query patterns, and suggests indexes that would speed the translated
// queries up.

#ifndef DB2GRAPH_CORE_SQL_DIALECT_H_
#define DB2GRAPH_CORE_SQL_DIALECT_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "sql/database.h"

namespace db2graph::core {

class SqlDialect;

/// A live streaming query handed out by SqlDialect::QueryShapedStreaming:
/// wraps the database RowStream and, when a QueryTrace is installed, files
/// the statement's SqlTraceRecord once — when the stream is exhausted or
/// closed — so a short-circuited query reports the rows it actually
/// scanned, not the full materialized cost.
class DialectRowStream : public sql::RowSource {
 public:
  ~DialectRowStream() override;
  bool Next(sql::RowBlock* out) override;
  void Close() override;

  const Status& status() const { return stream_->status(); }

 private:
  friend class SqlDialect;
  DialectRowStream(std::unique_ptr<sql::RowStream> stream, QueryTrace* trace,
                   std::string sql, std::vector<Value> params,
                   uint64_t start_micros);
  void FileRecord();

  std::unique_ptr<sql::RowStream> stream_;
  QueryTrace* trace_;  // nullptr when untraced
  // Statement text and parameters for the trace record (traced only).
  std::string sql_;
  std::vector<Value> params_;
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

  /// Registry metric names for the statement cache's hits and misses.
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

  /// Executes a query identified by its *shape*: `build_sql` runs only
  /// the first time `shape_key` is seen; the produced SQL text is
  /// prepared once and cached with its compiled statement template (the
  /// pre-compiled SQL templates of Section 6.1), so steady-state
  /// execution of a repeated query shape skips string assembly and
  /// parsing entirely — per-execution values arrive through `params`.
  /// Callers must guarantee the key uniquely determines the text
  /// `build_sql` would produce.
  Result<sql::ResultSet> QueryShaped(
      const std::string& shape_key,
      const std::function<std::string()>& build_sql,
      const std::vector<Value>& params);

  /// Streaming variant of QueryShaped(): returns a live block stream
  /// instead of a materialized result. See sql::RowStream for
  /// lock/lifetime rules.
  Result<std::unique_ptr<DialectRowStream>> QueryShapedStreaming(
      const std::string& shape_key,
      const std::function<std::string()>& build_sql,
      const std::vector<Value>& params,
      size_t block_rows = sql::kDefaultBlockRows);

  /// Executes a parameterized SELECT given as text, through the same
  /// statement cache (keyed by the text itself).
  Result<sql::ResultSet> Query(const std::string& sql,
                               const std::vector<Value>& params);

  /// Records that a query against `table` constrained these columns.
  void RecordPattern(const std::string& table,
                     std::vector<std::string> predicate_columns);

  /// Renders a parameterized statement with '?' placeholders substituted
  /// by SQL literals (trace/EXPLAIN display; never executed). Parameters
  /// in [unbound_begin, unbound_end) — values Explain cannot know because
  /// they bind at execution — stay '?'.
  static std::string RenderSql(const std::string& sql,
                               const std::vector<Value>& params,
                               size_t unbound_begin = 0,
                               size_t unbound_end = 0);

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
    trace_.clear();
    trace_enabled_.store(true, std::memory_order_relaxed);
  }
  /// Returns and clears the trace.
  std::vector<std::string> TakeTrace() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out = std::move(trace_);
    trace_.clear();
    return out;
  }

  uint64_t queries_issued() const { return queries_issued_.load(); }
  /// Statement-cache lookups answered from (hits) or added to (misses)
  /// the cache.
  uint64_t skeleton_cache_hits() const { return skeleton_hits_.load(); }
  uint64_t skeleton_cache_misses() const { return skeleton_misses_.load(); }
  void ResetCounters() {
    queries_issued_ = 0;
    skeleton_hits_ = 0;
    skeleton_misses_ = 0;
  }

 private:
  /// One cached statement: the SQL text a shape renders to and its
  /// prepared template. Immutable once cached; handed out shared so a hit
  /// copies no text.
  struct CachedStatement {
    std::string sql;
    sql::PreparedStatement prepared;
  };

  /// The statement cached under `key`, preparing and caching the text
  /// `build_sql` produces on a miss. A hit takes the cache lock once.
  Result<std::shared_ptr<const CachedStatement>> Lookup(
      const std::string& key, const std::function<std::string()>& build_sql);

  /// Counts one issued statement and files it in the dialect trace when
  /// that is enabled.
  void NoteIssued(const std::string& sql, const std::vector<Value>& params);

  sql::Database* db_;

  mutable std::mutex mutex_;
  /// Shape key -> cached statement. Query()'s text-keyed statements live
  /// in the same map under a NUL-byte prefix no shape key starts with.
  std::unordered_map<std::string, std::shared_ptr<const CachedStatement>>
      statements_;
  std::map<std::pair<std::string, std::vector<std::string>>, uint64_t>
      pattern_counts_;

  std::atomic<uint64_t> queries_issued_{0};
  std::atomic<uint64_t> skeleton_hits_{0};
  std::atomic<uint64_t> skeleton_misses_{0};
  metrics::Counter* registry_skeleton_hits_;
  metrics::Counter* registry_skeleton_misses_;

  std::atomic<bool> trace_enabled_{false};
  std::vector<std::string> trace_;
};

}  // namespace db2graph::core

#endif  // DB2GRAPH_CORE_SQL_DIALECT_H_
