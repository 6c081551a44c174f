// Copyright (c) 2026 The db2graph-repro Authors.
//
// ExecConfig: the one execution-tuning and governance surface. Every
// setting a query runs under — degree of parallelism, vectorized and
// streaming execution, block size, profiling, and the workload
// governor's three limits — is one field of one immutable, builder-style
// value:
//
//   ExecConfig cfg = ExecConfig().parallelism(4).timeout_ms(500);
//
// Each field is tri-state: explicitly set, or unset ("inherit"). A query
// resolves its effective config by overlaying, in order:
//
//   engine defaults <- ExecConfig::ProcessDefault() <- session config
//       (Database::SetExecConfig / Db2Graph::Options::exec) <- per-call
//       ExecOptions::config (GremlinService::Options::exec for service
//       requests)
//
// ...so an unset field at one layer falls through to the layer below.
// The per-query result travels thread-locally via ScopedExecConfig (the
// same propagation model as ScopedTrace / ScopedQueryContext), which is
// how a Gremlin execution's config reaches the SQL compiles it issues
// deep inside the provider without signature plumbing.
//
// Governor limits (timeout / result rows / memory bytes): 0 leaves the
// field unset, so it inherits from the layer below; a negative value
// makes that layer unlimited; a positive value is the limit. The
// resolved getters report the effective limit, 0 meaning none.

#ifndef DB2GRAPH_COMMON_EXEC_CONFIG_H_
#define DB2GRAPH_COMMON_EXEC_CONFIG_H_

#include <cstddef>
#include <cstdint>

namespace db2graph {

class ExecConfig {
 public:
  /// Engine defaults, applied when every layer leaves a field unset.
  static constexpr int kDefaultParallelism = 1;
  static constexpr bool kDefaultVectorized = true;
  static constexpr bool kDefaultStreaming = true;
  static constexpr bool kDefaultProfile = false;

  ExecConfig() = default;

  // ---- builders (return a modified copy; *this is never mutated) ----

  /// Degree of intra-query parallelism: number of concurrent morsel
  /// workers for eligible scans, hash-join builds, and barrier drains,
  /// and of per-table statements a multi-table graph lookup runs at once
  /// on the shared pool. 1 = serial throughout (the default: no pool
  /// batch is submitted); values are clamped to [1, 64] on set.
  ExecConfig parallelism(int dop) const {
    ExecConfig c = *this;
    c.parallelism_ = dop < 1 ? 1 : (dop > 64 ? 64 : dop);
    c.has_parallelism_ = true;
    return c;
  }
  /// Column-at-a-time SQL execution for eligible single-table scans.
  ExecConfig vectorized(bool on) const {
    ExecConfig c = *this;
    c.vectorized_ = on;
    c.has_vectorized_ = true;
    return c;
  }
  /// Streaming (block-at-a-time) Gremlin execution.
  ExecConfig streaming(bool on) const {
    ExecConfig c = *this;
    c.streaming_ = on;
    c.has_streaming_ = true;
    return c;
  }
  /// Collect per-operator profiles for every statement (EXPLAIN ANALYZE
  /// collects them per-statement regardless).
  ExecConfig profile(bool on) const {
    ExecConfig c = *this;
    c.profile_ = on;
    c.has_profile_ = true;
    return c;
  }
  /// Rows (or traversers) per execution block; 0 = engine default.
  ExecConfig block_rows(size_t rows) const {
    ExecConfig c = *this;
    c.block_rows_ = rows;
    c.has_block_rows_ = true;
    return c;
  }
  /// Governor limits: 0 = unset (inherit the layer below), negative =
  /// unlimited, positive = the limit.
  ExecConfig timeout_ms(int64_t ms) const {
    ExecConfig c = *this;
    c.timeout_ms_ = ms;
    c.has_timeout_ms_ = ms != 0;
    return c;
  }
  ExecConfig max_result_rows(int64_t rows) const {
    ExecConfig c = *this;
    c.max_result_rows_ = rows;
    c.has_max_result_rows_ = rows != 0;
    return c;
  }
  ExecConfig max_memory_bytes(int64_t bytes) const {
    ExecConfig c = *this;
    c.max_memory_bytes_ = bytes;
    c.has_max_memory_bytes_ = bytes != 0;
    return c;
  }

  // ---- getters (resolved against the engine defaults when unset) ----

  int parallelism() const {
    return has_parallelism_ ? parallelism_ : kDefaultParallelism;
  }
  bool vectorized() const {
    return has_vectorized_ ? vectorized_ : kDefaultVectorized;
  }
  bool streaming() const {
    return has_streaming_ ? streaming_ : kDefaultStreaming;
  }
  bool profile() const { return has_profile_ ? profile_ : kDefaultProfile; }
  /// 0 = caller should use its own engine default.
  size_t block_rows() const { return has_block_rows_ ? block_rows_ : 0; }
  /// Effective governor limits; 0 = none (unset or negative).
  int64_t timeout_ms() const { return Limit(timeout_ms_); }
  int64_t max_result_rows() const { return Limit(max_result_rows_); }
  int64_t max_memory_bytes() const { return Limit(max_memory_bytes_); }

  // ---- tri-state inspection ----

  bool has_parallelism() const { return has_parallelism_; }
  bool has_vectorized() const { return has_vectorized_; }
  bool has_streaming() const { return has_streaming_; }
  bool has_profile() const { return has_profile_; }
  bool has_block_rows() const { return has_block_rows_; }
  bool has_timeout_ms() const { return has_timeout_ms_; }
  bool has_max_result_rows() const { return has_max_result_rows_; }
  bool has_max_memory_bytes() const { return has_max_memory_bytes_; }

  /// Layered resolution: every field `overrides` set wins; unset fields
  /// keep this config's state (set or unset).
  ExecConfig OverlaidBy(const ExecConfig& overrides) const;

  /// The process-wide default layer, seeded once from the environment
  /// (DB2G_PARALLELISM, DB2G_VECTORIZED, DB2G_STREAMING,
  /// DB2G_QUERY_TIMEOUT_MS, DB2G_MAX_RESULT_ROWS, DB2G_MAX_MEMORY_BYTES)
  /// and adjustable at runtime. Thread-safe.
  static ExecConfig ProcessDefault();
  static void SetProcessDefault(const ExecConfig& config);

  /// The per-query config installed on this thread (fully resolved by the
  /// installer); defaults-everything when no scope is active.
  static ExecConfig Current();

 private:
  friend class ScopedExecConfig;

  static int64_t Limit(int64_t value) { return value > 0 ? value : 0; }

  int parallelism_ = kDefaultParallelism;
  bool vectorized_ = kDefaultVectorized;
  bool streaming_ = kDefaultStreaming;
  bool profile_ = kDefaultProfile;
  size_t block_rows_ = 0;
  int64_t timeout_ms_ = 0;
  int64_t max_result_rows_ = 0;
  int64_t max_memory_bytes_ = 0;

  bool has_parallelism_ = false;
  bool has_vectorized_ = false;
  bool has_streaming_ = false;
  bool has_profile_ = false;
  bool has_block_rows_ = false;
  bool has_timeout_ms_ = false;
  bool has_max_result_rows_ = false;
  bool has_max_memory_bytes_ = false;
};

/// RAII installer of the thread's per-query ExecConfig; saves and
/// restores the previous one so nested executions (graphQuery inside a
/// SELECT) compose — the same contract as ScopedQueryContext.
class ScopedExecConfig {
 public:
  explicit ScopedExecConfig(const ExecConfig& config);
  ~ScopedExecConfig();
  ScopedExecConfig(const ScopedExecConfig&) = delete;
  ScopedExecConfig& operator=(const ScopedExecConfig&) = delete;

 private:
  const ExecConfig* previous_;
  ExecConfig config_;
};

}  // namespace db2graph

#endif  // DB2GRAPH_COMMON_EXEC_CONFIG_H_
