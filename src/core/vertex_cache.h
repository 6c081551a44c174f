// Copyright (c) 2026 The db2graph-repro Authors.
//
// A sharded, size-bounded LRU cache for vertex-by-id lookups — the
// g.V(id) / edge-endpoint-resolution hot path. LinkBench-style workloads
// are Zipfian, so a small cache of fully-materialized hot vertices avoids
// the dominant cost of a lookup on multi-vertex-table overlays: one SQL
// statement per candidate table.
//
// An entry is the *complete* answer for one vertex id — every vertex in
// the overlay carrying that id (usually one; an empty vector is a valid
// "no such vertex" answer). Completeness is the caller's contract: only
// fetches that consulted every table that could hold the id may Put.
// Label/predicate-restricted lookups can still be *served* from a
// complete entry by filtering client-side.
//
// Invalidation is lazy via sql::Database::write_epoch(): entries are
// tagged with the epoch observed before their fetch and discarded on Get
// when the tag no longer matches the current epoch, so any committed
// write flushes the cache without a cross-layer callback.

#ifndef DB2GRAPH_CORE_VERTEX_CACHE_H_
#define DB2GRAPH_CORE_VERTEX_CACHE_H_

#include <array>
#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/value.h"
#include "gremlin/graph_api.h"

namespace db2graph::core {

class VertexCache {
 public:
  /// Max cached ids across all shards.
  static constexpr size_t kCapacity = 65536;
  /// Lock-striping granularity.
  static constexpr size_t kShards = 8;

  VertexCache() = default;

  VertexCache(const VertexCache&) = delete;
  VertexCache& operator=(const VertexCache&) = delete;

  /// Returns true and fills *out when a current-epoch entry for `id`
  /// exists (an empty *out is a cached "no such vertex"). A stale entry
  /// is erased and reported as a miss.
  bool Get(const Value& id, uint64_t epoch,
           std::vector<gremlin::VertexPtr>* out);

  /// Stores the complete vertex set for `id` as observed at `epoch`
  /// (the database write epoch read *before* the fetch). Replaces any
  /// existing entry; evicts least-recently-used ids beyond capacity.
  void Put(const Value& id, std::vector<gremlin::VertexPtr> vertices,
           uint64_t epoch);

  /// Current number of cached ids (approximate under concurrency).
  size_t ApproxEntries() const;

 private:
  struct Entry {
    Value id;
    std::vector<gremlin::VertexPtr> vertices;
    uint64_t epoch = 0;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<Value, std::list<Entry>::iterator, ValueHash> index;
  };

  Shard& ShardFor(const Value& id);

  std::array<Shard, kShards> shards_;
};

}  // namespace db2graph::core

#endif  // DB2GRAPH_CORE_VERTEX_CACHE_H_
