#include "core/vertex_cache.h"

#include <utility>

namespace db2graph::core {

VertexCache::Shard& VertexCache::ShardFor(const Value& id) {
  return shards_[id.Hash() % kShards];
}

bool VertexCache::Get(const Value& id, uint64_t epoch,
                      std::vector<gremlin::VertexPtr>* out) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(id);
  if (it == shard.index.end()) return false;
  if (it->second->epoch != epoch) {
    shard.lru.erase(it->second);
    shard.index.erase(it);
    return false;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  *out = it->second->vertices;
  return true;
}

void VertexCache::Put(const Value& id, std::vector<gremlin::VertexPtr> vertices,
                      uint64_t epoch) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(id);
  if (it != shard.index.end()) {
    it->second->vertices = std::move(vertices);
    it->second->epoch = epoch;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(Entry{id, std::move(vertices), epoch});
  shard.index[id] = shard.lru.begin();
  while (shard.lru.size() > kCapacity / kShards) {
    shard.index.erase(shard.lru.back().id);
    shard.lru.pop_back();
  }
}

size_t VertexCache::ApproxEntries() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.lru.size();
  }
  return total;
}

}  // namespace db2graph::core
