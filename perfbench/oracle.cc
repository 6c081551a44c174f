#include "oracle.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <map>
#include <utility>

namespace perfbench {

using db2graph::Value;
using db2graph::gremlin::Element;
using db2graph::gremlin::Traverser;
using db2graph::linkbench::Link;
using db2graph::linkbench::Node;

namespace {

// splitmix64 finalizer.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t Chain(uint64_t h, uint64_t v) { return Mix(h ^ v); }

/// Order-sensitive or order-insensitive accumulation of 64-bit hashes.
class Digest {
 public:
  void AddUnordered(uint64_t h) {
    sum_ += h;
    ++n_;
  }
  void AddOrdered(uint64_t h) {
    seq_ = Chain(seq_, h);
    ++n_;
  }
  uint64_t value() const { return Chain(Chain(Mix(n_), sum_), seq_); }

 private:
  uint64_t sum_ = 0;
  uint64_t seq_ = 0x9e3779b97f4a7c15ULL;
  uint64_t n_ = 0;
};

uint64_t HashInt(int64_t v) { return Mix(static_cast<uint64_t>(v)); }

uint64_t HashString(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return Mix(h);
}

uint64_t VertexHash(int64_t id, int type, int64_t version, int64_t time,
                    const std::string& data) {
  uint64_t h = Chain(HashInt(1), HashInt(id));
  h = Chain(h, HashInt(type));
  h = Chain(h, HashInt(version));
  h = Chain(h, HashInt(time));
  return Chain(h, HashString(data));
}

uint64_t EdgeHash(int64_t id1, int ltype, int64_t id2, int64_t visibility,
                  const std::string& data, int64_t time, int64_t version) {
  uint64_t h = Chain(HashInt(2), HashInt(id1));
  h = Chain(h, HashInt(ltype));
  h = Chain(h, HashInt(id2));
  h = Chain(h, HashInt(visibility));
  h = Chain(h, HashString(data));
  h = Chain(h, HashInt(time));
  return Chain(h, HashInt(version));
}

int Owner(int64_t id, int owners) {
  return static_cast<int>((id / 10) % owners);
}

constexpr int64_t kMissing = INT64_MIN;

int64_t IntProperty(const Element& e, const char* key) {
  const Value* v = e.FindProperty(key);
  if (v == nullptr) return kMissing;
  if (v->is_int()) return v->as_int();
  if (v->is_double()) return static_cast<int64_t>(std::llround(v->as_double()));
  return kMissing;
}

std::string StringProperty(const Element& e, const char* key) {
  const Value* v = e.FindProperty(key);
  return v != nullptr && v->is_string() ? v->as_string() : std::string("\x01");
}

int64_t AsInt(const Value& v) {
  if (v.is_int()) return v.as_int();
  if (v.is_double()) return static_cast<int64_t>(std::llround(v.as_double()));
  return kMissing;
}

// "vt3" / "et7" -> 3 / 7; -1 for anything else.
int LabelNumber(const std::string& label) {
  if (label.size() != 3 || label[1] != 't' || label[2] < '0' ||
      label[2] > '9') {
    return -1;
  }
  return label[2] - '0';
}

uint64_t ElementHash(const Traverser& t) {
  if (t.kind == Traverser::Kind::kVertex && t.vertex != nullptr) {
    const Element& v = *t.vertex;
    return VertexHash(AsInt(v.id), LabelNumber(v.label),
                      IntProperty(v, "version"), IntProperty(v, "time"),
                      StringProperty(v, "data"));
  }
  if (t.kind == Traverser::Kind::kEdge && t.edge != nullptr) {
    const auto& e = *t.edge;
    return EdgeHash(AsInt(e.src_id), LabelNumber(e.label), AsInt(e.dst_id),
                    IntProperty(e, "visibility"), StringProperty(e, "data"),
                    IntProperty(e, "time"), IntProperty(e, "version"));
  }
  return Mix(0xbadULL);
}

}  // namespace

uint64_t ScalarDigest(int64_t v) {
  Digest d;
  d.AddOrdered(HashInt(v));
  return d.value();
}

uint64_t DigestResult(const std::vector<Traverser>& out, Shape shape) {
  Digest d;
  switch (shape) {
    case Shape::kElementBag:
      for (const Traverser& t : out) d.AddUnordered(ElementHash(t));
      break;
    case Shape::kElementSeq:
      for (const Traverser& t : out) d.AddOrdered(ElementHash(t));
      break;
    case Shape::kScalar:
      for (const Traverser& t : out) {
        d.AddOrdered(t.kind == Traverser::Kind::kValue ? HashInt(AsInt(t.value))
                                                       : Mix(0xbadULL));
      }
      break;
    case Shape::kList:
      for (const Traverser& t : out) {
        if (t.kind != Traverser::Kind::kList) {
          d.AddOrdered(Mix(0xbadULL));
          continue;
        }
        for (const Value& v : t.list) d.AddOrdered(HashInt(AsInt(v)));
      }
      break;
  }
  return d.value();
}

// -- LinkModel --------------------------------------------------------------

LinkModel::LinkModel(const Dataset& dataset, int owner, int owners) {
  for (const Node& n : dataset.nodes) {
    if (Owner(n.id, owners) != owner) continue;
    node_ids_.push_back(n.id);
    nodes_[n.id] = NodeRec{n.version, n.time, n.data};
  }
  for (const Link& l : dataset.links) {
    if (Owner(l.id1, owners) != owner) continue;
    links_.push_back(&l);
    out_[Key(l.id1, l.ltype)].push_back(
        LinkRec{l.id2, l.visibility, l.time, l.version, l.data});
    live_pos_[Key(l.id1, l.ltype, l.id2)] = live_.size();
    live_.push_back(LinkKey{l.id1, l.ltype, l.id2});
  }
}

const LinkModel::NodeRec* LinkModel::FindNode(int64_t id) const {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : &it->second;
}

const LinkModel::LinkRec* LinkModel::FindLink(int64_t id1, int ltype,
                                              int64_t id2) const {
  auto it = out_.find(Key(id1, ltype));
  if (it == out_.end()) return nullptr;
  for (const LinkRec& r : it->second) {
    if (r.id2 == id2) return &r;
  }
  return nullptr;
}

uint64_t LinkModel::GetNode(int64_t id) const {
  Digest d;
  if (const NodeRec* n = FindNode(id)) {
    d.AddUnordered(VertexHash(id, static_cast<int>(id % 10), n->version,
                              n->time, n->data));
  }
  return d.value();
}

uint64_t LinkModel::CountLinks(int64_t id1, int ltype) const {
  auto it = out_.find(Key(id1, ltype));
  return ScalarDigest(it == out_.end() ? 0 : it->second.size());
}

uint64_t LinkModel::GetLink(int64_t id1, int ltype, int64_t id2) const {
  Digest d;
  if (const LinkRec* r = FindLink(id1, ltype, id2)) {
    d.AddUnordered(
        EdgeHash(id1, ltype, id2, r->visibility, r->data, r->time, r->version));
  }
  return d.value();
}

uint64_t LinkModel::GetLinkList(int64_t id1, int ltype) const {
  Digest d;
  auto it = out_.find(Key(id1, ltype));
  if (it != out_.end()) {
    for (const LinkRec& r : it->second) {
      d.AddUnordered(
          EdgeHash(id1, ltype, r.id2, r.visibility, r.data, r.time, r.version));
    }
  }
  return d.value();
}

void LinkModel::PutLink(int64_t id1, int ltype, LinkRec rec) {
  std::vector<LinkRec>& list = out_[Key(id1, ltype)];
  for (LinkRec& r : list) {
    if (r.id2 == rec.id2) {
      r = std::move(rec);
      return;
    }
  }
  live_pos_[Key(id1, ltype, rec.id2)] = live_.size();
  live_.push_back(LinkKey{id1, ltype, rec.id2});
  list.push_back(std::move(rec));
}

void LinkModel::EraseLink(int64_t id1, int ltype, int64_t id2) {
  auto it = out_.find(Key(id1, ltype));
  if (it == out_.end()) return;
  std::vector<LinkRec>& list = it->second;
  list.erase(std::remove_if(list.begin(), list.end(),
                            [&](const LinkRec& r) { return r.id2 == id2; }),
             list.end());
  auto pos = live_pos_.find(Key(id1, ltype, id2));
  if (pos == live_pos_.end()) return;
  const size_t i = pos->second;
  live_pos_.erase(pos);
  if (i + 1 != live_.size()) {
    live_[i] = live_.back();
    const LinkKey& moved = live_[i];
    live_pos_[Key(moved.id1, moved.ltype, moved.id2)] = i;
  }
  live_.pop_back();
}

// -- TraverseOracle ---------------------------------------------------------

TraverseOracle::TraverseOracle(const Dataset& dataset) : dataset_(dataset) {
  const size_t n = dataset.nodes.size();
  offsets_.assign(n + 2, 0);
  for (const Link& l : dataset.links) ++offsets_[l.id1 + 1];
  for (size_t i = 1; i < offsets_.size(); ++i) offsets_[i] += offsets_[i - 1];
  targets_.resize(dataset.links.size());
  std::vector<uint32_t> fill(offsets_.begin(), offsets_.end() - 1);
  for (const Link& l : dataset.links) {
    targets_[fill[l.id1]++] = static_cast<int32_t>(l.id2);
  }

  sorted_times_.resize(10);
  for (const Link& l : dataset.links) sorted_times_[l.ltype].push_back(l.time);
  for (auto& times : sorted_times_) std::sort(times.begin(), times.end());

  group_count_.resize(10);
  oldest_ten_.resize(10);
  for (int type = 0; type < 10; ++type) {
    std::map<int64_t, int64_t> versions;
    std::vector<std::pair<int64_t, int64_t>> by_time;  // (time, id)
    for (const Node& node : dataset.nodes) {
      if (node.type != type) continue;
      ++versions[node.version];
      by_time.emplace_back(node.time, node.id);
    }
    Digest groups;
    for (const auto& [version, count] : versions) {
      groups.AddOrdered(HashInt(version));
      groups.AddOrdered(HashInt(count));
    }
    group_count_[type] = groups.value();
    // order().by('time') is a stable sort of the table scan, which visits
    // rows in id order, so ties fall back to the id.
    const size_t k = std::min<size_t>(10, by_time.size());
    std::partial_sort(by_time.begin(), by_time.begin() + k, by_time.end());
    Digest oldest;
    for (size_t i = 0; i < k; ++i) {
      const Node& node = dataset.nodes[by_time[i].second - 1];
      oldest.AddOrdered(
          VertexHash(node.id, node.type, node.version, node.time, node.data));
    }
    oldest_ten_[type] = oldest.value();
  }
}

uint64_t TraverseOracle::Hop(int64_t start,
                             const std::vector<int>& labels) const {
  std::vector<int64_t> frontier;
  if (start >= 1 && start <= static_cast<int64_t>(dataset_.nodes.size())) {
    frontier.push_back(start);
  }
  for (int label : labels) {
    std::vector<int64_t> next;
    for (int64_t v : frontier) {
      // Every edge of label k leaves a vertex of type k.
      if (label >= 0 && label != v % 10) continue;
      for (uint32_t i = offsets_[v]; i < offsets_[v + 1]; ++i) {
        next.push_back(targets_[i]);
      }
    }
    frontier = std::move(next);
  }
  Digest d;
  for (int64_t id : frontier) {
    const Node& node = dataset_.nodes[id - 1];
    d.AddUnordered(
        VertexHash(node.id, node.type, node.version, node.time, node.data));
  }
  return d.value();
}

uint64_t TraverseOracle::CountTimeAfter(int ltype, int64_t x) const {
  const std::vector<int64_t>& times = sorted_times_[ltype];
  auto it = std::upper_bound(times.begin(), times.end(), x);
  return ScalarDigest(times.end() - it);
}

int64_t TraverseOracle::Threshold(int ltype, int k) const {
  const std::vector<int64_t>& times = sorted_times_[ltype];
  return times[times.size() * static_cast<size_t>(k + 1) / (kThresholds + 1)];
}

uint64_t TraverseOracle::MaxTime(int ltype) const {
  return ScalarDigest(sorted_times_[ltype].back());
}

}  // namespace perfbench
