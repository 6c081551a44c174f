// Answer oracle for the benchmark: digests of query results, and the
// expected digests computed independently from the generated dataset.
//
// Every operation's answer is reduced to one 64-bit digest. The actual
// digest is taken from the traversers Db2Graph returns; the expected one
// is computed from plain in-memory copies of the dataset (LinkModel for
// the LinkBench point operations, TraverseOracle for the traversal
// classes), never through the system under test.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "gremlin/interpreter.h"
#include "linkbench/linkbench.h"

namespace perfbench {

using db2graph::linkbench::Dataset;

/// How a result is reduced to a digest.
enum class Shape : uint8_t {
  kElementBag,  // vertices/edges, order-insensitive (multiset)
  kElementSeq,  // vertices/edges, order-sensitive
  kScalar,      // one numeric value (count, max)
  kList,        // one list value (groupCount's [key, count, ...])
};

/// Digest of the traversers one query returned.
uint64_t DigestResult(const std::vector<db2graph::gremlin::Traverser>& out,
                      Shape shape);

/// Digest of a scalar answer, matching DigestResult(kScalar).
uint64_t ScalarDigest(int64_t v);

/// The LinkBench graph as plain maps: the expected state of the keys one
/// client owns (all keys when owners == 1). Writes the client has had
/// acknowledged are applied here, so its reads have exact answers.
class LinkModel {
 public:
  struct NodeRec {
    int64_t version = 0;
    int64_t time = 0;
    std::string data;
  };
  struct LinkRec {
    int64_t id2 = 0;
    int64_t visibility = 0;
    int64_t time = 0;
    int64_t version = 0;
    std::string data;
  };

  /// The keys of client `owner` of `owners`: vertex ids with
  /// (id / 10) % owners == owner, and the links leaving them.
  LinkModel(const Dataset& dataset, int owner, int owners);

  /// Owned original nodes and links, in dataset order (request parameters
  /// are drawn from these).
  const std::vector<int64_t>& node_ids() const { return node_ids_; }
  const std::vector<const db2graph::linkbench::Link*>& links() const {
    return links_;
  }

  uint64_t GetNode(int64_t id) const;
  uint64_t CountLinks(int64_t id1, int ltype) const;
  uint64_t GetLink(int64_t id1, int ltype, int64_t id2) const;
  uint64_t GetLinkList(int64_t id1, int ltype) const;

  const NodeRec* FindNode(int64_t id) const;
  const LinkRec* FindLink(int64_t id1, int ltype, int64_t id2) const;

  /// The links that exist now, in no particular order: write targets are
  /// drawn from these uniformly.
  struct LinkKey {
    int64_t id1 = 0;
    int ltype = 0;
    int64_t id2 = 0;
  };
  const std::vector<LinkKey>& live_links() const { return live_; }

  void PutNode(int64_t id, NodeRec rec) { nodes_[id] = std::move(rec); }
  void EraseNode(int64_t id) { nodes_.erase(id); }
  void PutLink(int64_t id1, int ltype, LinkRec rec);
  void EraseLink(int64_t id1, int ltype, int64_t id2);

 private:
  static uint64_t Key(int64_t id1, int ltype) {
    return static_cast<uint64_t>(id1) * 16 + static_cast<uint64_t>(ltype);
  }
  static uint64_t Key(int64_t id1, int ltype, int64_t id2) {
    return Key(id1, ltype) << 24 | static_cast<uint64_t>(id2);
  }

  std::vector<int64_t> node_ids_;
  std::vector<const db2graph::linkbench::Link*> links_;
  std::unordered_map<int64_t, NodeRec> nodes_;
  std::unordered_map<uint64_t, std::vector<LinkRec>> out_;
  std::vector<LinkKey> live_;
  std::unordered_map<uint64_t, size_t> live_pos_;  // Key(id1, ltype, id2)
};

/// Expected answers for the traversal classes, from an adjacency index
/// and per-label summaries of the dataset (which those classes never
/// write).
class TraverseOracle {
 public:
  explicit TraverseOracle(const Dataset& dataset);

  /// g.V(start).out(l1).out(l2)...; a label of -1 is an untyped out().
  uint64_t Hop(int64_t start, const std::vector<int>& labels) const;
  /// g.E().hasLabel(l).has('time', gt(x)).count()
  uint64_t CountTimeAfter(int ltype, int64_t x) const;
  /// The k-th of kThresholds edge 'time' quantiles of label l: the
  /// literal bounds the aggregate class compares against.
  static constexpr int kThresholds = 8;
  int64_t Threshold(int ltype, int k) const;
  /// g.E().hasLabel(l).values('time').max()
  uint64_t MaxTime(int ltype) const;
  /// g.V().hasLabel(t).values('version').groupCount()
  uint64_t VersionGroupCount(int type) const { return group_count_[type]; }
  /// g.V().hasLabel(t).order().by('time').limit(10)
  uint64_t OldestTen(int type) const { return oldest_ten_[type]; }

 private:
  const Dataset& dataset_;
  std::vector<uint32_t> offsets_;  // CSR over vertex ids 0..N
  std::vector<int32_t> targets_;
  std::vector<std::vector<int64_t>> sorted_times_;  // per edge label
  std::vector<uint64_t> group_count_;               // per vertex label
  std::vector<uint64_t> oldest_ten_;                // per vertex label
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
