#include "workload.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

using db2graph::ExecConfig;
using db2graph::Status;
using db2graph::Value;
using db2graph::core::Db2Graph;
using db2graph::core::ExecOptions;
using db2graph::linkbench::Link;

namespace {

std::string N(int64_t v) { return std::to_string(v); }

// -- prepared statement layout -----------------------------------------------

// LinkBench Gremlin: one prepared query per (operation, label).
enum LinkOp { kOpGetNode, kOpCountLinks, kOpGetLink, kOpGetLinkList };
int LinkQuery(LinkOp op, int label) { return op * 10 + label; }

std::string LinkbenchGremlin(LinkOp op, int label, const std::string& id1,
                             const std::string& id2) {
  switch (op) {
    case kOpGetNode:
      return "g.V(" + id1 + ").hasLabel('vt" + N(label) + "')";
    case kOpCountLinks:
      return "g.V(" + id1 + ").outE('et" + N(label) + "').count()";
    case kOpGetLink:
      return "g.V(" + id1 + ").outE('et" + N(label) + "').where(inV().hasId(" +
             id2 + "))";
    case kOpGetLinkList:
      return "g.V(" + id1 + ").outE('et" + N(label) + "')";
  }
  return "";
}

// Traversal Gremlin: per start label, typed 3-hop and 2-hop chains; one
// untyped 2-hop; per edge label a filtered count at each of the oracle's
// time thresholds and a max; per vertex label two interpreter-side
// barriers. The count's bound is a literal, not a bind variable: a bind
// variable in has() keeps the predicate from being pushed down to SQL.
constexpr int kHop3 = 0;
constexpr int kHop2 = 10;
constexpr int kHopUntyped = 20;
constexpr int kAggCount = 21;
constexpr int kAggMax = kAggCount + 10 * TraverseOracle::kThresholds;
constexpr int kDrainGroup = kAggMax + 10;
constexpr int kDrainOldest = kDrainGroup + 10;
constexpr int kTraverseQueries = kDrainOldest + 10;

std::string Out(int label) { return ".out('et" + N(label % 10) + "')"; }

std::string TraverseGremlin(int q, const TraverseOracle& oracle) {
  if (q < kHop2) return "g.V(vid)" + Out(q) + Out(q + 3) + Out(q + 6);
  if (q < kHopUntyped) return "g.V(vid)" + Out(q - kHop2) + Out(q - kHop2 + 3);
  if (q == kHopUntyped) return "g.V(vid).out().out()";
  if (q < kAggMax) {
    const int label = (q - kAggCount) / TraverseOracle::kThresholds;
    const int k = (q - kAggCount) % TraverseOracle::kThresholds;
    return "g.E().hasLabel('et" + N(label) + "').has('time', gt(" +
           N(oracle.Threshold(label, k)) + ")).count()";
  }
  if (q < kDrainGroup) {
    return "g.E().hasLabel('et" + N(q - kAggMax) + "').values('time').max()";
  }
  if (q < kDrainOldest) {
    return "g.V().hasLabel('vt" + N(q - kDrainGroup) +
           "').values('version').groupCount()";
  }
  return "g.V().hasLabel('vt" + N(q - kDrainOldest) +
         "').order().by('time').limit(10)";
}

int WriteSlot(WriteKind w) {
  switch (w) {
    case WriteKind::kInsert:
      return 0;
    case WriteKind::kUpdate:
      return 1;
    default:
      return 2;
  }
}

std::string DmlText(int index) {
  const int slot = index % 30 / 10;
  const int t = index % 10;
  if (index < 30) {
    const std::string table = "Link_e" + N(t);
    if (slot == 0) return "INSERT INTO " + table + " VALUES (?, ?, ?, ?, ?, ?)";
    if (slot == 1) {
      return "UPDATE " + table +
             " SET data = ?, time = ?, version = ? WHERE id1 = ? AND id2 = ?";
    }
    return "DELETE FROM " + table + " WHERE id1 = ? AND id2 = ?";
  }
  const std::string table = "Node_t" + N(t);
  if (slot == 0) return "INSERT INTO " + table + " VALUES (?, ?, ?, ?)";
  if (slot == 1) {
    return "UPDATE " + table + " SET version = ?, time = ?, data = ? WHERE id = ?";
  }
  return "DELETE FROM " + table + " WHERE id = ?";
}

// -- parameter draws ----------------------------------------------------------

// Rank-skewed index, P(rank r) proportional to 1/r: the log-uniform
// construction linkbench::Workload uses.
size_t Zipf(std::mt19937_64* rng, size_t n) {
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  double rank = std::exp(uniform(*rng) * std::log(static_cast<double>(n)));
  size_t r = static_cast<size_t>(rank);
  return r >= n ? n - 1 : r;
}

int64_t Stamp(std::mt19937_64* rng) {
  return std::uniform_int_distribution<int64_t>(1000000000, 2000000000)(*rng);
}

std::string Payload(std::mt19937_64* rng) {
  static const char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  std::uniform_int_distribution<int> pick(0, sizeof(kAlphabet) - 2);
  std::string out(24, ' ');
  for (char& c : out) c = kAlphabet[pick(*rng)];
  return out;
}

// -- LinkBench ----------------------------------------------------------------

enum LinkAction {
  kGetLinkList,
  kGetNode,
  kCountLinks,
  kGetLink,
  kAddLink,
  kUpdateLink,
  kUpdateNode,
  kDeleteLink,
  kAddNode,
  kDeleteNode,
};

// LinkBench's default request mix, per mille. The read-only workload
// renormalises the four reads to 1000.
constexpr int kReadOnlyMix[] = {735, 187, 71, 7, 0, 0, 0, 0, 0, 0};
constexpr int kFullMix[] = {507, 129, 49, 5, 90, 80, 74, 30, 26, 10};

class LinkbenchGenerator : public Generator {
 public:
  LinkbenchGenerator(WorkloadKind kind, const Dataset& dataset,
                     LinkModel* model, int client, int clients, uint64_t seed)
      : dataset_(dataset),
        model_(model),
        prepared_(kind == WorkloadKind::kLinkbenchRw),
        mix_(kind == WorkloadKind::kLinkbenchRw ? kFullMix : kReadOnlyMix),
        rng_(seed),
        client_(client),
        clients_(clients) {}

  void Next(Request* r) override {
    *r = Request();
    const int roll = std::uniform_int_distribution<int>(0, 999)(rng_);
    int action = 0;
    for (int acc = mix_[0]; roll >= acc; acc += mix_[++action]) {
    }
    switch (action) {
      case kGetNode: {
        const auto& ids = model_->node_ids();
        const int64_t id = ids[Zipf(&rng_, ids.size())];
        Read(r, OpClass::kGetNode, kOpGetNode, static_cast<int>(id % 10), id, 0);
        r->expected = model_->GetNode(id);
        r->probe_table = "Node_t" + N(id % 10);
        r->probe_key = id;
        return;
      }
      case kCountLinks:
      case kGetLink:
      case kGetLinkList: {
        const Link& l = PickLink();
        if (action == kCountLinks) {
          Read(r, OpClass::kCountLinks, kOpCountLinks, l.ltype, l.id1, 0);
          r->shape = Shape::kScalar;
          r->expected = model_->CountLinks(l.id1, l.ltype);
        } else if (action == kGetLink) {
          Read(r, OpClass::kGetLink, kOpGetLink, l.ltype, l.id1, l.id2);
          r->expected = model_->GetLink(l.id1, l.ltype, l.id2);
        } else {
          Read(r, OpClass::kGetLinkList, kOpGetLinkList, l.ltype, l.id1, 0);
          r->expected = model_->GetLinkList(l.id1, l.ltype);
        }
        r->probe_table = "Link_e" + N(l.ltype);
        r->probe_key = l.id1;
        return;
      }
      case kAddLink:
        AddLink(r);
        return;
      case kUpdateLink:
      case kDeleteLink: {
        // A link that exists, drawn uniformly: a Zipfian draw soon hit
        // only links it had already deleted, which turned the expensive
        // writes into cheap re-inserts at a rate that differed from run
        // to run.
        const auto& live = model_->live_links();
        const LinkModel::LinkKey l = live[std::uniform_int_distribution<size_t>(
            0, live.size() - 1)(rng_)];
        if (action == kUpdateLink) {
          UpdateLink(r, l);
        } else {
          Write(r, WriteKind::kDelete, LinkDml(WriteKind::kDelete, l.ltype),
                {Value(l.id1), Value(l.id2)});
          model_->EraseLink(l.id1, l.ltype, l.id2);
        }
        return;
      }
      case kUpdateNode: {
        const auto& ids = model_->node_ids();
        const int64_t id = ids[Zipf(&rng_, ids.size())];
        LinkModel::NodeRec rec = *model_->FindNode(id);
        rec.version += 1;
        rec.time = Stamp(&rng_);
        rec.data = Payload(&rng_);
        Write(r, WriteKind::kUpdate, NodeDml(WriteKind::kUpdate, id % 10),
              {Value(rec.version), Value(rec.time), Value(rec.data), Value(id)});
        model_->PutNode(id, std::move(rec));
        return;
      }
      case kAddNode:
      case kDeleteNode:
        if (action == kDeleteNode && !added_nodes_.empty()) {
          // LinkBench deletes any node; here a client deletes only nodes
          // it added, so no other client's links lose an endpoint.
          const int64_t id = added_nodes_.back();
          added_nodes_.pop_back();
          Write(r, WriteKind::kDelete, NodeDml(WriteKind::kDelete, id % 10),
                {Value(id)});
          model_->EraseNode(id);
          return;
        }
        AddNode(r);
        return;
    }
  }

 private:
  const Link& PickLink() {
    const auto& links = model_->links();
    return *links[Zipf(&rng_, links.size())];
  }

  void Read(Request* r, OpClass cls, LinkOp op, int label, int64_t id1,
            int64_t id2) {
    r->cls = cls;
    if (prepared_) {
      r->query = LinkQuery(op, label);
      r->bindings["vid"] = {Value(id1)};
      if (op == kOpGetLink) r->bindings["vid2"] = {Value(id2)};
    } else {
      r->text = LinkbenchGremlin(op, label, N(id1), N(id2));
    }
  }

  void Write(Request* r, WriteKind w, int dml, std::vector<Value> params) {
    r->cls = OpClass::kWrite;
    r->write = w;
    r->shape = Shape::kScalar;
    r->query = dml;
    r->params = std::move(params);
    r->expected = ScalarDigest(1);  // every write affects exactly one row
  }

  void AddLink(Request* r) {
    const auto& ids = model_->node_ids();
    const int64_t id1 = ids[Zipf(&rng_, ids.size())];
    const int ltype = static_cast<int>(id1 % 10);
    const int64_t n = static_cast<int64_t>(dataset_.nodes.size());
    for (int attempt = 0; attempt < 8; ++attempt) {
      // An original node of the label's destination type (never deleted).
      int64_t id2 = std::uniform_int_distribution<int64_t>(0, n - 1)(rng_) /
                        10 * 10 +
                    (ltype + 3) % 10;
      if (id2 == 0) id2 = 10;
      if (id2 > n) id2 -= 10;
      if (model_->FindLink(id1, ltype, id2) == nullptr) {
        InsertLink(r, id1, ltype, id2);
        return;
      }
    }
    // Every draw already exists: update one instead.
    const auto& live = model_->live_links();
    UpdateLink(r, live[std::uniform_int_distribution<size_t>(
                      0, live.size() - 1)(rng_)]);
  }

  void InsertLink(Request* r, int64_t id1, int ltype, int64_t id2) {
    LinkModel::LinkRec rec{id2, 1, Stamp(&rng_), 1, Payload(&rng_)};
    Write(r, WriteKind::kInsert, LinkDml(WriteKind::kInsert, ltype),
          {Value(id1), Value(id2), Value(rec.visibility), Value(rec.data),
           Value(rec.time), Value(rec.version)});
    model_->PutLink(id1, ltype, std::move(rec));
  }

  void UpdateLink(Request* r, const LinkModel::LinkKey& key) {
    LinkModel::LinkRec rec = *model_->FindLink(key.id1, key.ltype, key.id2);
    rec.data = Payload(&rng_);
    rec.time = Stamp(&rng_);
    rec.version += 1;
    Write(r, WriteKind::kUpdate, LinkDml(WriteKind::kUpdate, key.ltype),
          {Value(rec.data), Value(rec.time), Value(rec.version), Value(key.id1),
           Value(key.id2)});
    model_->PutLink(key.id1, key.ltype, std::move(rec));
  }

  void AddNode(Request* r) {
    // Fresh ids above the dataset's, disjoint per client.
    const int64_t base = static_cast<int64_t>(dataset_.nodes.size()) / 10 + 1;
    const int type = std::uniform_int_distribution<int>(0, 9)(rng_);
    const int64_t id = (base + next_node_++ * clients_ + client_) * 10 + type;
    LinkModel::NodeRec rec{1, Stamp(&rng_), Payload(&rng_)};
    Write(r, WriteKind::kInsert, NodeDml(WriteKind::kInsert, type),
          {Value(id), Value(rec.version), Value(rec.time), Value(rec.data)});
    model_->PutNode(id, std::move(rec));
    added_nodes_.push_back(id);
  }

  const Dataset& dataset_;
  LinkModel* model_;
  bool prepared_;
  const int* mix_;
  std::mt19937_64 rng_;
  int client_;
  int clients_;
  int64_t next_node_ = 0;
  std::vector<int64_t> added_nodes_;
};

// -- traversals ---------------------------------------------------------------

// One cycle of the traversal schedule. Classes interleave in a fixed
// pattern (not drawn at random) so every run sees the same mix; the
// counts give each class about a third of the wall time at the seed
// commit on LB-large.
constexpr int kCycleDrains = 1;
constexpr int kCycleAggs = 115;
constexpr int kCycleHops = 125;
constexpr int kCycle = kCycleDrains + kCycleAggs + kCycleHops;

class TraverseGenerator : public Generator {
 public:
  TraverseGenerator(const Dataset& dataset, const TraverseOracle* oracle,
                    uint64_t seed)
      : dataset_(dataset), oracle_(oracle), rng_(seed) {
    position_ = static_cast<int>(rng_() % kCycle);
    first_label_ = rng_() % 10;
  }

  void Next(Request* r) override {
    *r = Request();
    const int p = position_++ % kCycle;
    if (p < kCycleDrains) {
      Drain(r);
    } else if ((p - kCycleDrains) * kCycleAggs % (kCycleAggs + kCycleHops) <
               kCycleAggs) {  // aggs spread evenly among the hops
      Agg(r);
    } else {
      Hop(r);
    }
  }

 private:
  // Traversal parameters are drawn uniformly, not Zipfian: with the
  // Zipfian draw a few hot start vertices carry a fifth of the requests,
  // and their fan-out, which differs from seed to seed, set the cost of
  // the whole run. Variants rotate in a fixed order for the same reason.
  const Link& PickUniformLink() {
    return dataset_.links[std::uniform_int_distribution<size_t>(
        0, dataset_.links.size() - 1)(rng_)];
  }

  void Hop(Request* r) {
    const Link& l = PickUniformLink();
    const int a = l.ltype;
    r->cls = OpClass::kHop;
    const int variant = static_cast<int>(hops_++ % 10);
    std::vector<int> labels;
    if (variant < 4) {
      r->query = kHop3 + a;
      labels = {a, (a + 3) % 10, (a + 6) % 10};
    } else if (variant < 7) {
      r->query = kHop2 + a;
      labels = {a, (a + 3) % 10};
    } else {
      r->query = kHopUntyped;
      labels = {-1, -1};
    }
    r->bindings["vid"] = {Value(l.id1)};
    r->expected = oracle_->Hop(l.id1, labels);
    r->probe_table = "Link_e" + N(a);
    r->probe_key = l.id1;
  }

  void Agg(Request* r) {
    const Link& l = PickUniformLink();
    r->cls = OpClass::kAgg;
    r->shape = Shape::kScalar;
    if (aggs_++ % 2 == 0) {
      const int k = std::uniform_int_distribution<int>(
          0, TraverseOracle::kThresholds - 1)(rng_);
      r->query = kAggCount + l.ltype * TraverseOracle::kThresholds + k;
      r->expected =
          oracle_->CountTimeAfter(l.ltype, oracle_->Threshold(l.ltype, k));
    } else {
      r->query = kAggMax + l.ltype;
      r->expected = oracle_->MaxTime(l.ltype);
    }
  }

  void Drain(Request* r) {
    const int type = static_cast<int>((first_label_ + drains_ / 2) % 10);
    r->cls = OpClass::kDrain;
    if (drains_++ % 2 == 0) {
      r->query = kDrainGroup + type;
      r->shape = Shape::kList;
      r->expected = oracle_->VersionGroupCount(type);
    } else {
      r->query = kDrainOldest + type;
      r->shape = Shape::kElementSeq;
      r->expected = oracle_->OldestTen(type);
    }
  }

  const Dataset& dataset_;
  const TraverseOracle* oracle_;
  std::mt19937_64 rng_;
  int position_ = 0;
  uint64_t first_label_ = 0;
  uint64_t hops_ = 0;
  uint64_t aggs_ = 0;
  uint64_t drains_ = 0;
};

}  // namespace

bool ResolveWorkload(const std::string& name, int hardware_threads,
                     WorkloadSpec* spec) {
  const int threads = std::max(1, std::min(4, hardware_threads));
  spec->name = name;
  if (name == "linkbench-read") {
    spec->kind = WorkloadKind::kLinkbenchRead;
    spec->clients = threads;
    spec->setups = 5;
    return true;
  }
  if (name == "linkbench-rw") {
    spec->kind = WorkloadKind::kLinkbenchRw;
    spec->clients = threads;
    spec->setups = 5;
    return true;
  }
  if (name == "traverse-large") {
    spec->kind = WorkloadKind::kTraverseLarge;
    spec->large = true;
    spec->clients = 1;
    spec->dop = threads;
    spec->setups = 3;
    return true;
  }
  return false;
}

const char* ClassName(OpClass c) {
  static const char* kNames[kNumClasses] = {
      "getNode", "countLinks", "getLink", "getLinkList",
      "write",   "hop",        "agg",     "drain"};
  return kNames[static_cast<int>(c)];
}

const char* WriteKindName(WriteKind w) {
  switch (w) {
    case WriteKind::kInsert:
      return "insert";
    case WriteKind::kUpdate:
      return "update";
    case WriteKind::kDelete:
      return "delete";
    default:
      return "none";
  }
}

int LinkDml(WriteKind w, int ltype) { return WriteSlot(w) * 10 + ltype; }
int NodeDml(WriteKind w, int type) { return 30 + WriteSlot(w) * 10 + type; }

Status Statements::Prepare(WorkloadKind kind, const TraverseOracle* oracle,
                           Db2Graph* graph, db2graph::sql::Database* db) {
  gremlin_text.clear();
  if (kind == WorkloadKind::kTraverseLarge) {
    for (int q = 0; q < kTraverseQueries; ++q) {
      gremlin_text.push_back(TraverseGremlin(q, *oracle));
    }
  } else if (kind == WorkloadKind::kLinkbenchRw) {
    for (LinkOp op : {kOpGetNode, kOpCountLinks, kOpGetLink, kOpGetLinkList}) {
      for (int label = 0; label < 10; ++label) {
        gremlin_text.push_back(LinkbenchGremlin(op, label, "vid", "vid2"));
      }
    }
  }
  gremlin.clear();
  for (const std::string& text : gremlin_text) {
    auto prepared = graph->Prepare(text);
    if (!prepared.ok()) return prepared.status();
    gremlin.push_back(std::move(*prepared));
  }
  dml.clear();
  for (int i = 0; i < 60; ++i) {
    auto prepared = db->Prepare(DmlText(i));
    if (!prepared.ok()) return prepared.status();
    dml.push_back(std::move(*prepared));
  }
  return Status::OK();
}

ExecOptions Caller::Options(const Request& r) const {
  ExecOptions options;
  options.bindings = r.bindings;
  options.config = config_;
  return options;
}

void Caller::Call(const Request& r, Outcome* out) const {
  if (r.cls == OpClass::kWrite) {
    auto result = statements_->dml[r.query].Execute(r.params);
    out->status = result.status();
    out->affected = result.ok() ? result->affected : 0;
    return;
  }
  auto result = r.text.empty()
                    ? statements_->gremlin[r.query].Execute(Options(r))
                    : graph_->Execute(r.text, Options(r));
  out->status = result.status();
  if (result.ok()) out->rows = std::move(*result);
}

uint64_t Caller::DigestOf(const Request& r, const Outcome& out) {
  if (r.cls == OpClass::kWrite) return ScalarDigest(out.affected);
  return DigestResult(out.rows, r.shape);
}

std::unique_ptr<Generator> MakeLinkbenchGenerator(
    WorkloadKind kind, const Dataset& dataset, LinkModel* model, int client,
    int clients, uint64_t seed) {
  return std::make_unique<LinkbenchGenerator>(kind, dataset, model, client,
                                              clients, seed);
}

std::unique_ptr<Generator> MakeTraverseGenerator(const Dataset& dataset,
                                                 const TraverseOracle* oracle,
                                                 uint64_t seed) {
  return std::make_unique<TraverseGenerator>(dataset, oracle, seed);
}

}  // namespace perfbench
