#include "gremlin/graph_api.h"

#include <algorithm>
#include <unordered_set>

namespace db2graph::gremlin {

bool PropPredicate::Matches(const Value& v) const {
  switch (op) {
    case Op::kEq:
      return !values.empty() && v == values[0];
    case Op::kNeq:
      return !values.empty() && v != values[0];
    case Op::kLt:
      return !values.empty() && v < values[0];
    case Op::kLte:
      return !values.empty() && v <= values[0];
    case Op::kGt:
      return !values.empty() && v > values[0];
    case Op::kGte:
      return !values.empty() && v >= values[0];
    case Op::kWithin:
      return std::find(values.begin(), values.end(), v) != values.end();
    case Op::kWithout:
      return std::find(values.begin(), values.end(), v) == values.end();
    case Op::kExists:
      return true;  // presence is checked in the element overload
  }
  return false;
}

bool PropPredicate::Matches(const Element& element) const {
  if (key == kIdKey) return Matches(element.id);
  if (key == kLabelKey) return Matches(Value(element.label));
  const Value* v = element.FindProperty(key);
  if (op == Op::kExists) return v != nullptr;
  return v != nullptr && Matches(*v);
}

bool MatchesSpec(const Element& element, const LookupSpec& spec) {
  if (!spec.ids.empty() &&
      std::find(spec.ids.begin(), spec.ids.end(), element.id) ==
          spec.ids.end()) {
    return false;
  }
  if (!spec.labels.empty() &&
      std::find(spec.labels.begin(), spec.labels.end(), element.label) ==
          spec.labels.end()) {
    return false;
  }
  for (const PropPredicate& pred : spec.predicates) {
    if (!pred.Matches(element)) return false;
  }
  return true;
}

void AggregateAccumulator::AddToSum(const Value& v) {
  if (!v.is_numeric()) {
    all_int_ = false;
    return;
  }
  sum_ += v.NumericValue();
  if (v.is_int()) {
    int_sum_ += v.as_int();
  } else {
    all_int_ = false;
  }
}

void AggregateAccumulator::Add(const Value& v) {
  if (op_ == AggOp::kCount) {
    ++count_;
    return;
  }
  if (v.is_null()) return;
  ++count_;
  AddToSum(v);
  if (min_.is_null() || v < min_) min_ = v;
  if (max_.is_null() || v > max_) max_ = v;
}

void AggregateAccumulator::AddPartial(const Row& partial) {
  const Value& v = partial[0];
  switch (op_) {
    case AggOp::kCount:
      if (!v.is_null()) count_ += v.as_int();
      break;
    case AggOp::kSum:
    case AggOp::kMean:
      if (!v.is_null()) {
        AddToSum(v);
        count_ += partial[1].as_int();
      }
      break;
    case AggOp::kMin:
    case AggOp::kMax:
      Add(v);
      break;
    case AggOp::kNone:
      break;
  }
}

Value AggregateAccumulator::Result() const {
  switch (op_) {
    case AggOp::kCount:
      return Value(count_);
    case AggOp::kSum:
      if (count_ == 0) return Value::Null();
      return all_int_ ? Value(int_sum_) : Value(sum_);
    case AggOp::kMean:
      if (count_ == 0) return Value::Null();
      return Value(sum_ / static_cast<double>(count_));
    case AggOp::kMin:
      return min_;
    case AggOp::kMax:
      return max_;
    case AggOp::kNone:
      break;
  }
  return Value::Null();
}

Status GraphProvider::AdjacentEdges(const std::vector<VertexPtr>& from,
                                    Direction dir, const LookupSpec& spec,
                                    std::vector<EdgePtr>* out) {
  LookupSpec edge_spec = spec;
  std::vector<Value> ids;
  ids.reserve(from.size());
  for (const VertexPtr& v : from) ids.push_back(v->id);
  switch (dir) {
    case Direction::kOut:
      edge_spec.src_ids = ids;
      return Edges(edge_spec, out);
    case Direction::kIn:
      edge_spec.dst_ids = ids;
      return Edges(edge_spec, out);
    case Direction::kBoth: {
      edge_spec.src_ids = ids;
      DB2G_RETURN_NOT_OK(Edges(edge_spec, out));
      edge_spec.src_ids.clear();
      edge_spec.dst_ids = ids;
      std::vector<EdgePtr> in_edges;
      DB2G_RETURN_NOT_OK(Edges(edge_spec, &in_edges));
      // Self-loops appear in both lists; keep one copy per endpoint role.
      for (EdgePtr& e : in_edges) {
        if (!(e->src_id == e->dst_id)) out->push_back(std::move(e));
      }
      return Status::OK();
    }
  }
  return Status::Internal("bad direction");
}

Status GraphProvider::EdgeEndpoints(const std::vector<EdgePtr>& edges,
                                    Direction endpoint,
                                    const LookupSpec& spec,
                                    std::vector<VertexPtr>* out) {
  LookupSpec vertex_spec = spec;
  std::unordered_set<Value, ValueHash> unique;
  for (const EdgePtr& e : edges) {
    if (endpoint == Direction::kOut || endpoint == Direction::kBoth) {
      unique.insert(e->src_id);
    }
    if (endpoint == Direction::kIn || endpoint == Direction::kBoth) {
      unique.insert(e->dst_id);
    }
  }
  vertex_spec.ids.assign(unique.begin(), unique.end());
  if (vertex_spec.ids.empty()) return Status::OK();
  return Vertices(vertex_spec, out);
}

namespace {

// Materialize-and-chunk adapter behind the default streaming lookups:
// serves a pre-fetched element vector block by block.
template <typename Ptr, typename Base>
class ChunkedStream : public Base {
 public:
  explicit ChunkedStream(std::vector<Ptr> items) : items_(std::move(items)) {}

  bool Next(std::vector<Ptr>* out, size_t max) override {
    out->clear();
    if (closed_ || pos_ >= items_.size()) return false;
    size_t n = std::min(std::max<size_t>(max, 1), items_.size() - pos_);
    for (size_t i = 0; i < n; ++i) {
      out->push_back(std::move(items_[pos_ + i]));
    }
    pos_ += n;
    return true;
  }

  void Close() override {
    closed_ = true;
    items_.clear();
  }

  const Status& status() const override { return status_; }

 private:
  std::vector<Ptr> items_;
  size_t pos_ = 0;
  bool closed_ = false;
  Status status_ = Status::OK();
};

}  // namespace

Result<std::unique_ptr<VertexStream>> GraphProvider::VerticesStreaming(
    const LookupSpec& spec) {
  std::vector<VertexPtr> all;
  Status s = Vertices(spec, &all);
  if (!s.ok()) return s;
  return std::unique_ptr<VertexStream>(
      new ChunkedStream<VertexPtr, VertexStream>(std::move(all)));
}

Result<std::unique_ptr<EdgeStream>> GraphProvider::EdgesStreaming(
    const LookupSpec& spec) {
  std::vector<EdgePtr> all;
  Status s = Edges(spec, &all);
  if (!s.ok()) return s;
  return std::unique_ptr<EdgeStream>(
      new ChunkedStream<EdgePtr, EdgeStream>(std::move(all)));
}

Result<Value> GraphProvider::AggregateVertices(const LookupSpec&) {
  return Status::Unsupported("no aggregate pushdown");
}

Result<Value> GraphProvider::AggregateEdges(const LookupSpec&) {
  return Status::Unsupported("no aggregate pushdown");
}

Status GraphProvider::MultiHopTraverse(const std::vector<VertexPtr>&,
                                       const MultiHopSpec&, MultiHopBuckets*) {
  return Status::Unsupported("no multi-hop pushdown");
}

}  // namespace db2graph::gremlin
