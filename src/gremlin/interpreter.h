// Copyright (c) 2026 The db2graph-repro Authors.
//
// The traversal machine: executes a (possibly strategy-mutated) step plan
// against any GraphProvider. Filters that were not pushed down are applied
// client-side here, so providers may ignore pushdown hints without
// affecting correctness — only performance.

#ifndef DB2GRAPH_GREMLIN_INTERPRETER_H_
#define DB2GRAPH_GREMLIN_INTERPRETER_H_

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "gremlin/graph_api.h"
#include "gremlin/step.h"

namespace db2graph::gremlin {

/// One unit flowing through the traversal: a vertex, an edge, a scalar
/// value, or a list of values (the result of cap()).
struct Traverser {
  enum class Kind { kVertex, kEdge, kValue, kList };
  Kind kind = Kind::kValue;
  VertexPtr vertex;
  EdgePtr edge;
  Value value;
  std::vector<Value> list;

  /// Id/value history of the traversal that produced this traverser,
  /// including the current element (supports path() / simplePath()).
  std::vector<Value> path;

  static Traverser OfVertex(VertexPtr v);
  static Traverser OfEdge(EdgePtr e);
  static Traverser OfValue(Value v);
  static Traverser OfList(std::vector<Value> values);

  /// The element payload (vertex or edge); nullptr for values/lists.
  const Element* element() const;

  /// Identity used by dedup(): element id, or the value itself.
  Value DedupKey() const;

  /// Display rendering (console / examples).
  std::string ToString() const;
};

/// Script variable bindings: each variable holds a list of values (ids or
/// scalars) produced by a terminated traversal.
using Environment = std::unordered_map<std::string, std::vector<Value>>;

/// The edge lookup a VertexStep issues for its source vertices, before
/// their ids bind as endpoint constraints: the step's edge labels, plus
/// for outE/inE its pushed-down predicates and projection and a folded
/// count(), which is pushed down unless the direction is both. Execution
/// and Explain both take the spec from here.
LookupSpec AdjacencyEdgeSpec(const Step& step);

/// Executes traversals and scripts against a provider.
class Interpreter {
 public:
  /// Execution tuning. With streaming on, linear step chains run one
  /// traverser block at a time under a pull cursor: a downstream limit()
  /// or range() that saturates stops pulling, so upstream graph lookups
  /// stop issuing SQL. Barrier steps — order(), tail(), groupCount(),
  /// cap(), repeat(), fold-style aggregates — drain their input first.
  /// Results and ordering are identical in both modes; only the access
  /// pattern (and the per-step trace block counts) differ.
  struct Options {
    bool streaming = true;
    /// Traversers per block in streaming segments; also the block size
    /// requested from provider element streams.
    size_t block_size = 256;
    /// Degree of intra-query parallelism for barrier drains: order() and
    /// groupCount() over large inputs split into per-worker chunks whose
    /// partial states merge in chunk order (deterministic, identical
    /// results). 1 = serial. Resolved from ExecConfig by the graph layer.
    int parallelism = 1;
  };

  explicit Interpreter(GraphProvider* provider) : provider_(provider) {}
  Interpreter(GraphProvider* provider, Options options)
      : provider_(provider), options_(options) {}

  const Options& options() const { return options_; }

  /// Runs one traversal with variable bindings.
  Result<std::vector<Traverser>> Run(const Traversal& traversal,
                                     const Environment& env = {});

  /// Runs a full script; returns the final statement's output stream.
  /// Assignments bind intermediate results into the environment.
  Result<std::vector<Traverser>> RunScript(const Script& script,
                                           Environment* env = nullptr);

 private:
  struct ExecState {
    const Environment* env;
    std::map<std::string, std::vector<Value>> stores;  // store()/cap()
    // dedup() keeps its seen-set across repeat() iterations, keyed by the
    // identity of the step within this execution.
    std::unordered_map<const Step*, std::unordered_set<Value, ValueHash>>
        dedup_seen;
  };

  Status Execute(const std::vector<Step>& steps,
                 std::vector<Traverser> input, ExecState* state,
                 std::vector<Traverser>* out);
  /// The pre-streaming execution model: one fully-materialized pass per
  /// step. Used when options_.streaming is off, and by the streaming path
  /// for barrier steps.
  Status ExecuteMaterialized(const std::vector<Step>& steps,
                             std::vector<Traverser> input, ExecState* state,
                             std::vector<Traverser>* out);
  /// Streaming execution of one segment: steps [begin, end) applied block
  /// by block over either a provider element stream (graph_source — the
  /// step at `begin` is the GraphStep source) or the carried materialized
  /// stream chunked into blocks. Appends the segment's output to `out`.
  Status RunSegment(const std::vector<Step>& steps, size_t begin, size_t end,
                    bool graph_source, std::vector<Traverser> carried,
                    ExecState* state, std::vector<Traverser>* out);
  Status ApplyStep(const Step& step, std::vector<Traverser> input,
                   ExecState* state, std::vector<Traverser>* out);

  Status ApplyGraphStep(const Step& step, std::vector<Traverser> input,
                        ExecState* state, std::vector<Traverser>* out);
  Status ApplyVertexStep(const Step& step, std::vector<Traverser> input,
                         std::vector<Traverser>* out);
  Status ApplyEdgeVertexStep(const Step& step, std::vector<Traverser> input,
                             std::vector<Traverser>* out);
  /// Optimizer-collapsed hop chain: one MultiHopTraverse provider call for
  /// the whole chain; falls back to the preserved step-at-a-time plan in
  /// step.body when the provider returns Unsupported.
  Status ApplyMultiHopStep(const Step& step, std::vector<Traverser> input,
                           ExecState* state, std::vector<Traverser>* out);

  /// Number of chunks a barrier drain over n traversers splits into: 1
  /// (serial) unless options_.parallelism > 1 and the input is large
  /// enough that chunking beats the pool dispatch overhead; each chunk
  /// keeps at least kParallelBarrierMinInput/2 traversers.
  size_t BarrierChunks(size_t n) const {
    if (options_.parallelism <= 1 || n < kParallelBarrierMinInput) return 1;
    size_t max_chunks = n / (kParallelBarrierMinInput / 2);
    return std::min<size_t>(static_cast<size_t>(options_.parallelism),
                            max_chunks);
  }
  static constexpr size_t kParallelBarrierMinInput = 256;

  Result<std::vector<Value>> ResolveIds(const std::vector<GremlinArg>& args,
                                        const ExecState& state) const;
  /// The GraphStep's effective lookup spec: step.spec with start/src/dst
  /// id arguments resolved against the environment and deduplicated.
  Result<LookupSpec> BuildGraphSpec(const Step& step,
                                    const ExecState& state) const;

  GraphProvider* provider_;
  Options options_;
};

/// Converts a final traverser stream into value rows of width `arity`
/// (consecutive values grouped) — the conversion the paper's graphQuery
/// table function performs (Section 4, footnote 1). Elements contribute
/// their id; lists are flattened.
Result<std::vector<Row>> TraversersToRows(const std::vector<Traverser>& ts,
                                          size_t arity);

}  // namespace db2graph::gremlin

#endif  // DB2GRAPH_GREMLIN_INTERPRETER_H_
