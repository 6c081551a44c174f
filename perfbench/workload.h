// The benchmark's three workloads: request generators with their
// expected answers, the statements each workload prepares once per
// graph, and the call that sends one request to the system.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/exec_config.h"
#include "core/db2graph.h"
#include "oracle.h"
#include "sql/database.h"

namespace perfbench {

enum class WorkloadKind { kLinkbenchRead, kLinkbenchRw, kTraverseLarge };

struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::kLinkbenchRead;
  std::string name;
  bool large = false;     // LB-large instead of LB-small
  int clients = 1;        // closed-loop client threads
  int dop = 1;            // ExecConfig parallelism per call (0 = default)
  int setups = 1;         // set-up repetitions (setup_s is their median)
};

/// Resolves a workload name; false when unknown.
bool ResolveWorkload(const std::string& name, int hardware_threads,
                     WorkloadSpec* spec);

/// Request classes; each gets its own latency distribution.
enum class OpClass : uint8_t {
  kGetNode,
  kCountLinks,
  kGetLink,
  kGetLinkList,
  kWrite,
  kHop,
  kAgg,
  kDrain,
};
inline constexpr int kNumClasses = 8;
const char* ClassName(OpClass c);

/// The SQL statement kind a LinkBench write issues.
enum class WriteKind : uint8_t { kNone, kInsert, kUpdate, kDelete };
const char* WriteKindName(WriteKind w);

struct Request {
  OpClass cls = OpClass::kGetNode;
  WriteKind write = WriteKind::kNone;
  Shape shape = Shape::kElementBag;
  /// Literal Gremlin (text workloads); empty for prepared requests.
  std::string text;
  /// Index into Statements::gremlin (prepared reads) or Statements::dml.
  int query = -1;
  db2graph::gremlin::Environment bindings;
  std::vector<db2graph::Value> params;
  uint64_t expected = 0;
  /// The table and key of the request's first index lookup (the storage
  /// floor the traced run measures); empty table when the request scans.
  std::string probe_table;
  int64_t probe_key = 0;
};

/// Statements a workload prepares once per opened graph: Gremlin shapes
/// with bind variables (the prepared workloads) and SQL DML, one per
/// operation and label.
struct Statements {
  std::vector<std::string> gremlin_text;
  std::vector<db2graph::core::PreparedQuery> gremlin;
  std::vector<db2graph::sql::PreparedStatement> dml;

  /// `oracle` supplies the traversal workload's literal bounds (null for
  /// the LinkBench workloads).
  db2graph::Status Prepare(WorkloadKind kind, const TraverseOracle* oracle,
                           db2graph::core::Db2Graph* graph,
                           db2graph::sql::Database* db);
};

/// What one call returned.
struct Outcome {
  db2graph::Status status = db2graph::Status::OK();
  std::vector<db2graph::gremlin::Traverser> rows;
  int64_t affected = 0;
};

/// Sends requests to one graph.
class Caller {
 public:
  Caller(db2graph::core::Db2Graph* graph, const Statements* statements,
         db2graph::ExecConfig config)
      : graph_(graph), statements_(statements), config_(config) {}

  /// The timed part: one call into the system.
  void Call(const Request& r, Outcome* out) const;
  /// The untimed part: the digest compared against Request::expected.
  static uint64_t DigestOf(const Request& r, const Outcome& out);

  db2graph::core::ExecOptions Options(const Request& r) const;
  const db2graph::ExecConfig& config() const { return config_; }

 private:
  db2graph::core::Db2Graph* graph_;
  const Statements* statements_;
  db2graph::ExecConfig config_;
};

/// A deterministic stream of requests for one client.
class Generator {
 public:
  virtual ~Generator() = default;
  /// Fills the next request, with its expected answer. Writes are applied
  /// to the generator's model as they are issued.
  virtual void Next(Request* r) = 0;
};

/// LinkBench requests for `kind` (read or read/write). `model` holds the
/// keys this client owns; the generator owns no data.
std::unique_ptr<Generator> MakeLinkbenchGenerator(
    WorkloadKind kind, const Dataset& dataset, LinkModel* model, int client,
    int clients, uint64_t seed);

std::unique_ptr<Generator> MakeTraverseGenerator(const Dataset& dataset,
                                                 const TraverseOracle* oracle,
                                                 uint64_t seed);

/// Statements::dml layout: per write kind, one statement per link label
/// (Link_e0..9), then one per node type (Node_t0..9).
int LinkDml(WriteKind w, int ltype);
int NodeDml(WriteKind w, int type);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
