// Copyright (c) 2026 The db2graph-repro Authors.
//
// SELECT execution: FROM resolution (tables, views, subqueries, table
// functions), index-assisted joins, filtering, grouping/aggregation,
// DISTINCT, ORDER BY and LIMIT. Simple by design, but with the access-path
// behaviours the paper's optimizations rely on: equality and IN predicates
// on indexed columns become index probes instead of scans.
//
// Execution is organized as a pull-based operator tree over RowBlocks
// (scan -> filter -> join -> project -> aggregate/sort -> limit). Compile()
// builds the tree; Next() streams blocks from the root, with LIMIT
// shrinking upstream block capacities so scans stop at the row budget;
// Select() is the materializing Compile()+Drain() convenience that existing
// callers use.

#ifndef DB2GRAPH_SQL_EXECUTOR_H_
#define DB2GRAPH_SQL_EXECUTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "sql/result_set.h"
#include "sql/row_source.h"
#include "sql/table.h"

namespace db2graph::sql {

class Database;

/// A compiled SELECT: the operator tree plus everything it borrows
/// (bound expression clones, materialized FROM relations). Pull blocks
/// with Next() or materialize everything with Drain(). The caller must
/// hold the database read lock for the plan's whole lifetime and keep the
/// source SelectStmt alive (bound expressions point into it).
class SelectPlan : public RowSource {
 public:
  ~SelectPlan() override;
  SelectPlan(SelectPlan&&) = delete;
  SelectPlan& operator=(SelectPlan&&) = delete;

  const std::vector<std::string>& columns() const;

  /// Pulls the next block from the root operator. Returns false on
  /// exhaustion or error; check status() to distinguish.
  bool Next(RowBlock* out) override;

  /// Releases operator state eagerly (idempotent; also run by the dtor).
  void Close() override;

  /// OK unless execution failed mid-stream.
  const Status& status() const;

  /// Access-path counters accumulated so far (complete after exhaustion).
  const ExecInfo& exec() const;

  /// Pulls everything and returns the materialized result — the
  /// compatibility adapter Database::Execute sits on.
  Result<ResultSet> Drain();

 private:
  friend class Executor;
  struct State;
  explicit SelectPlan(std::unique_ptr<State> state);
  std::unique_ptr<State> state_;
};

/// Executes one SELECT against a database. The caller must already hold the
/// database lock (Database::Execute does).
class Executor {
 public:
  Executor(Database* db, const std::vector<Value>* params)
      : db_(db), params_(params) {}

  /// View expansion runs with definer's rights: a grant on the view is
  /// enough, so the inner executor skips per-table checks.
  void set_skip_access_checks(bool skip) { skip_access_checks_ = skip; }

  /// Builds the streaming operator tree for `stmt`. The returned plan
  /// captures db and params pointers; both must outlive it.
  Result<std::unique_ptr<SelectPlan>> Compile(const SelectStmt& stmt,
                                              size_t block_rows =
                                                  kDefaultBlockRows);

  Result<ResultSet> Select(const SelectStmt& stmt);

 private:
  struct Relation {
    std::string alias;
    std::vector<std::string> columns;
    const class Table* table = nullptr;  // base table access path
    std::vector<Row> rows;               // materialized otherwise
    /// Set for virtual tables: the snapshot Table `table` points into.
    /// The plan pins it so scans (row or vectorized) can keep raw
    /// pointers; base tables are owned by the catalog and leave it null.
    std::shared_ptr<class Table> owned;
    bool materialized() const { return table == nullptr; }
  };

  Result<Relation> ResolveRef(const TableRef& ref);

  Database* db_;
  const std::vector<Value>* params_;
  bool skip_access_checks_ = false;
};

/// An equality/IN index probe planned against one base table: the index
/// ChooseProbeIndex picked and, parallel to its column_indexes(), the
/// value expressions each key column is probed with (one for `col = v`,
/// the list for `col IN (...)`). Shared by the SELECT join stages and by
/// UPDATE/DELETE row location, so both take the same access path for the
/// same predicate.
struct IndexProbe {
  const Index* index = nullptr;
  std::vector<std::vector<const Expr*>> values;
};

/// Plans the probe for `table` (named `alias` in the statement) from the
/// AND-conjuncts of `preds`. A conjunct qualifies when one side is a
/// column of `table` that does not resolve in `outer` and every value
/// side binds in `outer` (literals and parameters always do). No index
/// leaves `index` null.
IndexProbe PlanIndexProbe(const Table& table, const std::string& alias,
                          const std::vector<const Expr*>& preds,
                          const Scope& outer);

/// Evaluates the probe's keys against `outer_row` — the cartesian product
/// of the IN lists, with duplicate keys dropped so no row matches twice —
/// and appends every RowId the index holds for them to `rids`. Returns
/// the number of keys looked up.
size_t ProbeIndex(const IndexProbe& probe, const Row& outer_row,
                  const std::vector<Value>* params, std::vector<RowId>* rids);

/// Binds every expression of `stmt` against its own FROM scope and sets
/// stmt->prebound on success (used by Database::Prepare so repeated
/// executions skip per-call clone+bind). Returns false when the statement
/// shape cannot be prebound (e.g. ORDER BY aliases); execution then falls
/// back to per-call binding.
bool PrebindSelect(Database* db, SelectStmt* stmt);

/// Derives the output column shape of a SELECT without executing it
/// (used for CREATE VIEW schemas). Best-effort types.
Result<std::vector<ColumnDef>> DeriveSelectColumns(Database* db,
                                                   const SelectStmt& stmt);

/// Column shape a FROM-clause reference exposes.
Result<std::vector<ColumnDef>> RelationColumns(Database* db,
                                               const TableRef& ref);

}  // namespace db2graph::sql

#endif  // DB2GRAPH_SQL_EXECUTOR_H_
