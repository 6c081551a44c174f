// Copyright (c) 2026 The db2graph-repro Authors.
//
// Per-table SQL planning shared by the Graph Structure module (step-at-a-
// time lookups, paper Section 6) and the multi-hop join optimizer (which
// collapses hop chains into one N-way join). Everything here is pure
// planning — condition construction, select-list layout, shape keys for
// the dialect's statement cache, access-path prediction — with no data
// access, so the optimizer can cost and render candidate joins at compile
// time using exactly the logic execution will use.

#ifndef DB2GRAPH_CORE_GRAPH_PLANNING_H_
#define DB2GRAPH_CORE_GRAPH_PLANNING_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/value.h"
#include "gremlin/graph_api.h"
#include "overlay/topology.h"
#include "sql/database.h"

namespace db2graph::core {

struct RuntimeOptions;  // core/graph_structure.h

// ----------------------------------------------------------------------
// SQL construction
// ----------------------------------------------------------------------

/// One SQL condition on a column. `alias` qualifies the column reference
/// ("alias"."col") inside multi-table join statements; empty for the
/// single-table lookups. When `ref_column` is non-empty the condition is
/// a column-to-column join predicate ("alias"."col" op
/// "ref_alias"."ref_col") and contributes no parameters.
struct SqlCond {
  std::string column;
  std::string op;  // "=", "<>", "<", "<=", ">", ">=", "IN", "NOTNULL"
  std::vector<Value> params;
  std::string alias;
  std::string ref_alias;
  std::string ref_column;
};

/// Conjunction of simple conditions plus OR-groups of conjunctions (used
/// for multi-column composite ids: (a=? AND b=?) OR (a=? AND b=?)).
struct QueryConds {
  std::vector<SqlCond> conjuncts;
  std::vector<std::vector<std::vector<SqlCond>>> or_groups;
};

/// Renders one condition into `*sql`, pushing its parameters.
void RenderCond(const SqlCond& cond, std::string* sql,
                std::vector<Value>* params);

/// Renders "SELECT <select> FROM <table> WHERE ... [LIMIT n]" with
/// parameters. A non-negative `limit` is the LookupSpec's per-table row
/// budget; rendering it lets the SQL executor's streaming scan stop after
/// `limit` matching rows instead of draining the table.
std::string BuildSql(const std::string& table, const std::string& select,
                     const QueryConds& conds, std::vector<Value>* params,
                     int64_t limit = -1);

/// Extracts the parameter values of `conds` in exactly the order
/// BuildSql/RenderCond would push them (NOTNULL contributes none, IN all
/// of its values, a scalar comparison its first) — so a cached statement
/// can execute with fresh values and no string assembly.
void CollectParams(const QueryConds& conds, std::vector<Value>* params);

/// A key that uniquely determines the SQL text BuildSql would produce:
/// table, select list, the structure (aliases, columns, operators, IN
/// arities) of the conditions, and the LIMIT value — everything except
/// the parameter values.
std::string ShapeKey(const std::string& table, const std::string& select,
                     const QueryConds& conds, int64_t limit = -1);

/// One table of a multi-hop collapsed join: base table, statement alias,
/// and the conditions whose leftmost binding scope is this table (the
/// per-stage predicate order the step-at-a-time plans would use).
struct JoinStage {
  std::string table;
  std::string alias;
  QueryConds conds;
};

/// Renders "SELECT <select> FROM "T0" AS a0, "T1" AS a1, ... WHERE ..."
/// for a collapsed hop chain. Conditions render stage by stage (all of
/// stage 0's, then stage 1's, ...) so the SQL executor assigns each one
/// to the earliest join stage that covers its aliases — mirroring the
/// per-table WHERE clauses of the equivalent step-at-a-time statements.
std::string BuildJoinSql(const std::vector<JoinStage>& stages,
                         const std::string& select,
                         std::vector<Value>* params);

/// Shape key uniquely determining BuildJoinSql's text (everything except
/// parameter values), for the dialect's statement cache.
std::string JoinShapeKey(const std::vector<JoinStage>& stages,
                         const std::string& select);

/// Parameter values of `stages` in BuildJoinSql render order.
void CollectJoinParams(const std::vector<JoinStage>& stages,
                       std::vector<Value>* params);

/// Position a runtime-injected id/endpoint/join condition takes among a
/// plan's conjuncts: PlanVertexTable/PlanEdgeTable place the label
/// condition first, then id/endpoint conditions, then property
/// conditions. Shared between the multi-hop optimizer's probe-parity
/// simulation and the provider's join-stage construction so both agree
/// with the step-at-a-time statement layout.
size_t JoinCondPosition(const QueryConds& conds,
                        const sql::TableSchema& schema,
                        const std::optional<size_t>& label_column);

// ----------------------------------------------------------------------
// Fetch layout: which schema columns a query selects, and where the
// element's required fields and properties land in the fetched row.
// ----------------------------------------------------------------------

struct FetchLayout {
  std::vector<size_t> schema_cols;  // schema column index per SELECT column
  std::vector<size_t> positions_of_schema;  // schema idx -> fetched pos

  size_t PosOf(size_t schema_col) const {
    return positions_of_schema[schema_col];
  }
  bool Has(size_t schema_col) const {
    return schema_col < positions_of_schema.size() &&
           positions_of_schema[schema_col] != SIZE_MAX;
  }
};

FetchLayout MakeLayout(const sql::TableSchema& schema,
                       std::vector<size_t> cols);

std::string SelectListFor(const sql::TableSchema& schema,
                          const FetchLayout& layout);

/// Composes a ResolvedField value from a *fetched* row through the layout.
Value ComposeField(const overlay::ResolvedField& field,
                   const FetchLayout& layout, const Row& fetched);

/// Extends gremlin::MatchesSpec with edge endpoint checks, for the naive
/// (client-filter) execution paths.
bool MatchesEdgeSpec(const gremlin::Edge& e, const gremlin::LookupSpec& spec);

// ----------------------------------------------------------------------
// Per-table lookup plans
// ----------------------------------------------------------------------

/// Per-table lookup plan shared by the provider's lookups, the
/// aggregates, Explain, and the multi-hop optimizer's legality checks.
struct TablePlan {
  bool skip = false;
  bool client_filter = false;  // fetch everything, filter in the provider
  QueryConds conds;
  std::vector<std::string> predicate_columns;  // for the index advisor
};

TablePlan PlanVertexTable(const overlay::ResolvedVertexTable& t,
                          const gremlin::LookupSpec& spec,
                          const RuntimeOptions& options);

/// Columns a vertex fetch needs under `spec` (projection-aware).
std::vector<size_t> VertexFetchColumns(const overlay::ResolvedVertexTable& t,
                                       const gremlin::LookupSpec& spec);

TablePlan PlanEdgeTable(const overlay::ResolvedEdgeTable& t,
                        const gremlin::LookupSpec& spec,
                        const RuntimeOptions& options);

std::vector<size_t> EdgeFetchColumns(const overlay::ResolvedEdgeTable& t,
                                     const gremlin::LookupSpec& spec);

/// The one statement a lookup issues against one overlay table: a fetch
/// of `layout`'s columns, or (for an aggregate spec) the aggregate's
/// select list. The materialized fetch, the vertex stream, the aggregates
/// and Explain all render and key it here, so a preview is by
/// construction the statement execution runs.
struct TableStatement {
  int table_index = 0;
  std::string table;
  /// Full-row fetch without conditions, filtered in the provider.
  bool client_filter = false;
  FetchLayout layout;  // fetched columns (fetch statements only)
  std::string select;
  QueryConds conds;
  int64_t limit = -1;
  std::vector<std::string> predicate_columns;  // for the index advisor

  /// Key for the dialect's statement cache (see ShapeKey()).
  std::string ShapeKey() const;
  /// The SQL text, pushing its parameters into `*params`.
  std::string Sql(std::vector<Value>* params) const;
  /// The parameters alone, in Sql()'s order.
  std::vector<Value> Params() const;
};

/// Predicts the access path the executor would pick for `conds` against
/// `table` from index availability: an equality/IN conjunct backed by an
/// index probes it, an ordered comparison backed by an index range-scans
/// it, anything else falls back to a table scan (with residual filtering
/// when conditions exist).
std::string PredictAccessPath(const sql::Database* db,
                              const std::string& table,
                              const QueryConds& conds);

}  // namespace db2graph::core

#endif  // DB2GRAPH_CORE_GRAPH_PLANNING_H_
