#include "core/graph_planning.h"

#include <algorithm>
#include <cstdlib>

#include "common/strings.h"
#include "core/graph_structure.h"

namespace db2graph::core {

using gremlin::LookupSpec;
using gremlin::PropPredicate;
using overlay::ResolvedEdgeTable;
using overlay::ResolvedField;
using overlay::ResolvedVertexTable;

// ----------------------------------------------------------------------
// SQL construction
// ----------------------------------------------------------------------

namespace {

std::string QualifiedColumn(const SqlCond& cond) {
  if (cond.alias.empty()) return "\"" + cond.column + "\"";
  return "\"" + cond.alias + "\".\"" + cond.column + "\"";
}

}  // namespace

void RenderCond(const SqlCond& cond, std::string* sql,
                std::vector<Value>* params) {
  if (!cond.ref_column.empty()) {
    *sql += QualifiedColumn(cond) + " " + cond.op + " \"" + cond.ref_alias +
            "\".\"" + cond.ref_column + "\"";
    return;
  }
  if (cond.op == "NOTNULL") {
    *sql += QualifiedColumn(cond) + " IS NOT NULL";
    return;
  }
  if (cond.op == "IN") {
    *sql += QualifiedColumn(cond) + " IN (";
    for (size_t i = 0; i < cond.params.size(); ++i) {
      if (i > 0) *sql += ", ";
      *sql += "?";
      params->push_back(cond.params[i]);
    }
    *sql += ")";
    return;
  }
  *sql += QualifiedColumn(cond) + " " + cond.op + " ?";
  params->push_back(cond.params[0]);
}

std::string BuildSql(const std::string& table, const std::string& select,
                     const QueryConds& conds, std::vector<Value>* params,
                     int64_t limit) {
  std::string sql = "SELECT " + select + " FROM \"" + table + "\"";
  std::vector<std::string> where_parts;
  for (const SqlCond& cond : conds.conjuncts) {
    std::string part;
    RenderCond(cond, &part, params);
    where_parts.push_back(std::move(part));
  }
  for (const auto& group : conds.or_groups) {
    std::string part = "(";
    for (size_t g = 0; g < group.size(); ++g) {
      if (g > 0) part += " OR ";
      part += "(";
      for (size_t c = 0; c < group[g].size(); ++c) {
        if (c > 0) part += " AND ";
        RenderCond(group[g][c], &part, params);
      }
      part += ")";
    }
    part += ")";
    where_parts.push_back(std::move(part));
  }
  if (!where_parts.empty()) {
    sql += " WHERE " + Join(where_parts, " AND ");
  }
  if (limit >= 0) {
    sql += " LIMIT " + std::to_string(limit);
  }
  return sql;
}

void CollectParams(const QueryConds& conds, std::vector<Value>* params) {
  auto one = [params](const SqlCond& cond) {
    if (!cond.ref_column.empty()) return;
    if (cond.op == "NOTNULL") return;
    if (cond.op == "IN") {
      for (const Value& v : cond.params) params->push_back(v);
      return;
    }
    params->push_back(cond.params[0]);
  };
  for (const SqlCond& cond : conds.conjuncts) one(cond);
  for (const auto& group : conds.or_groups) {
    for (const auto& conjunction : group) {
      for (const SqlCond& cond : conjunction) one(cond);
    }
  }
}

std::string ShapeKey(const std::string& table, const std::string& select,
                     const QueryConds& conds, int64_t limit) {
  std::string key = table + "\x01" + select;
  if (limit >= 0) {
    key += "\x06";
    key += std::to_string(limit);
  }
  auto one = [&key](const SqlCond& cond) {
    key += "\x04";
    if (!cond.alias.empty()) {
      key += cond.alias;
      key += "\x07";
    }
    key += cond.column;
    key += "\x05";
    key += cond.op;
    if (!cond.ref_column.empty()) {
      key += "\x08";
      key += cond.ref_alias;
      key += "\x07";
      key += cond.ref_column;
    } else if (cond.op == "IN") {
      key += std::to_string(cond.params.size());
    }
  };
  for (const SqlCond& cond : conds.conjuncts) {
    key += "\x02";
    one(cond);
  }
  for (const auto& group : conds.or_groups) {
    key += "\x03";
    for (const auto& conjunction : group) {
      key += "\x02";
      for (const SqlCond& cond : conjunction) one(cond);
    }
  }
  return key;
}

namespace {

// SQL comparison operator for a scalar predicate op; nullptr for
// within/without/exists (handled separately).
const char* SqlOpFor(PropPredicate::Op op) {
  switch (op) {
    case PropPredicate::Op::kEq:
      return "=";
    case PropPredicate::Op::kNeq:
      return "<>";
    case PropPredicate::Op::kLt:
      return "<";
    case PropPredicate::Op::kLte:
      return "<=";
    case PropPredicate::Op::kGt:
      return ">";
    case PropPredicate::Op::kGte:
      return ">=";
    default:
      return nullptr;  // within / without / exists handled separately
  }
}

void AppendCondParts(const QueryConds& conds, std::vector<std::string>* parts,
                     std::vector<Value>* params) {
  for (const SqlCond& cond : conds.conjuncts) {
    std::string part;
    RenderCond(cond, &part, params);
    parts->push_back(std::move(part));
  }
  for (const auto& group : conds.or_groups) {
    std::string part = "(";
    for (size_t g = 0; g < group.size(); ++g) {
      if (g > 0) part += " OR ";
      part += "(";
      for (size_t c = 0; c < group[g].size(); ++c) {
        if (c > 0) part += " AND ";
        RenderCond(group[g][c], &part, params);
      }
      part += ")";
    }
    part += ")";
    parts->push_back(std::move(part));
  }
}

}  // namespace

std::string BuildJoinSql(const std::vector<JoinStage>& stages,
                         const std::string& select,
                         std::vector<Value>* params) {
  std::string sql = "SELECT " + select + " FROM ";
  for (size_t i = 0; i < stages.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += "\"" + stages[i].table + "\" AS " + stages[i].alias;
  }
  std::vector<std::string> where_parts;
  for (const JoinStage& stage : stages) {
    AppendCondParts(stage.conds, &where_parts, params);
  }
  if (!where_parts.empty()) {
    sql += " WHERE " + Join(where_parts, " AND ");
  }
  return sql;
}

std::string JoinShapeKey(const std::vector<JoinStage>& stages,
                         const std::string& select) {
  std::string key = "join\x01" + select;
  for (const JoinStage& stage : stages) {
    key += "\x06";
    key += ShapeKey(stage.table + "\x07" + stage.alias, "", stage.conds);
  }
  return key;
}

void CollectJoinParams(const std::vector<JoinStage>& stages,
                       std::vector<Value>* params) {
  for (const JoinStage& stage : stages) {
    CollectParams(stage.conds, params);
  }
}

size_t JoinCondPosition(const QueryConds& conds,
                        const sql::TableSchema& schema,
                        const std::optional<size_t>& label_column) {
  if (label_column && !conds.conjuncts.empty()) {
    std::optional<size_t> idx = schema.ColumnIndex(conds.conjuncts[0].column);
    if (idx && *idx == *label_column) return 1;
  }
  return 0;
}

// ----------------------------------------------------------------------
// Fetch layout
// ----------------------------------------------------------------------

FetchLayout MakeLayout(const sql::TableSchema& schema,
                       std::vector<size_t> cols) {
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  FetchLayout layout;
  layout.schema_cols = cols;
  layout.positions_of_schema.assign(schema.columns.size(), SIZE_MAX);
  for (size_t i = 0; i < cols.size(); ++i) {
    layout.positions_of_schema[cols[i]] = i;
  }
  return layout;
}

std::string SelectListFor(const sql::TableSchema& schema,
                          const FetchLayout& layout) {
  std::vector<std::string> names;
  for (size_t c : layout.schema_cols) {
    names.push_back("\"" + schema.columns[c].name + "\"");
  }
  return Join(names, ", ");
}

Value ComposeField(const ResolvedField& field, const FetchLayout& layout,
                   const Row& fetched) {
  if (field.def.SingleColumn()) {
    return fetched[layout.PosOf(field.column_indexes[0])];
  }
  std::string out;
  size_t col = 0;
  for (size_t i = 0; i < field.def.parts.size(); ++i) {
    if (i > 0) out += kIdSeparator;
    if (field.def.parts[i].is_constant) {
      out += field.def.parts[i].text;
    } else {
      out += fetched[layout.PosOf(field.column_indexes[col++])].ToString();
    }
  }
  return Value(std::move(out));
}

bool MatchesEdgeSpec(const gremlin::Edge& e, const LookupSpec& spec) {
  if (!gremlin::MatchesSpec(e, spec)) return false;
  if (!spec.src_ids.empty() &&
      std::find(spec.src_ids.begin(), spec.src_ids.end(), e.src_id) ==
          spec.src_ids.end()) {
    return false;
  }
  if (!spec.dst_ids.empty() &&
      std::find(spec.dst_ids.begin(), spec.dst_ids.end(), e.dst_id) ==
          spec.dst_ids.end()) {
    return false;
  }
  return true;
}

// ----------------------------------------------------------------------
// Id decomposition
// ----------------------------------------------------------------------

namespace {

// A decomposed id component can only match rows when its runtime type is
// compatible with the column's declared type; a string id like
// "patient::1" can never live in a BIGINT key column. This is what makes
// prefixed (and otherwise type-distinct) ids pin down the exact table.
bool TypeCompatible(const Value& v, sql::ColumnType column_type) {
  if (v.is_null()) return false;
  switch (column_type) {
    case sql::ColumnType::kInt:
    case sql::ColumnType::kDouble:
      return v.is_numeric();
    case sql::ColumnType::kString:
      return v.is_string();
    case sql::ColumnType::kBool:
      return v.is_bool();
  }
  return true;
}

// Builds conditions constraining `field` to one of `ids` (single-column
// fields become an IN conjunct, multi-column fields an OR-group). False
// means no id can belong to this definition.
bool BuildIdConds(const ResolvedField& field, const sql::TableSchema& schema,
                  const std::vector<Value>& ids, QueryConds* conds) {
  std::vector<std::vector<Value>> decomposed;
  for (const Value& id : ids) {
    if (auto values = field.Decompose(id)) {
      bool compatible = true;
      for (size_t i = 0; i < values->size(); ++i) {
        compatible &= TypeCompatible(
            (*values)[i],
            schema.columns[field.column_indexes[i]].type);
      }
      if (compatible) decomposed.push_back(std::move(*values));
    }
  }
  if (decomposed.empty()) return false;
  if (field.column_indexes.size() == 1) {
    SqlCond cond;
    cond.column = schema.columns[field.column_indexes[0]].name;
    cond.op = "IN";
    for (auto& values : decomposed) cond.params.push_back(values[0]);
    conds->conjuncts.push_back(std::move(cond));
    return true;
  }
  std::vector<std::vector<SqlCond>> group;
  for (auto& values : decomposed) {
    std::vector<SqlCond> conjunction;
    for (size_t i = 0; i < field.column_indexes.size(); ++i) {
      SqlCond cond;
      cond.column = schema.columns[field.column_indexes[i]].name;
      cond.op = "=";
      cond.params.push_back(values[i]);
      conjunction.push_back(std::move(cond));
    }
    group.push_back(std::move(conjunction));
  }
  conds->or_groups.push_back(std::move(group));
  return true;
}

// Splits an implicit edge id "srcParts::label::dstParts" against an edge
// table's definitions; nullopt when it cannot belong to this table.
struct ImplicitIdParts {
  std::vector<Value> src_values;
  std::string label;
  std::vector<Value> dst_values;
};

std::optional<ImplicitIdParts> DecomposeImplicitEdgeId(
    const ResolvedEdgeTable& table, const Value& id) {
  if (!id.is_string()) return std::nullopt;
  std::vector<std::string> parts = DecomposeId(id.as_string());
  size_t s = table.src_v.def.parts.size();
  size_t d = table.dst_v.def.parts.size();
  if (parts.size() != s + 1 + d) return std::nullopt;
  auto extract = [&](const overlay::FieldDef& def, size_t offset)
      -> std::optional<std::vector<Value>> {
    std::vector<Value> out;
    for (size_t i = 0; i < def.parts.size(); ++i) {
      const std::string& text = parts[offset + i];
      if (def.parts[i].is_constant) {
        if (text != def.parts[i].text) return std::nullopt;
      } else {
        char* end = nullptr;
        long long n = std::strtoll(text.c_str(), &end, 10);
        if (!text.empty() && end != nullptr && *end == '\0') {
          out.emplace_back(static_cast<int64_t>(n));
        } else {
          out.emplace_back(text);
        }
      }
    }
    return out;
  };
  ImplicitIdParts result;
  auto src = extract(table.src_v.def, 0);
  if (!src) return std::nullopt;
  result.src_values = std::move(*src);
  result.label = parts[s];
  auto dst = extract(table.dst_v.def, s + 1);
  if (!dst) return std::nullopt;
  result.dst_values = std::move(*dst);
  return result;
}

// ----------------------------------------------------------------------
// Per-table lookup plans
// ----------------------------------------------------------------------

// Each step below narrows `plan` for one kind of spec constraint. A
// constraint no row of the table can meet prunes the table when its
// Section 6.3 optimization is on (plan->skip; the step returns false),
// and otherwise falls back to fetching everything and filtering in the
// provider (plan->client_filter).
bool PruneOrFilter(bool enabled, TablePlan* plan) {
  if (enabled) {
    plan->skip = true;
    return false;
  }
  plan->client_filter = true;
  return true;
}

// Fixed-label pruning (Section 6.3 "Using Label Values"), or a label IN
// condition on a label column.
template <typename Table>
bool PlanLabels(const Table& t, const LookupSpec& spec,
                const RuntimeOptions& options, TablePlan* plan) {
  if (spec.labels.empty()) return true;
  if (t.conf.label.fixed) {
    bool matches = std::find(spec.labels.begin(), spec.labels.end(),
                             t.conf.label.value) != spec.labels.end();
    return matches || PruneOrFilter(options.label_pruning, plan);
  }
  SqlCond cond;
  cond.column = t.schema->columns[*t.label_column].name;
  cond.op = "IN";
  cond.params.reserve(spec.labels.size());
  for (const std::string& l : spec.labels) cond.params.emplace_back(l);
  plan->predicate_columns.push_back(cond.column);
  plan->conds.conjuncts.push_back(std::move(cond));
  return true;
}

// Prefixed-id pinning / composite-id decomposition: constrains `field`
// to `ids` (no-op when empty).
bool PlanIds(const ResolvedField& field, const sql::TableSchema& schema,
             const std::vector<Value>& ids, const RuntimeOptions& options,
             TablePlan* plan) {
  if (ids.empty()) return true;
  QueryConds conds;
  if (!BuildIdConds(field, schema, ids, &conds)) {
    return PruneOrFilter(options.prefixed_id_pinning, plan);
  }
  for (SqlCond& c : conds.conjuncts) {
    plan->predicate_columns.push_back(c.column);
    plan->conds.conjuncts.push_back(std::move(c));
  }
  for (auto& group : conds.or_groups) {
    if (!group.empty()) {
      for (const SqlCond& c : group[0]) {
        plan->predicate_columns.push_back(c.column);
      }
    }
    plan->conds.or_groups.push_back(std::move(group));
  }
  return true;
}

// Property predicates: pushdown + property-name pruning; then
// projection-based pruning — a traversal that only consumes projected
// properties gets nothing from a table having none of them.
template <typename Table>
bool PlanProperties(const Table& t, const LookupSpec& spec,
                    const RuntimeOptions& options, TablePlan* plan) {
  for (const PropPredicate& pred : spec.predicates) {
    if (pred.key == gremlin::kIdKey || pred.key == gremlin::kLabelKey) {
      plan->client_filter = true;  // rare; resolved after materialization
      continue;
    }
    if (!t.HasProperty(pred.key)) {
      // No row of this table can have the property.
      if (!PruneOrFilter(options.property_pruning, plan)) return false;
      continue;
    }
    // Locate the schema column behind the property.
    size_t column = 0;
    for (size_t i = 0; i < t.properties.size(); ++i) {
      if (EqualsIgnoreCase(t.properties[i], pred.key)) {
        column = t.property_columns[i];
        break;
      }
    }
    SqlCond cond;
    cond.column = t.schema->columns[column].name;
    if (pred.op == PropPredicate::Op::kExists) {
      cond.op = "NOTNULL";
    } else if (pred.op == PropPredicate::Op::kWithin) {
      cond.op = "IN";
      cond.params = pred.values;
    } else if (pred.op == PropPredicate::Op::kWithout) {
      plan->client_filter = true;  // NOT IN needs null care; keep client-side
      continue;
    } else {
      const char* op = SqlOpFor(pred.op);
      if (op == nullptr) {
        plan->client_filter = true;
        continue;
      }
      cond.op = op;
      cond.params = pred.values;
    }
    plan->predicate_columns.push_back(cond.column);
    plan->conds.conjuncts.push_back(std::move(cond));
  }

  if (spec.has_projection && !spec.projection.empty() &&
      options.property_pruning &&
      std::none_of(spec.projection.begin(), spec.projection.end(),
                   [&t](const std::string& key) {
                     return t.HasProperty(key);
                   })) {
    plan->skip = true;
    return false;
  }
  return true;
}

// Appends the property columns a fetch under `spec` needs
// (projection-aware).
template <typename Table>
void AppendPropertyColumns(const Table& t, const LookupSpec& spec,
                           std::vector<size_t>* cols) {
  for (size_t i = 0; i < t.properties.size(); ++i) {
    if (spec.has_projection &&
        std::none_of(spec.projection.begin(), spec.projection.end(),
                     [&](const std::string& key) {
                       return EqualsIgnoreCase(key, t.properties[i]);
                     })) {
      continue;
    }
    cols->push_back(t.property_columns[i]);
  }
}

// Edge-id constraints for implicit ids: each id decomposes into src +
// label + dst conjunctive predicates (Section 6.3).
bool PlanImplicitEdgeIds(const ResolvedEdgeTable& t,
                         const std::vector<Value>& ids,
                         const RuntimeOptions& options, TablePlan* plan) {
  if (ids.empty()) return true;
  const sql::TableSchema& schema = *t.schema;
  auto equals = [&schema](size_t column, Value value) {
    SqlCond c;
    c.column = schema.columns[column].name;
    c.op = "=";
    c.params = {std::move(value)};
    return c;
  };
  std::vector<std::vector<SqlCond>> group;
  for (const Value& id : ids) {
    auto parts = DecomposeImplicitEdgeId(t, id);
    if (!parts) continue;
    if (t.conf.label.fixed && parts->label != t.conf.label.value) {
      continue;  // label encoded in the id does not match this table
    }
    std::vector<SqlCond> conjunction;
    for (size_t i = 0; i < t.src_v.column_indexes.size(); ++i) {
      conjunction.push_back(
          equals(t.src_v.column_indexes[i], parts->src_values[i]));
    }
    for (size_t i = 0; i < t.dst_v.column_indexes.size(); ++i) {
      conjunction.push_back(
          equals(t.dst_v.column_indexes[i], parts->dst_values[i]));
    }
    if (!t.conf.label.fixed) {
      conjunction.push_back(equals(*t.label_column, Value(parts->label)));
    }
    group.push_back(std::move(conjunction));
  }
  if (group.empty()) {
    return PruneOrFilter(options.implicit_edge_id_decomposition, plan);
  }
  for (const SqlCond& c : group[0]) {
    plan->predicate_columns.push_back(c.column);
  }
  plan->conds.or_groups.push_back(std::move(group));
  return true;
}

}  // namespace

TablePlan PlanVertexTable(const ResolvedVertexTable& t,
                          const LookupSpec& spec,
                          const RuntimeOptions& options) {
  TablePlan plan;
  if (PlanLabels(t, spec, options, &plan) &&
      PlanIds(t.id, *t.schema, spec.ids, options, &plan)) {
    PlanProperties(t, spec, options, &plan);
  }
  return plan;
}

std::vector<size_t> VertexFetchColumns(const ResolvedVertexTable& t,
                                       const LookupSpec& spec) {
  std::vector<size_t> cols = t.id.column_indexes;
  if (t.label_column) cols.push_back(*t.label_column);
  AppendPropertyColumns(t, spec, &cols);
  return cols;
}

TablePlan PlanEdgeTable(const ResolvedEdgeTable& t, const LookupSpec& spec,
                        const RuntimeOptions& options) {
  TablePlan plan;
  // Endpoint constraints decompose like vertex ids; so do explicit edge
  // ids, while implicit ones split into src + label + dst predicates.
  if (PlanLabels(t, spec, options, &plan) &&
      PlanIds(t.src_v, *t.schema, spec.src_ids, options, &plan) &&
      PlanIds(t.dst_v, *t.schema, spec.dst_ids, options, &plan) &&
      (t.conf.implicit_edge_id
           ? PlanImplicitEdgeIds(t, spec.ids, options, &plan)
           : PlanIds(t.id, *t.schema, spec.ids, options, &plan))) {
    PlanProperties(t, spec, options, &plan);
  }
  return plan;
}

std::vector<size_t> EdgeFetchColumns(const ResolvedEdgeTable& t,
                                     const LookupSpec& spec) {
  std::vector<size_t> cols = t.src_v.column_indexes;
  cols.insert(cols.end(), t.dst_v.column_indexes.begin(),
              t.dst_v.column_indexes.end());
  if (!t.conf.implicit_edge_id) {
    cols.insert(cols.end(), t.id.column_indexes.begin(),
                t.id.column_indexes.end());
  }
  if (t.label_column) cols.push_back(*t.label_column);
  AppendPropertyColumns(t, spec, &cols);
  return cols;
}

std::string TableStatement::ShapeKey() const {
  return core::ShapeKey(table, select, conds, limit);
}

std::string TableStatement::Sql(std::vector<Value>* params) const {
  return BuildSql(table, select, conds, params, limit);
}

std::vector<Value> TableStatement::Params() const {
  std::vector<Value> params;
  CollectParams(conds, &params);
  return params;
}

std::string PredictAccessPath(const sql::Database* db,
                              const std::string& table,
                              const QueryConds& conds) {
  const sql::Table* base = db->GetTable(table);
  bool has_conds = !conds.conjuncts.empty() || !conds.or_groups.empty();
  if (base != nullptr) {
    for (const SqlCond& cond : conds.conjuncts) {
      auto idx = base->schema().ColumnIndex(cond.column);
      if (!idx || base->FindIndexOn({*idx}) == nullptr) continue;
      if (cond.op == "=" || cond.op == "IN") return "index probe";
      if (cond.op == "<" || cond.op == "<=" || cond.op == ">" ||
          cond.op == ">=") {
        return "range scan";
      }
    }
  }
  return has_conds ? "full scan+filter" : "full scan";
}

}  // namespace db2graph::core
