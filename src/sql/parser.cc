#include "sql/parser.h"

#include <utility>

#include "common/strings.h"
#include "sql/lexer.h"

namespace db2graph::sql {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<std::unique_ptr<Statement>> ParseStatement() {
    auto stmt = std::make_unique<Statement>();
    if (IsKeyword("CREATE")) {
      DB2G_RETURN_NOT_OK(ParseCreate(stmt.get()));
    } else if (IsKeyword("DROP")) {
      DB2G_RETURN_NOT_OK(ParseDrop(stmt.get()));
    } else if (IsKeyword("INSERT")) {
      DB2G_RETURN_NOT_OK(ParseInsert(stmt.get()));
    } else if (IsKeyword("UPDATE")) {
      DB2G_RETURN_NOT_OK(ParseUpdate(stmt.get()));
    } else if (IsKeyword("DELETE")) {
      DB2G_RETURN_NOT_OK(ParseDelete(stmt.get()));
    } else if (ConsumeKeyword("SELECT")) {
      stmt->kind = StatementKind::kSelect;
      auto select = std::make_shared<SelectStmt>();
      DB2G_RETURN_NOT_OK(ParseSelect(select.get()));
      stmt->select = std::move(select);
    } else if (ConsumeKeyword("EXPLAIN")) {
      bool analyze = ConsumeKeyword("ANALYZE");
      DB2G_RETURN_NOT_OK(ExpectKeyword("SELECT"));
      stmt->kind = StatementKind::kSelect;
      auto select = std::make_shared<SelectStmt>();
      select->explain = true;
      select->analyze = analyze;
      DB2G_RETURN_NOT_OK(ParseSelect(select.get()));
      stmt->select = std::move(select);
    } else if (IsKeyword("GRANT") || IsKeyword("REVOKE")) {
      DB2G_RETURN_NOT_OK(ParseGrant(stmt.get()));
    } else if (ConsumeKeyword("BEGIN") || ConsumeKeyword("START")) {
      ConsumeKeyword("TRANSACTION");
      ConsumeKeyword("WORK");
      stmt->kind = StatementKind::kBegin;
    } else if (ConsumeKeyword("COMMIT")) {
      ConsumeKeyword("WORK");
      stmt->kind = StatementKind::kCommit;
    } else if (ConsumeKeyword("ROLLBACK")) {
      ConsumeKeyword("WORK");
      stmt->kind = StatementKind::kRollback;
    } else {
      return Error("expected a SQL statement");
    }
    ConsumeOperator(";");
    if (Peek().type != TokenType::kEnd) {
      return Error("unexpected trailing tokens");
    }
    return stmt;
  }

  int param_count() const { return param_count_; }

 private:
  // ---- token helpers -------------------------------------------------
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }

  bool IsKeyword(const char* kw, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.type == TokenType::kIdentifier && EqualsIgnoreCase(t.text, kw);
  }
  bool ConsumeKeyword(const char* kw) {
    if (IsKeyword(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool IsOperator(const char* op, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.type == TokenType::kOperator && t.text == op;
  }
  bool ConsumeOperator(const char* op) {
    if (IsOperator(op)) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status ExpectKeyword(const char* kw) {
    if (!ConsumeKeyword(kw)) {
      return Error(std::string("expected keyword ") + kw);
    }
    return Status::OK();
  }
  Status ExpectOperator(const char* op) {
    if (!ConsumeOperator(op)) {
      return Error(std::string("expected '") + op + "'");
    }
    return Status::OK();
  }
  Status ExpectIdentifier(std::string* out) {
    if (Peek().type != TokenType::kIdentifier) {
      return Error("expected an identifier");
    }
    *out = Advance().text;
    return Status::OK();
  }
  Status Error(const std::string& what) const {
    return Status::InvalidArgument(
        "SQL parse error near offset " + std::to_string(Peek().offset) +
        " (token '" + Peek().text + "'): " + what);
  }

  // ---- statements -----------------------------------------------------
  Status ParseCreate(Statement* stmt) {
    ExpectKeyword("CREATE").ok();  // caller verified
    if (ConsumeKeyword("TABLE")) {
      stmt->kind = StatementKind::kCreateTable;
      stmt->create_table = std::make_unique<CreateTableStmt>();
      return ParseCreateTable(stmt->create_table.get());
    }
    bool unique = ConsumeKeyword("UNIQUE");
    bool ordered = ConsumeKeyword("ORDERED");
    if (ConsumeKeyword("INDEX")) {
      stmt->kind = StatementKind::kCreateIndex;
      stmt->create_index = std::make_unique<CreateIndexStmt>();
      stmt->create_index->unique = unique;
      stmt->create_index->ordered = ordered;
      return ParseCreateIndex(stmt->create_index.get());
    }
    if (unique || ordered) return Error("expected INDEX");
    if (ConsumeKeyword("VIEW")) {
      stmt->kind = StatementKind::kCreateView;
      stmt->create_view = std::make_unique<CreateViewStmt>();
      return ParseCreateView(stmt->create_view.get());
    }
    return Error("expected TABLE, INDEX, or VIEW after CREATE");
  }

  Status ParseCreateTable(CreateTableStmt* out) {
    if (ConsumeKeyword("IF")) {
      DB2G_RETURN_NOT_OK(ExpectKeyword("NOT"));
      DB2G_RETURN_NOT_OK(ExpectKeyword("EXISTS"));
      out->if_not_exists = true;
    }
    DB2G_RETURN_NOT_OK(ExpectIdentifier(&out->schema.name));
    DB2G_RETURN_NOT_OK(ExpectOperator("("));
    while (true) {
      if (IsKeyword("PRIMARY")) {
        Advance();
        DB2G_RETURN_NOT_OK(ExpectKeyword("KEY"));
        DB2G_RETURN_NOT_OK(ParseNameList(&out->schema.primary_key));
      } else if (IsKeyword("FOREIGN")) {
        Advance();
        DB2G_RETURN_NOT_OK(ExpectKeyword("KEY"));
        ForeignKey fk;
        DB2G_RETURN_NOT_OK(ParseNameList(&fk.columns));
        DB2G_RETURN_NOT_OK(ExpectKeyword("REFERENCES"));
        DB2G_RETURN_NOT_OK(ExpectIdentifier(&fk.ref_table));
        DB2G_RETURN_NOT_OK(ParseNameList(&fk.ref_columns));
        out->schema.foreign_keys.push_back(std::move(fk));
      } else {
        ColumnDef col;
        DB2G_RETURN_NOT_OK(ExpectIdentifier(&col.name));
        DB2G_RETURN_NOT_OK(ParseColumnType(&col.type));
        // Column attributes in any order.
        while (true) {
          if (ConsumeKeyword("NOT")) {
            DB2G_RETURN_NOT_OK(ExpectKeyword("NULL"));
            col.not_null = true;
          } else if (IsKeyword("PRIMARY")) {
            Advance();
            DB2G_RETURN_NOT_OK(ExpectKeyword("KEY"));
            out->schema.primary_key.push_back(col.name);
            col.not_null = true;
          } else if (IsKeyword("REFERENCES")) {
            Advance();
            ForeignKey fk;
            fk.columns.push_back(col.name);
            DB2G_RETURN_NOT_OK(ExpectIdentifier(&fk.ref_table));
            DB2G_RETURN_NOT_OK(ParseNameList(&fk.ref_columns));
            out->schema.foreign_keys.push_back(std::move(fk));
          } else {
            break;
          }
        }
        out->schema.columns.push_back(std::move(col));
      }
      if (ConsumeOperator(",")) continue;
      DB2G_RETURN_NOT_OK(ExpectOperator(")"));
      break;
    }
    return Status::OK();
  }

  Status ParseColumnType(ColumnType* out) {
    std::string name;
    DB2G_RETURN_NOT_OK(ExpectIdentifier(&name));
    std::string up = ToUpper(name);
    if (up == "BIGINT" || up == "INT" || up == "INTEGER" ||
        up == "SMALLINT") {
      *out = ColumnType::kInt;
    } else if (up == "DOUBLE" || up == "FLOAT" || up == "REAL" ||
               up == "DECIMAL" || up == "NUMERIC") {
      *out = ColumnType::kDouble;
      // Optional (p, s).
      if (ConsumeOperator("(")) {
        while (!ConsumeOperator(")")) Advance();
      }
    } else if (up == "VARCHAR" || up == "CHAR" || up == "TEXT" ||
               up == "CLOB" || up == "DATE" || up == "TIMESTAMP") {
      *out = ColumnType::kString;
      if (ConsumeOperator("(")) {
        while (!ConsumeOperator(")")) Advance();
      }
    } else if (up == "BOOLEAN" || up == "BOOL") {
      *out = ColumnType::kBool;
    } else {
      return Error("unsupported column type " + name);
    }
    return Status::OK();
  }

  Status ParseNameList(std::vector<std::string>* out) {
    DB2G_RETURN_NOT_OK(ExpectOperator("("));
    while (true) {
      std::string name;
      DB2G_RETURN_NOT_OK(ExpectIdentifier(&name));
      out->push_back(std::move(name));
      if (ConsumeOperator(",")) continue;
      return ExpectOperator(")");
    }
  }

  Status ParseCreateIndex(CreateIndexStmt* out) {
    DB2G_RETURN_NOT_OK(ExpectIdentifier(&out->index_name));
    DB2G_RETURN_NOT_OK(ExpectKeyword("ON"));
    DB2G_RETURN_NOT_OK(ExpectIdentifier(&out->table));
    return ParseNameList(&out->columns);
  }

  Status ParseCreateView(CreateViewStmt* out) {
    DB2G_RETURN_NOT_OK(ExpectIdentifier(&out->name));
    DB2G_RETURN_NOT_OK(ExpectKeyword("AS"));
    size_t select_start = Peek().offset;
    DB2G_RETURN_NOT_OK(ExpectKeyword("SELECT"));
    out->select = std::make_shared<SelectStmt>();
    DB2G_RETURN_NOT_OK(ParseSelect(out->select.get()));
    out->select_text = source_.substr(select_start);
    return Status::OK();
  }

  Status ParseDrop(Statement* stmt) {
    ExpectKeyword("DROP").ok();
    bool is_view = false;
    if (!ConsumeKeyword("TABLE")) {
      if (ConsumeKeyword("VIEW")) {
        is_view = true;
      } else {
        return Error("expected TABLE or VIEW after DROP");
      }
    }
    (void)is_view;  // tables and views share the drop path
    stmt->kind = StatementKind::kDropTable;
    stmt->drop_table = std::make_unique<DropTableStmt>();
    if (ConsumeKeyword("IF")) {
      DB2G_RETURN_NOT_OK(ExpectKeyword("EXISTS"));
      stmt->drop_table->if_exists = true;
    }
    return ExpectIdentifier(&stmt->drop_table->table);
  }

  Status ParseInsert(Statement* stmt) {
    ExpectKeyword("INSERT").ok();
    DB2G_RETURN_NOT_OK(ExpectKeyword("INTO"));
    stmt->kind = StatementKind::kInsert;
    stmt->insert = std::make_unique<InsertStmt>();
    DB2G_RETURN_NOT_OK(ExpectIdentifier(&stmt->insert->table));
    if (IsOperator("(")) {
      DB2G_RETURN_NOT_OK(ParseNameList(&stmt->insert->columns));
    }
    DB2G_RETURN_NOT_OK(ExpectKeyword("VALUES"));
    while (true) {
      DB2G_RETURN_NOT_OK(ExpectOperator("("));
      std::vector<std::unique_ptr<Expr>> row;
      while (true) {
        std::unique_ptr<Expr> e;
        DB2G_RETURN_NOT_OK(ParseExpr(&e));
        row.push_back(std::move(e));
        if (ConsumeOperator(",")) continue;
        DB2G_RETURN_NOT_OK(ExpectOperator(")"));
        break;
      }
      stmt->insert->rows.push_back(std::move(row));
      if (!ConsumeOperator(",")) break;
    }
    return Status::OK();
  }

  Status ParseUpdate(Statement* stmt) {
    ExpectKeyword("UPDATE").ok();
    stmt->kind = StatementKind::kUpdate;
    stmt->update = std::make_unique<UpdateStmt>();
    DB2G_RETURN_NOT_OK(ExpectIdentifier(&stmt->update->table));
    DB2G_RETURN_NOT_OK(ExpectKeyword("SET"));
    while (true) {
      std::string column;
      DB2G_RETURN_NOT_OK(ExpectIdentifier(&column));
      DB2G_RETURN_NOT_OK(ExpectOperator("="));
      std::unique_ptr<Expr> e;
      DB2G_RETURN_NOT_OK(ParseExpr(&e));
      stmt->update->assignments.emplace_back(std::move(column), std::move(e));
      if (!ConsumeOperator(",")) break;
    }
    if (ConsumeKeyword("WHERE")) {
      DB2G_RETURN_NOT_OK(ParseExpr(&stmt->update->where));
    }
    return Status::OK();
  }

  Status ParseGrant(Statement* stmt) {
    bool revoke = ConsumeKeyword("REVOKE");
    if (!revoke) {
      DB2G_RETURN_NOT_OK(ExpectKeyword("GRANT"));
    }
    stmt->kind = revoke ? StatementKind::kRevoke : StatementKind::kGrant;
    stmt->grant = std::make_unique<GrantStmt>();
    stmt->grant->is_revoke = revoke;
    if (ConsumeKeyword("ALL")) {
      ConsumeKeyword("PRIVILEGES");
      stmt->grant->select_only = false;
    } else {
      DB2G_RETURN_NOT_OK(ExpectKeyword("SELECT"));
    }
    DB2G_RETURN_NOT_OK(ExpectKeyword("ON"));
    ConsumeKeyword("TABLE");
    DB2G_RETURN_NOT_OK(ExpectIdentifier(&stmt->grant->table));
    if (revoke) {
      DB2G_RETURN_NOT_OK(ExpectKeyword("FROM"));
    } else {
      DB2G_RETURN_NOT_OK(ExpectKeyword("TO"));
    }
    return ExpectIdentifier(&stmt->grant->user);
  }

  Status ParseDelete(Statement* stmt) {
    ExpectKeyword("DELETE").ok();
    DB2G_RETURN_NOT_OK(ExpectKeyword("FROM"));
    stmt->kind = StatementKind::kDelete;
    stmt->del = std::make_unique<DeleteStmt>();
    DB2G_RETURN_NOT_OK(ExpectIdentifier(&stmt->del->table));
    if (ConsumeKeyword("WHERE")) {
      DB2G_RETURN_NOT_OK(ParseExpr(&stmt->del->where));
    }
    return Status::OK();
  }

  Status ParseSelect(SelectStmt* out) {
    // Caller consumed SELECT.
    out->distinct = ConsumeKeyword("DISTINCT");
    ConsumeKeyword("ALL");
    while (true) {
      SelectItem item;
      DB2G_RETURN_NOT_OK(ParseExpr(&item.expr));
      if (ConsumeKeyword("AS")) {
        DB2G_RETURN_NOT_OK(ExpectIdentifier(&item.alias));
      } else if (Peek().type == TokenType::kIdentifier &&
                 !IsAnyKeyword(Peek().text)) {
        item.alias = Advance().text;
      }
      out->items.push_back(std::move(item));
      if (!ConsumeOperator(",")) break;
    }
    if (ConsumeKeyword("FROM")) {
      while (true) {
        TableRef ref;
        DB2G_RETURN_NOT_OK(ParseTableRef(&ref));
        out->from.push_back(std::move(ref));
        if (!ConsumeOperator(",")) break;
      }
      // JOIN chain.
      while (true) {
        JoinClause join;
        if (ConsumeKeyword("JOIN") ||
            (IsKeyword("INNER") && IsKeyword("JOIN", 1) &&
             (Advance(), ConsumeKeyword("JOIN")))) {
          join.kind = JoinClause::Kind::kInner;
        } else if (IsKeyword("LEFT")) {
          Advance();
          ConsumeKeyword("OUTER");
          DB2G_RETURN_NOT_OK(ExpectKeyword("JOIN"));
          join.kind = JoinClause::Kind::kLeft;
        } else {
          break;
        }
        DB2G_RETURN_NOT_OK(ParseTableRef(&join.table));
        DB2G_RETURN_NOT_OK(ExpectKeyword("ON"));
        DB2G_RETURN_NOT_OK(ParseExpr(&join.on));
        out->joins.push_back(std::move(join));
      }
    }
    if (ConsumeKeyword("WHERE")) {
      DB2G_RETURN_NOT_OK(ParseExpr(&out->where));
    }
    if (ConsumeKeyword("GROUP")) {
      DB2G_RETURN_NOT_OK(ExpectKeyword("BY"));
      while (true) {
        std::unique_ptr<Expr> e;
        DB2G_RETURN_NOT_OK(ParseExpr(&e));
        out->group_by.push_back(std::move(e));
        if (!ConsumeOperator(",")) break;
      }
    }
    if (ConsumeKeyword("HAVING")) {
      DB2G_RETURN_NOT_OK(ParseExpr(&out->having));
    }
    if (ConsumeKeyword("ORDER")) {
      DB2G_RETURN_NOT_OK(ExpectKeyword("BY"));
      while (true) {
        OrderItem item;
        DB2G_RETURN_NOT_OK(ParseExpr(&item.expr));
        if (ConsumeKeyword("DESC")) {
          item.descending = true;
        } else {
          ConsumeKeyword("ASC");
        }
        out->order_by.push_back(std::move(item));
        if (!ConsumeOperator(",")) break;
      }
    }
    if (ConsumeKeyword("LIMIT") || ConsumeKeyword("FETCH")) {
      // Accept both LIMIT n and FETCH FIRST n ROWS ONLY.
      ConsumeKeyword("FIRST");
      if (Peek().type != TokenType::kNumber) {
        return Error("expected a row count");
      }
      out->limit = Advance().value.as_int();
      ConsumeKeyword("ROWS");
      ConsumeKeyword("ROW");
      ConsumeKeyword("ONLY");
    }
    return Status::OK();
  }

  Status ParseTableRef(TableRef* out) {
    if (ConsumeKeyword("TABLE")) {
      // TABLE ( func ( args... ) ) AS alias ( col type, ... )
      out->kind = TableRef::Kind::kTableFunction;
      DB2G_RETURN_NOT_OK(ExpectOperator("("));
      DB2G_RETURN_NOT_OK(ExpectIdentifier(&out->function_name));
      DB2G_RETURN_NOT_OK(ExpectOperator("("));
      if (!IsOperator(")")) {
        while (true) {
          std::unique_ptr<Expr> e;
          DB2G_RETURN_NOT_OK(ParseExpr(&e));
          out->function_args.push_back(std::move(e));
          if (!ConsumeOperator(",")) break;
        }
      }
      DB2G_RETURN_NOT_OK(ExpectOperator(")"));
      DB2G_RETURN_NOT_OK(ExpectOperator(")"));
      ConsumeKeyword("AS");
      DB2G_RETURN_NOT_OK(ExpectIdentifier(&out->alias));
      DB2G_RETURN_NOT_OK(ExpectOperator("("));
      while (true) {
        ColumnDef col;
        DB2G_RETURN_NOT_OK(ExpectIdentifier(&col.name));
        DB2G_RETURN_NOT_OK(ParseColumnType(&col.type));
        out->function_columns.push_back(std::move(col));
        if (ConsumeOperator(",")) continue;
        DB2G_RETURN_NOT_OK(ExpectOperator(")"));
        break;
      }
      return Status::OK();
    }
    if (ConsumeOperator("(")) {
      out->kind = TableRef::Kind::kSubquery;
      DB2G_RETURN_NOT_OK(ExpectKeyword("SELECT"));
      out->subquery = std::make_shared<SelectStmt>();
      DB2G_RETURN_NOT_OK(
          Nested([&] { return ParseSelect(out->subquery.get()); }));
      DB2G_RETURN_NOT_OK(ExpectOperator(")"));
      ConsumeKeyword("AS");
      DB2G_RETURN_NOT_OK(ExpectIdentifier(&out->alias));
      return Status::OK();
    }
    out->kind = TableRef::Kind::kTable;
    DB2G_RETURN_NOT_OK(ExpectIdentifier(&out->table));
    out->alias = out->table;
    if (ConsumeOperator(".")) {
      // Qualified name (schema.table, e.g. sysmon.query_log): the catalog
      // key is the full dotted name; the default alias is the bare part.
      std::string member;
      DB2G_RETURN_NOT_OK(ExpectIdentifier(&member));
      out->table += "." + member;
      out->alias = std::move(member);
    }
    if (ConsumeKeyword("AS")) {
      DB2G_RETURN_NOT_OK(ExpectIdentifier(&out->alias));
    } else if (Peek().type == TokenType::kIdentifier &&
               !IsAnyKeyword(Peek().text)) {
      out->alias = Advance().text;
    }
    return Status::OK();
  }

  // Keywords that terminate an implicit alias position.
  static bool IsAnyKeyword(const std::string& word) {
    static const char* kWords[] = {
        "FROM",  "WHERE", "GROUP",  "ORDER",  "LIMIT", "FETCH", "JOIN",
        "INNER", "LEFT",  "RIGHT",  "OUTER",  "ON",    "AS",    "AND",
        "OR",    "NOT",   "IN",     "IS",     "NULL",  "LIKE",  "BY",
        "ASC",   "DESC",  "VALUES", "SET",    "UNION", "HAVING", "TABLE",
        "DISTINCT", "BETWEEN"};
    for (const char* k : kWords) {
      if (EqualsIgnoreCase(word, k)) return true;
    }
    return false;
  }

  // Runs one recursive production (a parenthesized or argument
  // expression, a NOT or unary-minus operand, a FROM subquery) one level
  // deeper; input nested past kMaxNestingDepth fails to parse instead of
  // overflowing the stack.
  template <typename ParseFn>
  Status Nested(ParseFn parse) {
    if (depth_ == kMaxNestingDepth) {
      return Error("nesting deeper than " + std::to_string(kMaxNestingDepth));
    }
    ++depth_;
    Status st = parse();
    --depth_;
    return st;
  }

  // ---- expressions ----------------------------------------------------
  // or_expr := and_expr (OR and_expr)*
  Status ParseExpr(std::unique_ptr<Expr>* out) {
    DB2G_RETURN_NOT_OK(ParseAnd(out));
    while (ConsumeKeyword("OR")) {
      std::unique_ptr<Expr> rhs;
      DB2G_RETURN_NOT_OK(ParseAnd(&rhs));
      *out = MakeBinary("OR", std::move(*out), std::move(rhs));
    }
    return Status::OK();
  }

  Status ParseAnd(std::unique_ptr<Expr>* out) {
    DB2G_RETURN_NOT_OK(ParseNot(out));
    while (ConsumeKeyword("AND")) {
      std::unique_ptr<Expr> rhs;
      DB2G_RETURN_NOT_OK(ParseNot(&rhs));
      *out = MakeBinary("AND", std::move(*out), std::move(rhs));
    }
    return Status::OK();
  }

  Status ParseNot(std::unique_ptr<Expr>* out) {
    if (ConsumeKeyword("NOT")) {
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kUnary;
      e->op = "NOT";
      std::unique_ptr<Expr> child;
      DB2G_RETURN_NOT_OK(Nested([&] { return ParseNot(&child); }));
      e->children.push_back(std::move(child));
      *out = std::move(e);
      return Status::OK();
    }
    return ParseComparison(out);
  }

  Status ParseComparison(std::unique_ptr<Expr>* out) {
    DB2G_RETURN_NOT_OK(ParseAdditive(out));
    // IS [NOT] NULL
    if (ConsumeKeyword("IS")) {
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kIsNull;
      e->negated = ConsumeKeyword("NOT");
      DB2G_RETURN_NOT_OK(ExpectKeyword("NULL"));
      e->children.push_back(std::move(*out));
      *out = std::move(e);
      return Status::OK();
    }
    bool negated = false;
    if (IsKeyword("NOT") && (IsKeyword("IN", 1) || IsKeyword("LIKE", 1) ||
                             IsKeyword("BETWEEN", 1))) {
      Advance();
      negated = true;
    }
    if (ConsumeKeyword("IN")) {
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kIn;
      e->negated = negated;
      e->children.push_back(std::move(*out));
      DB2G_RETURN_NOT_OK(ExpectOperator("("));
      if (!IsOperator(")")) {
        while (true) {
          std::unique_ptr<Expr> item;
          DB2G_RETURN_NOT_OK(ParseAdditive(&item));
          e->children.push_back(std::move(item));
          if (!ConsumeOperator(",")) break;
        }
      }
      DB2G_RETURN_NOT_OK(ExpectOperator(")"));
      *out = std::move(e);
      return Status::OK();
    }
    if (ConsumeKeyword("LIKE")) {
      std::unique_ptr<Expr> rhs;
      DB2G_RETURN_NOT_OK(ParseAdditive(&rhs));
      *out = MakeBinary("LIKE", std::move(*out), std::move(rhs));
      if (negated) {
        auto n = std::make_unique<Expr>();
        n->kind = ExprKind::kUnary;
        n->op = "NOT";
        n->children.push_back(std::move(*out));
        *out = std::move(n);
      }
      return Status::OK();
    }
    if (ConsumeKeyword("BETWEEN")) {
      std::unique_ptr<Expr> lo;
      std::unique_ptr<Expr> hi;
      DB2G_RETURN_NOT_OK(ParseAdditive(&lo));
      DB2G_RETURN_NOT_OK(ExpectKeyword("AND"));
      DB2G_RETURN_NOT_OK(ParseAdditive(&hi));
      auto ge = MakeBinary(">=", (*out)->Clone(), std::move(lo));
      auto le = MakeBinary("<=", std::move(*out), std::move(hi));
      *out = MakeBinary("AND", std::move(ge), std::move(le));
      if (negated) {
        auto n = std::make_unique<Expr>();
        n->kind = ExprKind::kUnary;
        n->op = "NOT";
        n->children.push_back(std::move(*out));
        *out = std::move(n);
      }
      return Status::OK();
    }
    static const char* kComparators[] = {"=", "<>", "!=", "<=", ">=",
                                         "<", ">"};
    for (const char* op : kComparators) {
      if (IsOperator(op)) {
        Advance();
        std::unique_ptr<Expr> rhs;
        DB2G_RETURN_NOT_OK(ParseAdditive(&rhs));
        *out = MakeBinary(op, std::move(*out), std::move(rhs));
        return Status::OK();
      }
    }
    return Status::OK();
  }

  Status ParseAdditive(std::unique_ptr<Expr>* out) {
    DB2G_RETURN_NOT_OK(ParseMultiplicative(out));
    while (IsOperator("+") || IsOperator("-") || IsOperator("||")) {
      std::string op = Advance().text;
      std::unique_ptr<Expr> rhs;
      DB2G_RETURN_NOT_OK(ParseMultiplicative(&rhs));
      *out = MakeBinary(op, std::move(*out), std::move(rhs));
    }
    return Status::OK();
  }

  Status ParseMultiplicative(std::unique_ptr<Expr>* out) {
    DB2G_RETURN_NOT_OK(ParseUnary(out));
    while (IsOperator("*") || IsOperator("/") || IsOperator("%")) {
      std::string op = Advance().text;
      std::unique_ptr<Expr> rhs;
      DB2G_RETURN_NOT_OK(ParseUnary(&rhs));
      *out = MakeBinary(op, std::move(*out), std::move(rhs));
    }
    return Status::OK();
  }

  Status ParseUnary(std::unique_ptr<Expr>* out) {
    if (IsOperator("-")) {
      Advance();
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kUnary;
      e->op = "-";
      std::unique_ptr<Expr> child;
      DB2G_RETURN_NOT_OK(Nested([&] { return ParseUnary(&child); }));
      e->children.push_back(std::move(child));
      *out = std::move(e);
      return Status::OK();
    }
    return ParsePrimary(out);
  }

  Status ParsePrimary(std::unique_ptr<Expr>* out) {
    const Token& t = Peek();
    if (t.type == TokenType::kNumber || t.type == TokenType::kString) {
      *out = MakeLiteral(Advance().value);
      return Status::OK();
    }
    if (IsOperator("?")) {
      Advance();
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kParam;
      e->param_index = param_count_++;
      *out = std::move(e);
      return Status::OK();
    }
    if (IsOperator("*")) {
      Advance();
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kStar;
      *out = std::move(e);
      return Status::OK();
    }
    if (ConsumeOperator("(")) {
      DB2G_RETURN_NOT_OK(Nested([&] { return ParseExpr(out); }));
      return ExpectOperator(")");
    }
    if (t.type == TokenType::kIdentifier) {
      if (EqualsIgnoreCase(t.text, "NULL")) {
        Advance();
        *out = MakeLiteral(Value::Null());
        return Status::OK();
      }
      if (EqualsIgnoreCase(t.text, "TRUE") ||
          EqualsIgnoreCase(t.text, "FALSE")) {
        *out = MakeLiteral(Value(EqualsIgnoreCase(Advance().text, "TRUE")));
        return Status::OK();
      }
      std::string first = Advance().text;
      // Function call?
      if (IsOperator("(")) {
        Advance();
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kFuncCall;
        e->op = first;
        if (!IsOperator(")")) {
          ConsumeKeyword("DISTINCT");  // COUNT(DISTINCT x): treated as COUNT
          while (true) {
            std::unique_ptr<Expr> arg;
            DB2G_RETURN_NOT_OK(Nested([&] { return ParseExpr(&arg); }));
            e->children.push_back(std::move(arg));
            if (!ConsumeOperator(",")) break;
          }
        }
        DB2G_RETURN_NOT_OK(ExpectOperator(")"));
        *out = std::move(e);
        return Status::OK();
      }
      // alias.column / alias.*
      if (ConsumeOperator(".")) {
        if (ConsumeOperator("*")) {
          auto e = std::make_unique<Expr>();
          e->kind = ExprKind::kStar;
          e->table_alias = first;
          *out = std::move(e);
          return Status::OK();
        }
        std::string column;
        DB2G_RETURN_NOT_OK(ExpectIdentifier(&column));
        *out = MakeColumnRef(first, column);
        return Status::OK();
      }
      *out = MakeColumnRef("", first);
      return Status::OK();
    }
    return Error("expected an expression");
  }

 public:
  void set_source(std::string s) { source_ = std::move(s); }

 private:
  static constexpr int kMaxNestingDepth = 256;

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int param_count_ = 0;
  int depth_ = 0;
  std::string source_;
};

}  // namespace

Result<std::unique_ptr<Statement>> ParseSql(const std::string& sql,
                                            int* param_count) {
  Result<std::vector<Token>> tokens = Tokenize(sql);
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(*tokens));
  parser.set_source(sql);
  Result<std::unique_ptr<Statement>> stmt = parser.ParseStatement();
  if (stmt.ok() && param_count != nullptr) {
    *param_count = parser.param_count();
  }
  return stmt;
}

}  // namespace db2graph::sql
