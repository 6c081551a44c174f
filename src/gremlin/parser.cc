#include "gremlin/parser.h"

#include <cctype>
#include <cstdlib>

#include "common/metrics.h"
#include "common/strings.h"

namespace db2graph::gremlin {

namespace {

// ---------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------

enum class TokType { kIdent, kString, kNumber, kPunct, kEnd };

struct Tok {
  TokType type = TokType::kEnd;
  std::string text;
  Value value;
  size_t offset = 0;
};

Result<std::vector<Tok>> Lex(const std::string& text) {
  std::vector<Tok> out;
  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      while (i < n && text[i] != '\n') ++i;
      continue;
    }
    Tok tok;
    tok.offset = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(text[i])) ||
                       text[i] == '_')) {
        ++i;
      }
      tok.type = TokType::kIdent;
      tok.text = text.substr(start, i - start);
      out.push_back(std::move(tok));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(text[i + 1])))) {
      size_t start = i;
      if (c == '-') ++i;
      bool is_double = false;
      while (i < n && (std::isdigit(static_cast<unsigned char>(text[i])) ||
                       text[i] == '.')) {
        if (text[i] == '.') {
          // Stop at a method-call dot: "1.hasLabel" (ids are ints).
          if (i + 1 < n &&
              !std::isdigit(static_cast<unsigned char>(text[i + 1]))) {
            break;
          }
          is_double = true;
        }
        ++i;
      }
      std::string num = text.substr(start, i - start);
      tok.type = TokType::kNumber;
      tok.text = num;
      tok.value = is_double
                      ? Value(std::strtod(num.c_str(), nullptr))
                      : Value(static_cast<int64_t>(
                            std::strtoll(num.c_str(), nullptr, 10)));
      // Gremlin long suffix: 123L
      if (i < n && (text[i] == 'L' || text[i] == 'l')) ++i;
      out.push_back(std::move(tok));
      continue;
    }
    if (c == '\'' || c == '"') {
      char quote = c;
      std::string s;
      ++i;
      while (i < n && text[i] != quote) {
        if (text[i] == '\\' && i + 1 < n) {
          char e = text[i + 1];
          if (e == quote || e == '\\') {
            s.push_back(e);
            i += 2;
            continue;
          }
          if (e == 'n') {
            s.push_back('\n');
            i += 2;
            continue;
          }
        }
        s.push_back(text[i++]);
      }
      if (i >= n) {
        return Status::InvalidArgument(
            "Gremlin: unterminated string at offset " +
            std::to_string(tok.offset));
      }
      ++i;
      tok.type = TokType::kString;
      tok.text = s;
      tok.value = Value(std::move(s));
      out.push_back(std::move(tok));
      continue;
    }
    static const std::string kPunct = ".(),;=";
    if (kPunct.find(c) != std::string::npos) {
      tok.type = TokType::kPunct;
      tok.text = std::string(1, c);
      ++i;
      out.push_back(std::move(tok));
      continue;
    }
    return Status::InvalidArgument(std::string("Gremlin: unexpected '") + c +
                                   "' at offset " + std::to_string(i));
  }
  Tok end;
  end.offset = n;
  out.push_back(std::move(end));
  return out;
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

bool IsPredicateName(const std::string& name) {
  static const char* kNames[] = {"eq",  "neq",    "lt",     "lte", "gt",
                                 "gte", "within", "without"};
  for (const char* k : kNames) {
    if (name == k) return true;
  }
  return false;
}

PropPredicate::Op PredicateOp(const std::string& name) {
  if (name == "eq") return PropPredicate::Op::kEq;
  if (name == "neq") return PropPredicate::Op::kNeq;
  if (name == "lt") return PropPredicate::Op::kLt;
  if (name == "lte") return PropPredicate::Op::kLte;
  if (name == "gt") return PropPredicate::Op::kGt;
  if (name == "gte") return PropPredicate::Op::kGte;
  if (name == "within") return PropPredicate::Op::kWithin;
  return PropPredicate::Op::kWithout;
}

// A parsed step argument.
struct Arg {
  enum class Kind { kLiteral, kVar, kPredicate, kTraversal };
  Kind kind = Kind::kLiteral;
  Value literal;
  std::string var;
  PropPredicate::Op pred_op = PropPredicate::Op::kEq;
  std::vector<Value> pred_values;
  std::string pred_var;  // gt(threshold): bind placeholder, no literals
  std::vector<Step> traversal;
};

class GremlinParser {
 public:
  explicit GremlinParser(std::vector<Tok> toks) : toks_(std::move(toks)) {}

  Result<Script> ParseScript() {
    Script script;
    while (Peek().type != TokType::kEnd) {
      ScriptStatement stmt;
      DB2G_RETURN_NOT_OK(ParseStatement(&stmt));
      script.statements.push_back(std::move(stmt));
      while (ConsumePunct(";")) {
      }
    }
    if (script.statements.empty()) {
      return Status::InvalidArgument("Gremlin: empty script");
    }
    return script;
  }

 private:
  const Tok& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  const Tok& Advance() { return toks_[pos_++]; }
  bool IsPunct(const char* p, size_t ahead = 0) const {
    const Tok& t = Peek(ahead);
    return t.type == TokType::kPunct && t.text == p;
  }
  bool ConsumePunct(const char* p) {
    if (IsPunct(p)) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status ExpectPunct(const char* p) {
    if (!ConsumePunct(p)) {
      return Error(std::string("expected '") + p + "'");
    }
    return Status::OK();
  }
  Status Error(const std::string& what) const {
    return Status::InvalidArgument(
        "Gremlin parse error near offset " + std::to_string(Peek().offset) +
        " (token '" + Peek().text + "'): " + what);
  }

  Status ParseStatement(ScriptStatement* out) {
    // ident '=' traversal | traversal
    if (Peek().type == TokType::kIdent && Peek().text != "g" &&
        IsPunct("=", 1)) {
      out->assign_to = Advance().text;
      Advance();  // '='
    }
    if (Peek().type != TokType::kIdent || Peek().text != "g") {
      return Error("expected a traversal starting with 'g'");
    }
    Advance();  // g
    return ParseChain(&out->traversal.steps, out);
  }

  // Parses ".step(...).step(...)" until the chain ends. `stmt` is the
  // enclosing statement for terminal flags, nullptr in sub-traversals
  // (where terminals are illegal).
  Status ParseChain(std::vector<Step>* steps, ScriptStatement* stmt) {
    while (ConsumePunct(".")) {
      if (Peek().type != TokType::kIdent) {
        return Error("expected a step name after '.'");
      }
      std::string name = Advance().text;
      std::vector<Arg> args;
      DB2G_RETURN_NOT_OK(ExpectPunct("("));
      if (!IsPunct(")")) {
        while (true) {
          Arg arg;
          DB2G_RETURN_NOT_OK(ParseArg(&arg));
          args.push_back(std::move(arg));
          if (!ConsumePunct(",")) break;
        }
      }
      DB2G_RETURN_NOT_OK(ExpectPunct(")"));
      // Terminals end the chain.
      if (name == "next") {
        if (stmt == nullptr) {
          return Error(".next() not allowed inside a sub-traversal");
        }
        stmt->terminal_next = true;
        break;
      }
      if (name == "profile") {
        if (stmt == nullptr) {
          return Error(".profile() not allowed inside a sub-traversal");
        }
        stmt->terminal_profile = true;
        break;
      }
      if (name == "toList" || name == "iterate") break;
      DB2G_RETURN_NOT_OK(AppendStep(name, std::move(args), steps));
    }
    return Status::OK();
  }

  // Sub-traversal arguments recurse (ParseArg -> ParseChain -> ParseArg),
  // so nesting is bounded: hostile input must fail to parse, not
  // overflow the stack.
  Status ParseArg(Arg* out) {
    if (depth_ == kMaxNestingDepth) {
      return Error("nesting deeper than " + std::to_string(kMaxNestingDepth));
    }
    ++depth_;
    Status st = ParseArgAtDepth(out);
    --depth_;
    return st;
  }

  Status ParseArgAtDepth(Arg* out) {
    const Tok& t = Peek();
    if (t.type == TokType::kString || t.type == TokType::kNumber) {
      out->kind = Arg::Kind::kLiteral;
      out->literal = Advance().value;
      return Status::OK();
    }
    if (t.type == TokType::kIdent) {
      std::string name = t.text;
      if (name == "__") {
        Advance();
        out->kind = Arg::Kind::kTraversal;
        return ParseChain(&out->traversal, nullptr);
      }
      if (IsPunct("(", 1)) {
        if (IsPredicateName(name)) {
          Advance();
          Advance();  // '('
          out->kind = Arg::Kind::kPredicate;
          out->pred_op = PredicateOp(name);
          while (!IsPunct(")")) {
            const Tok& v = Peek();
            // A single bare identifier makes the whole predicate a bind
            // placeholder, resolved per execution: gt(threshold).
            if (v.type == TokType::kIdent && v.text != "true" &&
                v.text != "false") {
              if (!out->pred_values.empty() || !out->pred_var.empty()) {
                return Error(
                    "a predicate binds either literals or one variable");
              }
              out->pred_var = Advance().text;
              if (ConsumePunct(",")) {
                return Error(
                    "a predicate binds either literals or one variable");
              }
              break;
            }
            if (v.type != TokType::kString && v.type != TokType::kNumber) {
              return Error("predicate arguments must be literals");
            }
            if (!out->pred_var.empty()) {
              return Error(
                  "a predicate binds either literals or one variable");
            }
            out->pred_values.push_back(Advance().value);
            if (!ConsumePunct(",")) break;
          }
          return ExpectPunct(")");
        }
        // Anonymous traversal starting directly with a step name:
        // where(inV().hasId(...)).
        out->kind = Arg::Kind::kTraversal;
        // Re-parse as a chain: synthesize the leading '.' by handling the
        // first call inline.
        Advance();  // step name consumed above copy; re-do properly:
        std::vector<Arg> args;
        DB2G_RETURN_NOT_OK(ExpectPunct("("));
        if (!IsPunct(")")) {
          while (true) {
            Arg arg;
            DB2G_RETURN_NOT_OK(ParseArg(&arg));
            args.push_back(std::move(arg));
            if (!ConsumePunct(",")) break;
          }
        }
        DB2G_RETURN_NOT_OK(ExpectPunct(")"));
        DB2G_RETURN_NOT_OK(AppendStep(name, std::move(args), &out->traversal));
        return ParseChain(&out->traversal, nullptr);
      }
      // Bare identifier: a script variable.
      Advance();
      if (name == "true" || name == "false") {
        out->kind = Arg::Kind::kLiteral;
        out->literal = Value(name == "true");
        return Status::OK();
      }
      out->kind = Arg::Kind::kVar;
      out->var = name;
      return Status::OK();
    }
    return Error("expected a step argument");
  }

  // ---- step construction ---------------------------------------------
  static Status NeedStrings(const std::string& name,
                            const std::vector<Arg>& args,
                            std::vector<std::string>* out) {
    for (const Arg& arg : args) {
      if (arg.kind != Arg::Kind::kLiteral || !arg.literal.is_string()) {
        return Status::InvalidArgument("Gremlin: " + name +
                                       "() expects string arguments");
      }
      out->push_back(arg.literal.as_string());
    }
    return Status::OK();
  }

  static Status ArgsToIds(const std::vector<Arg>& args,
                          std::vector<GremlinArg>* out) {
    for (const Arg& arg : args) {
      GremlinArg id;
      if (arg.kind == Arg::Kind::kLiteral) {
        id.literal = arg.literal;
      } else if (arg.kind == Arg::Kind::kVar) {
        id.var = arg.var;
      } else {
        return Status::InvalidArgument(
            "Gremlin: ids must be literals or variables");
      }
      out->push_back(std::move(id));
    }
    return Status::OK();
  }

  Status AppendStep(const std::string& name, std::vector<Arg> args,
                    std::vector<Step>* steps) {
    Step step;
    if (name == "V" || name == "E") {
      step.kind = StepKind::kGraph;
      step.graph_emits_edges = (name == "E");
      DB2G_RETURN_NOT_OK(ArgsToIds(args, &step.start_ids));
      steps->push_back(std::move(step));
      return Status::OK();
    }
    if (name == "out" || name == "in" || name == "both" || name == "outE" ||
        name == "inE" || name == "bothE") {
      step.kind = StepKind::kVertex;
      step.to_vertex = (name == "out" || name == "in" || name == "both");
      step.direction = (name == "out" || name == "outE")
                           ? Direction::kOut
                           : (name == "in" || name == "inE")
                                 ? Direction::kIn
                                 : Direction::kBoth;
      DB2G_RETURN_NOT_OK(NeedStrings(name, args, &step.edge_labels));
      steps->push_back(std::move(step));
      return Status::OK();
    }
    if (name == "outV" || name == "inV" || name == "bothV") {
      step.kind = StepKind::kEdgeVertex;
      step.direction = name == "outV"
                           ? Direction::kOut
                           : name == "inV" ? Direction::kIn : Direction::kBoth;
      steps->push_back(std::move(step));
      return Status::OK();
    }
    if (name == "hasLabel") {
      step.kind = StepKind::kHas;
      PropPredicate pred;
      pred.key = kLabelKey;
      pred.op = PropPredicate::Op::kWithin;
      for (const Arg& arg : args) {
        if (arg.kind != Arg::Kind::kLiteral) {
          return Status::InvalidArgument("hasLabel() expects literals");
        }
        pred.values.push_back(arg.literal);
      }
      step.predicates.push_back(std::move(pred));
      steps->push_back(std::move(step));
      return Status::OK();
    }
    if (name == "hasId") {
      step.kind = StepKind::kHas;
      DB2G_RETURN_NOT_OK(ArgsToIds(args, &step.id_args));
      steps->push_back(std::move(step));
      return Status::OK();
    }
    if (name == "has") {
      step.kind = StepKind::kHas;
      PropPredicate pred;
      if (args.empty() || args[0].kind != Arg::Kind::kLiteral ||
          !args[0].literal.is_string()) {
        return Status::InvalidArgument(
            "has() expects a property key as first argument");
      }
      pred.key = args[0].literal.as_string();
      if (args.size() == 1) {
        pred.op = PropPredicate::Op::kExists;
      } else if (args.size() == 2) {
        if (args[1].kind == Arg::Kind::kLiteral) {
          pred.op = PropPredicate::Op::kEq;
          pred.values.push_back(args[1].literal);
        } else if (args[1].kind == Arg::Kind::kVar) {
          // has(key, var): equality against a per-execution binding.
          pred.op = PropPredicate::Op::kEq;
          pred.var = args[1].var;
        } else if (args[1].kind == Arg::Kind::kPredicate) {
          pred.op = args[1].pred_op;
          pred.values = args[1].pred_values;
          pred.var = args[1].pred_var;
        } else {
          return Status::InvalidArgument(
              "has() expects a literal or a P predicate");
        }
      } else {
        return Status::InvalidArgument("has() takes 1 or 2 arguments");
      }
      step.predicates.push_back(std::move(pred));
      steps->push_back(std::move(step));
      return Status::OK();
    }
    if (name == "values" || name == "valueMap") {
      step.kind = name == "values" ? StepKind::kValues : StepKind::kValueMap;
      DB2G_RETURN_NOT_OK(NeedStrings(name, args, &step.keys));
      steps->push_back(std::move(step));
      return Status::OK();
    }
    if (name == "id" || name == "label") {
      step.kind = name == "id" ? StepKind::kId : StepKind::kLabel;
      steps->push_back(std::move(step));
      return Status::OK();
    }
    if (name == "count" || name == "sum" || name == "mean" ||
        name == "min" || name == "max") {
      step.kind = StepKind::kAggregate;
      step.agg = name == "count"
                     ? AggOp::kCount
                     : name == "sum" ? AggOp::kSum
                                     : name == "mean" ? AggOp::kMean
                                                      : name == "min"
                                                            ? AggOp::kMin
                                                            : AggOp::kMax;
      steps->push_back(std::move(step));
      return Status::OK();
    }
    if (name == "dedup") {
      step.kind = StepKind::kDedup;
      steps->push_back(std::move(step));
      return Status::OK();
    }
    if (name == "limit") {
      step.kind = StepKind::kLimit;
      if (args.size() != 1 || args[0].kind != Arg::Kind::kLiteral ||
          !args[0].literal.is_int()) {
        return Status::InvalidArgument("limit() expects an integer");
      }
      step.high = args[0].literal.as_int();
      steps->push_back(std::move(step));
      return Status::OK();
    }
    if (name == "range") {
      step.kind = StepKind::kRange;
      if (args.size() != 2) {
        return Status::InvalidArgument("range() expects (low, high)");
      }
      step.low = args[0].literal.as_int();
      step.high = args[1].literal.as_int();
      steps->push_back(std::move(step));
      return Status::OK();
    }
    if (name == "order") {
      step.kind = StepKind::kOrder;
      if (!args.empty() && args[0].kind == Arg::Kind::kLiteral &&
          args[0].literal.is_string()) {
        step.descending = EqualsIgnoreCase(args[0].literal.as_string(),
                                           "desc");
      }
      steps->push_back(std::move(step));
      return Status::OK();
    }
    if (name == "by") {
      // Modulator: attaches an ordering key (and optional 'desc') to the
      // preceding order() step.
      if (steps->empty() || steps->back().kind != StepKind::kOrder) {
        return Status::InvalidArgument("by() must follow order()");
      }
      for (const Arg& arg : args) {
        if (arg.kind != Arg::Kind::kLiteral || !arg.literal.is_string()) {
          return Status::InvalidArgument("by() expects string arguments");
        }
        const std::string& text = arg.literal.as_string();
        if (EqualsIgnoreCase(text, "desc")) {
          steps->back().descending = true;
        } else if (EqualsIgnoreCase(text, "asc")) {
          steps->back().descending = false;
        } else {
          steps->back().keys.push_back(text);
        }
      }
      return Status::OK();
    }
    if (name == "repeat") {
      step.kind = StepKind::kRepeat;
      if (args.size() != 1 || args[0].kind != Arg::Kind::kTraversal) {
        return Status::InvalidArgument("repeat() expects a sub-traversal");
      }
      step.body = std::move(args[0].traversal);
      step.times = 1;
      steps->push_back(std::move(step));
      return Status::OK();
    }
    if (name == "times") {
      if (steps->empty() || steps->back().kind != StepKind::kRepeat) {
        return Status::InvalidArgument("times() must follow repeat()");
      }
      if (args.size() != 1 || args[0].kind != Arg::Kind::kLiteral ||
          !args[0].literal.is_int()) {
        return Status::InvalidArgument("times() expects an integer");
      }
      steps->back().times = args[0].literal.as_int();
      return Status::OK();
    }
    if (name == "emit") {
      if (steps->empty() || steps->back().kind != StepKind::kRepeat) {
        return Status::InvalidArgument("emit() must follow repeat()");
      }
      steps->back().emit = true;
      return Status::OK();
    }
    if (name == "where" || name == "filter" || name == "not") {
      step.kind = name == "not" ? StepKind::kNot : StepKind::kWhere;
      if (args.size() != 1 || args[0].kind != Arg::Kind::kTraversal) {
        return Status::InvalidArgument(name + "() expects a sub-traversal");
      }
      step.body = std::move(args[0].traversal);
      steps->push_back(std::move(step));
      return Status::OK();
    }
    if (name == "union" || name == "coalesce") {
      step.kind = name == "union" ? StepKind::kUnion : StepKind::kCoalesce;
      if (args.empty()) {
        return Status::InvalidArgument(name +
                                       "() expects sub-traversals");
      }
      for (Arg& arg : args) {
        if (arg.kind != Arg::Kind::kTraversal) {
          return Status::InvalidArgument(
              name + "() arguments must be sub-traversals");
        }
        step.branches.push_back(std::move(arg.traversal));
      }
      steps->push_back(std::move(step));
      return Status::OK();
    }
    if (name == "is") {
      step.kind = StepKind::kIs;
      PropPredicate pred;
      pred.key = "";  // applies to the traverser's value, not a property
      if (args.size() != 1) {
        return Status::InvalidArgument("is() takes one argument");
      }
      if (args[0].kind == Arg::Kind::kLiteral) {
        pred.op = PropPredicate::Op::kEq;
        pred.values.push_back(args[0].literal);
      } else if (args[0].kind == Arg::Kind::kPredicate) {
        pred.op = args[0].pred_op;
        pred.values = args[0].pred_values;
      } else {
        return Status::InvalidArgument(
            "is() expects a literal or a P predicate");
      }
      step.predicates.push_back(std::move(pred));
      steps->push_back(std::move(step));
      return Status::OK();
    }
    if (name == "path") {
      step.kind = StepKind::kPath;
      steps->push_back(std::move(step));
      return Status::OK();
    }
    if (name == "simplePath") {
      step.kind = StepKind::kSimplePath;
      steps->push_back(std::move(step));
      return Status::OK();
    }
    if (name == "tail") {
      step.kind = StepKind::kTail;
      if (args.size() != 1 || args[0].kind != Arg::Kind::kLiteral ||
          !args[0].literal.is_int()) {
        return Status::InvalidArgument("tail() expects an integer");
      }
      step.high = args[0].literal.as_int();
      steps->push_back(std::move(step));
      return Status::OK();
    }
    if (name == "groupCount") {
      step.kind = StepKind::kGroupCount;
      steps->push_back(std::move(step));
      return Status::OK();
    }
    if (name == "store" || name == "aggregate") {
      step.kind = StepKind::kStore;
      if (args.size() != 1 || args[0].kind != Arg::Kind::kLiteral ||
          !args[0].literal.is_string()) {
        return Status::InvalidArgument(name + "() expects a string key");
      }
      step.side_effect_key = args[0].literal.as_string();
      steps->push_back(std::move(step));
      return Status::OK();
    }
    if (name == "cap") {
      step.kind = StepKind::kCap;
      if (args.size() != 1 || args[0].kind != Arg::Kind::kLiteral ||
          !args[0].literal.is_string()) {
        return Status::InvalidArgument("cap() expects a string key");
      }
      step.side_effect_key = args[0].literal.as_string();
      steps->push_back(std::move(step));
      return Status::OK();
    }
    return Status::Unsupported("Gremlin: unsupported step '" + name + "'");
  }

  static constexpr int kMaxNestingDepth = 256;

  std::vector<Tok> toks_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Result<Script> ParseGremlin(const std::string& text) {
  // Registry counter proving the plan cache's compile-once contract: a
  // cached execution must not move it (tests and the prepared-query bench
  // assert a zero delta).
  static metrics::Counter* parse_calls =
      metrics::MetricsRegistry::Global().GetCounter(kParseCallsCounter);
  parse_calls->fetch_add(1);
  Result<std::vector<Tok>> toks = Lex(text);
  if (!toks.ok()) return toks.status();
  return GremlinParser(std::move(*toks)).ParseScript();
}

Result<Traversal> ParseTraversal(const std::string& text) {
  Result<Script> script = ParseGremlin(text);
  if (!script.ok()) return script.status();
  if (script->statements.size() != 1) {
    return Status::InvalidArgument("expected exactly one traversal");
  }
  return std::move(script->statements[0].traversal);
}

}  // namespace db2graph::gremlin
