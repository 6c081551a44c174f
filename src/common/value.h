// Copyright (c) 2026 The db2graph-repro Authors.
//
// Dynamically typed scalar value used across the relational engine, the
// graph overlay, and the Gremlin interpreter. Mirrors the SQL type lattice
// of the subset we implement: NULL, BOOLEAN, BIGINT, DOUBLE, VARCHAR.

#ifndef DB2GRAPH_COMMON_VALUE_H_
#define DB2GRAPH_COMMON_VALUE_H_

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <variant>
#include <vector>

namespace db2graph {

/// Scalar type tags for Value.
enum class ValueType {
  kNull,
  kBool,
  kInt,
  kDouble,
  kString,
};

/// Returns the SQL-ish spelling of a type tag ("BIGINT", "VARCHAR", ...).
const char* ValueTypeName(ValueType type);

/// A dynamically typed scalar. Small, copyable, and totally ordered (NULLs
/// sort first; numeric types compare by value across int/double).
class Value {
 public:
  Value() : data_(std::monostate{}) {}
  Value(bool v) : data_(v) {}                      // NOLINT(runtime/explicit)
  Value(int64_t v) : data_(v) {}                   // NOLINT(runtime/explicit)
  Value(int v) : data_(static_cast<int64_t>(v)) {} // NOLINT(runtime/explicit)
  Value(double v) : data_(v) {}                    // NOLINT(runtime/explicit)
  Value(std::string v) : data_(std::move(v)) {}    // NOLINT(runtime/explicit)
  Value(const char* v) : data_(std::string(v)) {}  // NOLINT(runtime/explicit)

  static Value Null() { return Value(); }

  ValueType type() const {
    return static_cast<ValueType>(data_.index());
  }
  bool is_null() const { return type() == ValueType::kNull; }
  bool is_bool() const { return type() == ValueType::kBool; }
  bool is_int() const { return type() == ValueType::kInt; }
  bool is_double() const { return type() == ValueType::kDouble; }
  bool is_string() const { return type() == ValueType::kString; }
  bool is_numeric() const { return is_int() || is_double(); }

  bool as_bool() const { return std::get<bool>(data_); }
  int64_t as_int() const { return std::get<int64_t>(data_); }
  double as_double() const { return std::get<double>(data_); }
  const std::string& as_string() const { return std::get<std::string>(data_); }

  /// Numeric view: int promoted to double. Must be numeric.
  double NumericValue() const {
    return is_int() ? static_cast<double>(as_int()) : as_double();
  }

  /// Truthiness used by boolean expression evaluation: NULL and false are
  /// false, non-zero numerics and non-empty everything else are true.
  bool Truthy() const;

  /// Renders the value for display ("NULL", "42", "3.5", "abc").
  std::string ToString() const;

  /// Renders the value as a SQL literal ("NULL", "42", "'ab''c'").
  std::string ToSqlLiteral() const;

  /// Total order over values: NULL < BOOL < numerics < STRING, numerics
  /// compared by value regardless of int/double representation.
  /// Returns <0, 0, >0.
  int Compare(const Value& other) const;

  bool operator==(const Value& o) const { return Compare(o) == 0; }
  bool operator!=(const Value& o) const { return Compare(o) != 0; }
  bool operator<(const Value& o) const { return Compare(o) < 0; }
  bool operator<=(const Value& o) const { return Compare(o) <= 0; }
  bool operator>(const Value& o) const { return Compare(o) > 0; }
  bool operator>=(const Value& o) const { return Compare(o) >= 0; }

  /// Hash consistent with Compare()==0 (int/double with equal value hash
  /// identically).
  size_t Hash() const;

 private:
  std::variant<std::monostate, bool, int64_t, double, std::string> data_;
};

std::ostream& operator<<(std::ostream& os, const Value& v);

/// A row of values; the universal tuple currency of the engine.
using Row = std::vector<Value>;

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

struct RowHash {
  size_t operator()(const Row& row) const {
    size_t h = kSeed;
    for (const Value& v : row) h = Mix(h, v);
    return h;
  }
  /// The fold, for callers hashing values that are not laid out as a Row.
  static constexpr size_t kSeed = 1469598103934665603ull;
  static size_t Mix(size_t h, const Value& v) {
    return (h ^ v.Hash()) * 1099511628211ull;
  }
};

}  // namespace db2graph

#endif  // DB2GRAPH_COMMON_VALUE_H_
