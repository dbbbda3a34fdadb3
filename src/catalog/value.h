#ifndef VBTREE_CATALOG_VALUE_H_
#define VBTREE_CATALOG_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "common/result.h"
#include "common/serde.h"

namespace vbtree {

/// Column data types. Column 0 of every table is the primary search key
/// and must be kInt64 (the VB-tree indexes it).
enum class TypeId : uint8_t {
  kInt64 = 0,
  kDouble = 1,
  kString = 2,
};

std::string_view TypeIdToString(TypeId t);

/// A single attribute value. Small, copyable, order-comparable within the
/// same type.
class Value {
 public:
  Value() : type_(TypeId::kInt64), v_(int64_t{0}) {}

  static Value Int(int64_t v) { return Value(TypeId::kInt64, v); }
  static Value Double(double v) { return Value(TypeId::kDouble, v); }
  static Value Str(std::string v) { return Value(TypeId::kString, std::move(v)); }

  TypeId type() const { return type_; }

  int64_t AsInt() const { return std::get<int64_t>(v_); }
  double AsDouble() const { return std::get<double>(v_); }
  const std::string& AsString() const { return std::get<std::string>(v_); }

  /// Three-way comparison; values of different types order by TypeId so
  /// the relation is total (needed by predicate evaluation).
  int Compare(const Value& o) const;

  bool operator==(const Value& o) const { return Compare(o) == 0; }
  bool operator<(const Value& o) const { return Compare(o) < 0; }

  /// Serialized size in bytes (matches Serialize output exactly; used for
  /// communication-cost accounting).
  size_t SerializedSize() const;

  void Serialize(ByteWriter* w) const;
  /// Writes the Serialize bytes (exactly SerializedSize() of them) at
  /// `out`; returns their end.
  uint8_t* SerializeTo(uint8_t* out) const;
  static Result<Value> Deserialize(ByteReader* r, TypeId type);

  std::string ToString() const;

 private:
  Value(TypeId t, int64_t v) : type_(t), v_(v) {}
  Value(TypeId t, double v) : type_(t), v_(v) {}
  Value(TypeId t, std::string v) : type_(t), v_(std::move(v)) {}

  TypeId type_;
  std::variant<int64_t, double, std::string> v_;
};

}  // namespace vbtree

#endif  // VBTREE_CATALOG_VALUE_H_
