#include "catalog/value.h"

#include <cmath>
#include <cstring>

namespace vbtree {

std::string_view TypeIdToString(TypeId t) {
  switch (t) {
    case TypeId::kInt64:
      return "INT64";
    case TypeId::kDouble:
      return "DOUBLE";
    case TypeId::kString:
      return "STRING";
  }
  return "?";
}

int Value::Compare(const Value& o) const {
  if (type_ != o.type_) {
    return static_cast<int>(type_) < static_cast<int>(o.type_) ? -1 : 1;
  }
  switch (type_) {
    case TypeId::kInt64: {
      int64_t a = AsInt(), b = o.AsInt();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case TypeId::kDouble: {
      double a = AsDouble(), b = o.AsDouble();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case TypeId::kString:
      return AsString().compare(o.AsString()) < 0
                 ? -1
                 : (AsString() == o.AsString() ? 0 : 1);
  }
  return 0;
}

size_t Value::SerializedSize() const {
  switch (type_) {
    case TypeId::kInt64:
    case TypeId::kDouble:
      return 8;
    case TypeId::kString: {
      size_t n = AsString().size();
      size_t varint = 1;
      for (uint64_t v = n; v >= 0x80; v >>= 7) varint++;
      return varint + n;
    }
  }
  return 0;
}

void Value::Serialize(ByteWriter* w) const {
  SerializeTo(w->Extend(SerializedSize()));
}

uint8_t* Value::SerializeTo(uint8_t* out) const {
  switch (type_) {
    case TypeId::kInt64:
      return EncodeU64(static_cast<uint64_t>(AsInt()), out);
    case TypeId::kDouble: {
      uint64_t bits;
      const double v = AsDouble();
      static_assert(sizeof(bits) == sizeof(v));
      std::memcpy(&bits, &v, sizeof(bits));
      return EncodeU64(bits, out);
    }
    case TypeId::kString: {
      const std::string& s = AsString();
      out = EncodeVarint(s.size(), out);
      std::memcpy(out, s.data(), s.size());
      return out + s.size();
    }
  }
  return out;
}

Result<Value> Value::Deserialize(ByteReader* r, TypeId type) {
  switch (type) {
    case TypeId::kInt64: {
      VBT_ASSIGN_OR_RETURN(int64_t v, r->ReadI64());
      return Value::Int(v);
    }
    case TypeId::kDouble: {
      VBT_ASSIGN_OR_RETURN(double v, r->ReadDouble());
      return Value::Double(v);
    }
    case TypeId::kString: {
      VBT_ASSIGN_OR_RETURN(std::string s, r->ReadString());
      return Value::Str(std::move(s));
    }
  }
  return Status::Corruption("unknown TypeId");
}

std::string Value::ToString() const {
  switch (type_) {
    case TypeId::kInt64:
      return std::to_string(AsInt());
    case TypeId::kDouble:
      return std::to_string(AsDouble());
    case TypeId::kString:
      return AsString();
  }
  return "?";
}

}  // namespace vbtree
