#include "interp/value.h"

#include <cmath>
#include <cstdio>

namespace jfeed::interp {

Value Value::IntArray(const std::vector<int64_t>& elems) {
  auto arr = std::make_shared<ArrayValue>();
  arr->elem_kind = java::TypeKind::kInt;
  arr->elems.reserve(elems.size());
  for (int64_t v : elems) arr->elems.push_back(Value::Int(v));
  return Value::Array(std::move(arr));
}

Value Value::DoubleArray(const std::vector<double>& elems) {
  auto arr = std::make_shared<ArrayValue>();
  arr->elem_kind = java::TypeKind::kDouble;
  arr->elems.reserve(elems.size());
  for (double v : elems) arr->elems.push_back(Value::Double(v));
  return Value::Array(std::move(arr));
}

Value Value::StringArray(const std::vector<std::string>& elems) {
  auto arr = std::make_shared<ArrayValue>();
  arr->elem_kind = java::TypeKind::kString;
  arr->elems.reserve(elems.size());
  for (const auto& v : elems) arr->elems.push_back(Value::Str(v));
  return Value::Array(std::move(arr));
}

namespace {

/// Renders a double the way Java's Double.toString does for the common
/// cases intro assignments hit: always with a decimal point ("2.0"),
/// shortest representation otherwise.
std::string JavaDoubleToString(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "Infinity" : "-Infinity";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  std::string s = buf;
  if (s.find('.') == std::string::npos && s.find('e') == std::string::npos &&
      s.find("inf") == std::string::npos) {
    s += ".0";
  }
  return s;
}

}  // namespace

const std::string& Value::AsString() const {
  static const std::string* const kEmpty = new std::string();
  if (kind_ != Kind::kString || ref_ == nullptr) return *kEmpty;
  return *static_cast<const std::string*>(ref_.get());
}

std::string Value::ToJavaString() const {
  std::string out;
  AppendJavaString(&out);
  return out;
}

void Value::AppendJavaString(std::string* out) const {
  switch (kind_) {
    case Kind::kNull:
      *out += "null";
      return;
    case Kind::kInt:
    case Kind::kLong:
      *out += std::to_string(int_);
      return;
    case Kind::kChar:
      *out += static_cast<char>(int_);
      return;
    case Kind::kDouble:
      *out += JavaDoubleToString(double_);
      return;
    case Kind::kBool:
      *out += int_ != 0 ? "true" : "false";
      return;
    case Kind::kString:
      *out += AsString();
      return;
    case Kind::kArray:
      // Java prints an opaque reference; a stable placeholder is enough.
      *out += "[array]";
      return;
    case Kind::kScanner:
      *out += "[scanner]";
      return;
  }
  *out += "?";
}

int64_t Value::ApproxHeapBytes() const {
  int64_t bytes = kHeapBytesPerSlot;
  switch (kind_) {
    case Kind::kString:
      bytes += static_cast<int64_t>(AsString().size());
      break;
    case Kind::kArray:
      if (const ArrayValue* arr = array()) {
        bytes += static_cast<int64_t>(arr->elems.size()) * kHeapBytesPerSlot;
        for (const Value& elem : arr->elems) {
          bytes += static_cast<int64_t>(elem.AsString().size());
        }
      }
      break;
    case Kind::kScanner:
      if (const ScannerState* sc = scanner()) {
        for (const auto& tok : *sc->tokens) {
          bytes += static_cast<int64_t>(tok.size()) + kHeapBytesPerToken;
        }
      }
      break;
    default:
      break;
  }
  return bytes;
}

bool Value::JavaEquals(const Value& other) const {
  if (kind_ == Kind::kString && other.kind_ == Kind::kString) {
    return AsString() == other.AsString();
  }
  if (is_numeric() && other.is_numeric()) {
    if (kind_ == Kind::kDouble || other.kind_ == Kind::kDouble) {
      return AsDouble() == other.AsDouble();
    }
    return int_ == other.int_;
  }
  if (kind_ == Kind::kBool && other.kind_ == Kind::kBool) {
    return int_ == other.int_;
  }
  if (kind_ == Kind::kNull && other.kind_ == Kind::kNull) return true;
  if (kind_ == Kind::kArray && other.kind_ == Kind::kArray) {
    return ref_ == other.ref_;  // Reference equality, like Java ==.
  }
  return false;
}

}  // namespace jfeed::interp
