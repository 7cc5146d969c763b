#ifndef JFEED_INTERP_VALUE_H_
#define JFEED_INTERP_VALUE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "javalang/ast.h"
#include "support/result.h"

namespace jfeed::interp {

class Value;

/// Heap-budget charge per value slot (a variable, an array element); owned
/// payloads such as String characters are charged on top. The unit is
/// frozen at the slot size of the original 88-byte Value rather than taken
/// from sizeof(Value), so ExecOptions::max_heap_bytes means the same
/// allocations whatever Value's layout or the standard library.
inline constexpr int64_t kHeapBytesPerSlot = 88;
/// Charge per Scanner token on top of its characters, frozen likewise.
inline constexpr int64_t kHeapBytesPerToken = 32;

/// Heap array object. Arrays have reference semantics (shared between
/// variables), matching Java.
struct ArrayValue {
  java::TypeKind elem_kind = java::TypeKind::kInt;
  std::vector<Value> elems;
};

/// State of a `Scanner` object reading whitespace-separated tokens from an
/// in-memory "file". Reference semantics, like Java. The tokens are
/// immutable and shared by every Scanner an Interpreter opens on the same
/// file; each Scanner keeps its own position.
struct ScannerState {
  std::shared_ptr<const std::vector<std::string>> tokens;
  size_t pos = 0;
  bool closed = false;

  bool HasNext() const { return !closed && pos < tokens->size(); }
};

/// A runtime value of the Java subset. Ints, longs and chars share the
/// integer payload but keep their kind so printing matches Java (`int`
/// prints as 65, `char` as 'A', `double` as 2.0).
///
/// Layout (32 bytes with libstdc++): the kind, an int/double union, and one
/// reference-counted pointer that owns the String, array or Scanner
/// payload. Strings are immutable, so copies share their characters. Every
/// accessor is total and checks the kind before it reads the union: a kind
/// without an integer payload reads as 0, false, "" or null.
class Value {
 public:
  enum class Kind : uint8_t {
    kNull,
    kInt,
    kLong,
    kDouble,
    kBool,
    kChar,
    kString,
    kArray,
    kScanner,
  };

  Value() = default;

  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(Kind::kInt, v); }
  static Value Long(int64_t v) { return Value(Kind::kLong, v); }
  static Value Char(int64_t v) { return Value(Kind::kChar, v); }
  static Value Bool(bool v) { return Value(Kind::kBool, v ? 1 : 0); }
  static Value Double(double v) {
    Value out;
    out.kind_ = Kind::kDouble;
    out.double_ = v;
    return out;
  }
  static Value Str(std::string v) {
    Value out(Kind::kString, 0);
    out.ref_ = std::make_shared<std::string>(std::move(v));
    return out;
  }
  static Value Array(std::shared_ptr<ArrayValue> v) {
    Value out(Kind::kArray, 0);
    out.ref_ = std::move(v);
    return out;
  }
  static Value Scanner(std::shared_ptr<ScannerState> v) {
    Value out(Kind::kScanner, 0);
    out.ref_ = std::move(v);
    return out;
  }

  /// Builds an int[] from a C++ vector (test/bench convenience).
  static Value IntArray(const std::vector<int64_t>& elems);
  /// Builds a double[] from a C++ vector.
  static Value DoubleArray(const std::vector<double>& elems);
  /// Builds a String[] from a C++ vector.
  static Value StringArray(const std::vector<std::string>& elems);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_numeric() const {
    return kind_ == Kind::kInt || kind_ == Kind::kLong ||
           kind_ == Kind::kDouble || kind_ == Kind::kChar;
  }
  bool is_integral() const {
    return kind_ == Kind::kInt || kind_ == Kind::kLong ||
           kind_ == Kind::kChar;
  }

  int64_t AsInt() const {
    return kind_ == Kind::kDouble ? static_cast<int64_t>(double_) : int_;
  }
  double AsDouble() const {
    return kind_ == Kind::kDouble ? double_ : static_cast<double>(int_);
  }
  /// Nonzero integer payload; false for every double, whatever its value.
  bool AsBool() const { return kind_ != Kind::kDouble && int_ != 0; }
  /// The characters of a String; "" for every other kind.
  const std::string& AsString() const;
  /// The array of an array value; null for every other kind.
  std::shared_ptr<ArrayValue> AsArray() const {
    return kind_ == Kind::kArray ? std::static_pointer_cast<ArrayValue>(ref_)
                                 : nullptr;
  }
  /// The state of a Scanner value; null for every other kind.
  std::shared_ptr<ScannerState> AsScanner() const {
    return kind_ == Kind::kScanner
               ? std::static_pointer_cast<ScannerState>(ref_)
               : nullptr;
  }
  /// Non-owning forms of AsArray/AsScanner for the interpreter's hot path
  /// (no reference-count traffic).
  ArrayValue* array() const {
    return kind_ == Kind::kArray ? static_cast<ArrayValue*>(ref_.get())
                                 : nullptr;
  }
  ScannerState* scanner() const {
    return kind_ == Kind::kScanner ? static_cast<ScannerState*>(ref_.get())
                                   : nullptr;
  }

  /// Java's String.valueOf / println rendering of the value.
  std::string ToJavaString() const;
  /// Appends ToJavaString() to `out` without building a temporary.
  void AppendJavaString(std::string* out) const;

  /// Heap-budget charge of this value in bytes: one kHeapBytesPerSlot for
  /// the slot itself plus owned payloads (string characters; array element
  /// slots and their string payloads, one level deep; Scanner tokens).
  /// Proportional to real usage, not exact, and independent of layout.
  int64_t ApproxHeapBytes() const;

  /// Java `==` semantics on primitives, `equals` semantics on strings
  /// (intro-course submissions compare strings with equals()).
  bool JavaEquals(const Value& other) const;

 private:
  Value(Kind kind, int64_t v) : kind_(kind), int_(v) {}

  Kind kind_ = Kind::kNull;
  union {
    int64_t int_ = 0;  ///< Every kind but kDouble (0 when it has none).
    double double_;    ///< kDouble only.
  };
  /// Owns a std::string (kString, never mutated after construction), an
  /// ArrayValue (kArray) or a ScannerState (kScanner); null otherwise.
  std::shared_ptr<void> ref_;
};

}  // namespace jfeed::interp

#endif  // JFEED_INTERP_VALUE_H_
