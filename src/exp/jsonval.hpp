// Recursive JSON document tree + parser for the experiment layer.
//
// The observability side of the library only ever *writes* JSON
// (obs::JsonWriter streams documents with no intermediate tree). The
// scenario layer needs the opposite direction: scenario specs, manifests
// and results files are read back, validated, and re-serialized. This
// module provides the minimal value tree both directions share:
//
//   * a strict RFC-8259 parser (UTF-8 passthrough, \uXXXX escapes decoded,
//     the exact number grammar, no comments, no trailing commas, at most
//     64 levels of nesting) that reports line/column on error;
//   * a canonical serializer: object members in insertion order, numbers
//     printed via the same round-trippable formatting as obs::JsonWriter —
//     so parse(serialize(v)) == v and serialized bytes are stable enough
//     to digest (manifest determinism rests on this);
//   * typed accessors that throw JsonError with a dotted path on type or
//     key mismatch, which is what gives scenario parsing its "unknown key
//     / wrong type" error messages.
//
// Objects preserve insertion order (specs re-serialize in the order the
// author wrote) and reject duplicate keys at parse time.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace radiocast::exp {

/// Error thrown by the parser (with 1-based line:column) and by the typed
/// accessors (with the offending dotted path).
class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& what) : std::runtime_error(what) {}
};

class JsonValue;

/// Order-preserving string -> JsonValue map (JSON object). Lookup is
/// linear — scenario documents are tiny.
class JsonObject {
 public:
  /// Inserts or overwrites; insertion order is serialization order.
  JsonValue& set(std::string key, JsonValue value);
  /// Pointer to the member, or nullptr when absent.
  const JsonValue* find(std::string_view key) const;
  JsonValue* find(std::string_view key);
  bool contains(std::string_view key) const { return find(key) != nullptr; }

  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }
  std::size_t size() const { return members_.size(); }

  bool operator==(const JsonObject&) const;

 private:
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// One JSON value: null, bool, number (double or exact int64/uint64),
/// string, array, or object. Integers that fit are kept exact so that
/// 64-bit seeds and round counts survive a round trip bit-for-bit.
class JsonValue {
 public:
  enum class Kind : std::uint8_t { kNull, kBool, kInt, kUint, kDouble, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}
  JsonValue(std::int64_t v) : kind_(Kind::kInt), int_(v) {}
  JsonValue(std::uint64_t v) : kind_(Kind::kUint), uint_(v) {}
  JsonValue(int v) : JsonValue(static_cast<std::int64_t>(v)) {}
  JsonValue(unsigned v) : JsonValue(static_cast<std::uint64_t>(v)) {}
  JsonValue(double v) : kind_(Kind::kDouble), double_(v) {}
  JsonValue(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}
  JsonValue(const char* s) : JsonValue(std::string(s)) {}
  JsonValue(std::vector<JsonValue> a) : kind_(Kind::kArray), array_(std::move(a)) {}
  JsonValue(JsonObject o) : kind_(Kind::kObject), object_(std::move(o)) {}

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kUint || kind_ == Kind::kDouble;
  }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; `ctx` names the value in thrown errors (dotted path).
  bool as_bool(std::string_view ctx = "value") const;
  /// Any numeric kind, as double.
  double as_double(std::string_view ctx = "value") const;
  /// Integral kinds only (doubles with integral value accepted); throws on
  /// fractional values or overflow.
  std::int64_t as_int(std::string_view ctx = "value") const;
  std::uint64_t as_uint(std::string_view ctx = "value") const;
  const std::string& as_string(std::string_view ctx = "value") const;
  const std::vector<JsonValue>& as_array(std::string_view ctx = "value") const;
  const JsonObject& as_object(std::string_view ctx = "value") const;
  JsonObject& as_object(std::string_view ctx = "value");

  bool operator==(const JsonValue& other) const;

 private:
  Kind kind_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  double double_ = 0;
  std::string string_;
  std::vector<JsonValue> array_;
  JsonObject object_;
};

/// Parses one complete JSON document (trailing whitespace allowed, any
/// other trailing content is an error). Throws JsonError with line:column.
JsonValue json_parse(std::string_view text);

/// Canonical serialization: insertion-order objects, obs::JsonWriter
/// number formatting. `indent` > 0 pretty-prints with that many spaces.
std::string json_serialize(const JsonValue& v, int indent = 0);

}  // namespace radiocast::exp
