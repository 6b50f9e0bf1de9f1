#include "exp/jsonval.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "obs/json.hpp"

namespace radiocast::exp {

// --- JsonObject ---

JsonValue& JsonObject::set(std::string key, JsonValue value) {
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return v;
    }
  }
  members_.emplace_back(std::move(key), std::move(value));
  return members_.back().second;
}

const JsonValue* JsonObject::find(std::string_view key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

JsonValue* JsonObject::find(std::string_view key) {
  for (auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool JsonObject::operator==(const JsonObject& other) const {
  // Order-insensitive equality: two objects are equal iff they hold the
  // same key set with equal values (round-trip tests should not depend on
  // author key order vs canonical order).
  if (members_.size() != other.members_.size()) return false;
  for (const auto& [k, v] : members_) {
    const JsonValue* o = other.find(k);
    if (o == nullptr || !(*o == v)) return false;
  }
  return true;
}

// --- JsonValue accessors ---

namespace {
[[noreturn]] void type_error(std::string_view ctx, const char* want) {
  throw JsonError(std::string(ctx) + ": expected " + want);
}
}  // namespace

bool JsonValue::as_bool(std::string_view ctx) const {
  if (kind_ != Kind::kBool) type_error(ctx, "a boolean");
  return bool_;
}

double JsonValue::as_double(std::string_view ctx) const {
  switch (kind_) {
    case Kind::kInt:
      return static_cast<double>(int_);
    case Kind::kUint:
      return static_cast<double>(uint_);
    case Kind::kDouble:
      return double_;
    default:
      type_error(ctx, "a number");
  }
}

std::int64_t JsonValue::as_int(std::string_view ctx) const {
  switch (kind_) {
    case Kind::kInt:
      return int_;
    case Kind::kUint:
      if (uint_ > static_cast<std::uint64_t>(INT64_MAX)) type_error(ctx, "an int64");
      return static_cast<std::int64_t>(uint_);
    case Kind::kDouble:
      if (double_ != std::floor(double_) || std::fabs(double_) > 9.0e18)
        type_error(ctx, "an integer");
      return static_cast<std::int64_t>(double_);
    default:
      type_error(ctx, "an integer");
  }
}

std::uint64_t JsonValue::as_uint(std::string_view ctx) const {
  switch (kind_) {
    case Kind::kUint:
      return uint_;
    case Kind::kInt:
      if (int_ < 0) type_error(ctx, "a non-negative integer");
      return static_cast<std::uint64_t>(int_);
    case Kind::kDouble:
      if (double_ != std::floor(double_) || double_ < 0 || double_ > 1.8e19)
        type_error(ctx, "a non-negative integer");
      return static_cast<std::uint64_t>(double_);
    default:
      type_error(ctx, "a non-negative integer");
  }
}

const std::string& JsonValue::as_string(std::string_view ctx) const {
  if (kind_ != Kind::kString) type_error(ctx, "a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::as_array(std::string_view ctx) const {
  if (kind_ != Kind::kArray) type_error(ctx, "an array");
  return array_;
}

const JsonObject& JsonValue::as_object(std::string_view ctx) const {
  if (kind_ != Kind::kObject) type_error(ctx, "an object");
  return object_;
}

JsonObject& JsonValue::as_object(std::string_view ctx) {
  if (kind_ != Kind::kObject) type_error(ctx, "an object");
  return object_;
}

bool JsonValue::operator==(const JsonValue& other) const {
  if (is_number() && other.is_number()) {
    // Numeric equality across representations (3 == 3.0 == 3u), so a value
    // that re-parses as a different numeric kind still compares equal.
    return as_double() == other.as_double();
  }
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kNull:
      return true;
    case Kind::kBool:
      return bool_ == other.bool_;
    case Kind::kString:
      return string_ == other.string_;
    case Kind::kArray:
      return array_ == other.array_;
    case Kind::kObject:
      return object_ == other.object_;
    default:
      return false;  // numbers handled above
  }
}

// --- parser ---

namespace {

/// Deepest array/object nesting a document may have. The parser recurses
/// once per level, so hostile input like 10^5 open brackets must fail here
/// rather than overflow the stack; no document the repo reads or writes
/// nests deeper than 4.
constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    // Recompute line:column from the offset — errors are rare.
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw JsonError("json parse error at " + std::to_string(line) + ":" +
                    std::to_string(col) + ": " + msg);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
        ++pos_;
      else
        break;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth) {
          fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
        }
        ++depth_;
        JsonValue v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"':
        return JsonValue(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return JsonValue(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return JsonValue();
        fail("invalid literal");
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonObject obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(obj));
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      if (obj.contains(key)) fail("duplicate object key \"" + key + "\"");
      skip_ws();
      expect(':');
      obj.set(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return JsonValue(std::move(obj));
      }
      fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    std::vector<JsonValue> arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return JsonValue(std::move(arr));
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u':
          append_utf8(parse_hex4(), out);
          break;
        default:
          fail("invalid escape");
      }
    }
  }

  std::uint32_t parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9')
        v |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f')
        v |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        v |= static_cast<std::uint32_t>(c - 'A' + 10);
      else
        fail("invalid hex digit in \\u escape");
    }
    return v;
  }

  void append_utf8(std::uint32_t cp, std::string& out) {
    // Surrogate pair: a high surrogate must be followed by \uDC00-\uDFFF.
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      if (pos_ + 2 > text_.size() || text_[pos_] != '\\' || text_[pos_ + 1] != 'u')
        fail("unpaired high surrogate");
      pos_ += 2;
      const std::uint32_t lo = parse_hex4();
      if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail("unpaired low surrogate");
    }
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  /// Advances past a run of ASCII digits; returns how many there were.
  std::size_t skip_digits() {
    const std::size_t from = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    return pos_ - from;
  }

  /// RFC 8259: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    const std::size_t int_start = pos_;
    const std::size_t int_digits = skip_digits();
    if (int_digits == 0) fail("invalid number");
    if (int_digits > 1 && text_[int_start] == '0') {
      pos_ = int_start + 1;
      fail("leading zero in number");
    }
    bool is_integer = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_integer = false;
      ++pos_;
      if (skip_digits() == 0) fail("expected a digit after '.' in number");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_integer = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (skip_digits() == 0) fail("expected a digit in number exponent");
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (is_integer) {
      // Exact integer when it fits; uint64 for large positives.
      if (tok[0] == '-') {
        std::int64_t v = 0;
        const auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
        if (ec == std::errc() && p == tok.data() + tok.size()) return JsonValue(v);
      } else {
        std::uint64_t v = 0;
        const auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
        if (ec == std::errc() && p == tok.data() + tok.size()) {
          if (v <= static_cast<std::uint64_t>(INT64_MAX))
            return JsonValue(static_cast<std::int64_t>(v));
          return JsonValue(v);
        }
      }
      // Fall through to double on overflow.
    }
    double d = 0;
    const std::string tmp(tok);
    char* end = nullptr;
    d = std::strtod(tmp.c_str(), &end);
    if (end != tmp.c_str() + tmp.size()) fail("invalid number");
    return JsonValue(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

void serialize_to(const JsonValue& v, obs::JsonWriter& w);

void serialize_object(const JsonObject& o, obs::JsonWriter& w) {
  w.begin_object();
  for (const auto& [k, val] : o.members()) {
    w.key(k);
    serialize_to(val, w);
  }
  w.end_object();
}

void serialize_to(const JsonValue& v, obs::JsonWriter& w) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull:
      // JsonWriter has no null primitive; reuse the double path, which
      // prints nulls for non-finite values.
      w.value(std::nan(""));
      break;
    case JsonValue::Kind::kBool:
      w.value(v.as_bool());
      break;
    case JsonValue::Kind::kInt:
      w.value(v.as_int());
      break;
    case JsonValue::Kind::kUint:
      w.value(v.as_uint());
      break;
    case JsonValue::Kind::kDouble:
      w.value(v.as_double());
      break;
    case JsonValue::Kind::kString:
      w.value(v.as_string());
      break;
    case JsonValue::Kind::kArray:
      w.begin_array();
      for (const JsonValue& e : v.as_array()) serialize_to(e, w);
      w.end_array();
      break;
    case JsonValue::Kind::kObject:
      serialize_object(v.as_object(), w);
      break;
  }
}

/// Re-indents compact JSON produced by JsonWriter. Operating on the
/// already-escaped byte stream keeps the two formats trivially consistent:
/// pretty output differs from canonical output only in inserted whitespace.
std::string pretty_print(const std::string& compact, int indent) {
  std::string out;
  out.reserve(compact.size() * 2);
  int depth = 0;
  bool in_string = false;
  const auto newline = [&] {
    out += '\n';
    out.append(static_cast<std::size_t>(depth * indent), ' ');
  };
  for (std::size_t i = 0; i < compact.size(); ++i) {
    const char c = compact[i];
    if (in_string) {
      out += c;
      if (c == '\\' && i + 1 < compact.size()) {
        out += compact[++i];
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        out += c;
        break;
      case '{':
      case '[':
        out += c;
        // Keep empty containers on one line.
        if (i + 1 < compact.size() && (compact[i + 1] == '}' || compact[i + 1] == ']')) {
          out += compact[++i];
        } else {
          ++depth;
          newline();
        }
        break;
      case '}':
      case ']':
        --depth;
        newline();
        out += c;
        break;
      case ',':
        out += c;
        newline();
        break;
      case ':':
        out += ": ";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace

JsonValue json_parse(std::string_view text) { return Parser(text).parse_document(); }

std::string json_serialize(const JsonValue& v, int indent) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  serialize_to(v, w);
  const std::string compact = os.str();
  if (indent <= 0) return compact;
  return pretty_print(compact, indent);
}

}  // namespace radiocast::exp
