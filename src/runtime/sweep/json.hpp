// Minimal deterministic JSON emitter and parser for sweep results.
//
// Deliberately tiny: objects and arrays are emitted in call order with
// stable two-space indentation (or a single-line compact style for
// checkpoint lines) and no locale dependence, so two runs that produce
// the same logical results produce byte-identical documents -- the
// property the checkpoint/resume machinery, the goldens, and the
// determinism tests rely on. Only the types the sweep engine needs
// are supported (strings, integers, booleans, nested containers); no
// floating point, whose formatting is the classic source of cross-run
// diffs. JsonReader is the exact parsing counterpart: it accepts the
// same deterministic subset (rejecting floats outright) and preserves
// object member order, so write(parse(doc)) reproduces doc byte for
// byte.
#pragma once

#include <concepts>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace topocon::sweep {

/// Output layout of JsonWriter: kPretty is the two-space-indented style
/// of the sweep documents; kCompact emits everything on one line with no
/// whitespace (checkpoint lines, one record per line).
enum class JsonStyle { kPretty, kCompact };

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out, JsonStyle style = JsonStyle::kPretty)
      : out_(out), style_(style) {}

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Emits the key of the next member (objects only).
  void key(std::string_view name);

  void value(std::string_view text);
  void value(const char* text) { value(std::string_view(text)); }
  void value(bool flag);
  void value(std::int64_t number);
  void value(std::uint64_t number);
  /// Any other integer type (int, std::size_t, ...) widens to the exact
  /// 64-bit overloads, so call sites stay portable across platforms where
  /// size_t is a distinct type from uint64_t.
  template <typename T>
    requires std::integral<T> && (!std::same_as<T, bool>) &&
             (!std::same_as<T, std::int64_t>) &&
             (!std::same_as<T, std::uint64_t>)
  void value(T number) {
    if constexpr (std::is_signed_v<T>) {
      value(static_cast<std::int64_t>(number));
    } else {
      value(static_cast<std::uint64_t>(number));
    }
  }

  /// key + value in one call.
  template <typename T>
  void member(std::string_view name, T&& v) {
    key(name);
    value(std::forward<T>(v));
  }

 private:
  enum class Scope { kObject, kArray };

  void separate();
  void indent();

  std::ostream& out_;
  JsonStyle style_;
  std::vector<Scope> scopes_;
  std::vector<bool> first_;
  bool pending_key_ = false;
};

/// JSON string escaping per RFC 8259 (quotes, backslash, control chars).
std::string json_escape(std::string_view text);

/// Parsed JSON value over the deterministic subset JsonWriter emits.
/// Negative integers parse as kInt, non-negative ones as kUint; object
/// member order is the document order.
struct JsonValue {
  enum class Kind {
    kNull,
    kBool,
    kInt,
    kUint,
    kString,
    kArray,
    kObject
  };

  Kind kind = Kind::kNull;
  bool boolean = false;
  std::int64_t int_number = 0;     // kInt
  std::uint64_t uint_number = 0;   // kUint
  std::string string;
  std::vector<JsonValue> elements;                         // kArray
  std::vector<std::pair<std::string, JsonValue>> members;  // kObject

  bool is_null() const { return kind == Kind::kNull; }
  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }

  /// Structural equality (recursive; object member order matters, exactly
  /// as it matters for the canonical serialization).
  friend bool operator==(const JsonValue&, const JsonValue&) = default;

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
  /// Object member lookup; throws std::runtime_error naming the key when
  /// absent.
  const JsonValue& at(std::string_view key) const;

  /// Checked accessors; every one throws std::runtime_error on a kind
  /// mismatch (as_int accepts kUint values that fit, and vice versa).
  bool as_bool() const;
  std::int64_t as_int() const;
  std::uint64_t as_uint() const;
  const std::string& as_string() const;
};

/// Re-emits a parsed JsonValue through a JsonWriter (members in stored
/// order), making write(parse(doc)) reproduce doc byte for byte and --
/// since the writer is canonical -- write(v) a fixed point of
/// write(parse(.)) for any v. Used to embed opaque sub-documents (e.g.
/// serialized api::Query descriptions in checkpoint headers) without the
/// container layer knowing their schema.
void write_json_value(JsonWriter& writer, const JsonValue& value);

/// Parser for the deterministic JSON subset (the counterpart of
/// JsonWriter). Throws std::runtime_error with a byte offset on malformed
/// input, floating-point literals included.
class JsonReader {
 public:
  /// Parses exactly one document (trailing whitespace allowed).
  static JsonValue parse(std::string_view text);

 private:
  explicit JsonReader(std::string_view text) : text_(text) {}

  JsonValue parse_value(int depth);
  std::string parse_string();
  JsonValue parse_number();
  void skip_whitespace();
  char peek() const;
  char take();
  void expect(char c);
  bool consume_literal(std::string_view literal);
  [[noreturn]] void fail(const std::string& message) const;

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace topocon::sweep
