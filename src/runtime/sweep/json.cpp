#include "runtime/sweep/json.hpp"

#include <charconv>
#include <cstdio>
#include <stdexcept>

namespace topocon::sweep {

std::string json_escape(std::string_view text) {
  std::string escaped;
  escaped.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': escaped += "\\\""; break;
      case '\\': escaped += "\\\\"; break;
      case '\n': escaped += "\\n"; break;
      case '\r': escaped += "\\r"; break;
      case '\t': escaped += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(c));
          escaped += buffer;
        } else {
          escaped += c;
        }
    }
  }
  return escaped;
}

void JsonWriter::separate() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!scopes_.empty()) {
    if (!first_.back()) out_ << ',';
    first_.back() = false;
    if (style_ == JsonStyle::kPretty) {
      out_ << '\n';
      indent();
    }
  }
}

void JsonWriter::indent() {
  for (std::size_t i = 0; i < scopes_.size(); ++i) out_ << "  ";
}

void JsonWriter::begin_object() {
  separate();
  out_ << '{';
  scopes_.push_back(Scope::kObject);
  first_.push_back(true);
}

void JsonWriter::end_object() {
  const bool empty = first_.back();
  scopes_.pop_back();
  first_.pop_back();
  if (!empty && style_ == JsonStyle::kPretty) {
    out_ << '\n';
    indent();
  }
  out_ << '}';
}

void JsonWriter::begin_array() {
  separate();
  out_ << '[';
  scopes_.push_back(Scope::kArray);
  first_.push_back(true);
}

void JsonWriter::end_array() {
  const bool empty = first_.back();
  scopes_.pop_back();
  first_.pop_back();
  if (!empty && style_ == JsonStyle::kPretty) {
    out_ << '\n';
    indent();
  }
  out_ << ']';
}

void JsonWriter::key(std::string_view name) {
  separate();
  out_ << '"' << json_escape(name)
       << (style_ == JsonStyle::kPretty ? "\": " : "\":");
  pending_key_ = true;
}

void JsonWriter::value(std::string_view text) {
  separate();
  out_ << '"' << json_escape(text) << '"';
}

void JsonWriter::value(bool flag) {
  separate();
  out_ << (flag ? "true" : "false");
}

void JsonWriter::value(std::int64_t number) {
  separate();
  out_ << number;
}

void JsonWriter::value(std::uint64_t number) {
  separate();
  out_ << number;
}

// ---- JsonValue -----------------------------------------------------------

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* value = find(key);
  if (value == nullptr) {
    throw std::runtime_error("json: missing member \"" + std::string(key) +
                             "\"");
  }
  return *value;
}

bool JsonValue::as_bool() const {
  if (kind != Kind::kBool) throw std::runtime_error("json: expected bool");
  return boolean;
}

std::int64_t JsonValue::as_int() const {
  if (kind == Kind::kInt) return int_number;
  if (kind == Kind::kUint &&
      uint_number <= static_cast<std::uint64_t>(INT64_MAX)) {
    return static_cast<std::int64_t>(uint_number);
  }
  throw std::runtime_error("json: expected integer");
}

std::uint64_t JsonValue::as_uint() const {
  if (kind == Kind::kUint) return uint_number;
  if (kind == Kind::kInt && int_number >= 0) {
    return static_cast<std::uint64_t>(int_number);
  }
  throw std::runtime_error("json: expected non-negative integer");
}

const std::string& JsonValue::as_string() const {
  if (kind != Kind::kString) throw std::runtime_error("json: expected string");
  return string;
}

void write_json_value(JsonWriter& writer, const JsonValue& value) {
  switch (value.kind) {
    case JsonValue::Kind::kNull:
      throw std::runtime_error("json: cannot serialize null");
    case JsonValue::Kind::kBool:
      writer.value(value.boolean);
      return;
    case JsonValue::Kind::kInt:
      writer.value(value.int_number);
      return;
    case JsonValue::Kind::kUint:
      writer.value(value.uint_number);
      return;
    case JsonValue::Kind::kString:
      writer.value(value.string);
      return;
    case JsonValue::Kind::kArray:
      writer.begin_array();
      for (const JsonValue& element : value.elements) {
        write_json_value(writer, element);
      }
      writer.end_array();
      return;
    case JsonValue::Kind::kObject:
      writer.begin_object();
      for (const auto& [name, member] : value.members) {
        writer.key(name);
        write_json_value(writer, member);
      }
      writer.end_object();
      return;
  }
}

// ---- JsonReader ----------------------------------------------------------

namespace {
/// Containers deeper than this are rejected; the sweep schema nests a
/// handful of levels, so the bound only guards against stack exhaustion.
constexpr int kMaxNesting = 64;
}  // namespace

JsonValue JsonReader::parse(std::string_view text) {
  JsonReader reader(text);
  reader.skip_whitespace();
  JsonValue value = reader.parse_value(0);
  reader.skip_whitespace();
  if (reader.pos_ != text.size()) {
    reader.fail("trailing characters after document");
  }
  return value;
}

void JsonReader::fail(const std::string& message) const {
  throw std::runtime_error("json: " + message + " at offset " +
                           std::to_string(pos_));
}

void JsonReader::skip_whitespace() {
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
    ++pos_;
  }
}

char JsonReader::peek() const {
  return pos_ < text_.size() ? text_[pos_] : '\0';
}

char JsonReader::take() {
  if (pos_ >= text_.size()) fail("unexpected end of document");
  return text_[pos_++];
}

void JsonReader::expect(char c) {
  if (take() != c) {
    --pos_;
    fail(std::string("expected '") + c + "'");
  }
}

bool JsonReader::consume_literal(std::string_view literal) {
  if (text_.substr(pos_, literal.size()) != literal) return false;
  pos_ += literal.size();
  return true;
}

JsonValue JsonReader::parse_value(int depth) {
  if (depth > kMaxNesting) fail("nesting too deep");
  skip_whitespace();
  JsonValue value;
  switch (peek()) {
    case '{': {
      take();
      value.kind = JsonValue::Kind::kObject;
      skip_whitespace();
      if (peek() == '}') {
        take();
        return value;
      }
      while (true) {
        skip_whitespace();
        std::string name = parse_string();
        skip_whitespace();
        expect(':');
        value.members.emplace_back(std::move(name), parse_value(depth + 1));
        skip_whitespace();
        const char c = take();
        if (c == '}') return value;
        if (c != ',') {
          --pos_;
          fail("expected ',' or '}'");
        }
      }
    }
    case '[': {
      take();
      value.kind = JsonValue::Kind::kArray;
      skip_whitespace();
      if (peek() == ']') {
        take();
        return value;
      }
      while (true) {
        value.elements.push_back(parse_value(depth + 1));
        skip_whitespace();
        const char c = take();
        if (c == ']') return value;
        if (c != ',') {
          --pos_;
          fail("expected ',' or ']'");
        }
      }
    }
    case '"':
      value.kind = JsonValue::Kind::kString;
      value.string = parse_string();
      return value;
    case 't':
      if (!consume_literal("true")) fail("invalid literal");
      value.kind = JsonValue::Kind::kBool;
      value.boolean = true;
      return value;
    case 'f':
      if (!consume_literal("false")) fail("invalid literal");
      value.kind = JsonValue::Kind::kBool;
      value.boolean = false;
      return value;
    case 'n':
      if (!consume_literal("null")) fail("invalid literal");
      return value;
    default:
      return parse_number();
  }
}

std::string JsonReader::parse_string() {
  expect('"');
  std::string result;
  while (true) {
    const char c = take();
    if (c == '"') return result;
    if (static_cast<unsigned char>(c) < 0x20) fail("raw control character");
    if (c != '\\') {
      result += c;
      continue;
    }
    const char escape = take();
    switch (escape) {
      case '"': result += '"'; break;
      case '\\': result += '\\'; break;
      case '/': result += '/'; break;
      case 'b': result += '\b'; break;
      case 'f': result += '\f'; break;
      case 'n': result += '\n'; break;
      case 'r': result += '\r'; break;
      case 't': result += '\t'; break;
      case 'u': {
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = take();
          code <<= 4;
          if (h >= '0' && h <= '9') {
            code |= static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            code |= static_cast<unsigned>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            code |= static_cast<unsigned>(h - 'A' + 10);
          } else {
            --pos_;
            fail("invalid \\u escape");
          }
        }
        if (code >= 0xD800 && code <= 0xDFFF) {
          fail("surrogate \\u escapes are unsupported");
        }
        // UTF-8 encode (the writer only ever emits control characters
        // here, but accept the full basic plane).
        if (code < 0x80) {
          result += static_cast<char>(code);
        } else if (code < 0x800) {
          result += static_cast<char>(0xC0 | (code >> 6));
          result += static_cast<char>(0x80 | (code & 0x3F));
        } else {
          result += static_cast<char>(0xE0 | (code >> 12));
          result += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
          result += static_cast<char>(0x80 | (code & 0x3F));
        }
        break;
      }
      default:
        --pos_;
        fail("invalid escape");
    }
  }
}

JsonValue JsonReader::parse_number() {
  const std::size_t start = pos_;
  const bool negative = peek() == '-';
  if (negative) take();
  if (peek() < '0' || peek() > '9') fail("invalid value");
  while (peek() >= '0' && peek() <= '9') take();
  if (peek() == '.' || peek() == 'e' || peek() == 'E') {
    fail("floating-point numbers are unsupported");
  }
  const char* first = text_.data() + start;
  const char* last = text_.data() + pos_;
  JsonValue value;
  if (negative) {
    value.kind = JsonValue::Kind::kInt;
    const auto [ptr, ec] = std::from_chars(first, last, value.int_number);
    if (ec != std::errc() || ptr != last) fail("integer out of range");
  } else {
    value.kind = JsonValue::Kind::kUint;
    const auto [ptr, ec] = std::from_chars(first, last, value.uint_number);
    if (ec != std::errc() || ptr != last) fail("integer out of range");
  }
  return value;
}

}  // namespace topocon::sweep
