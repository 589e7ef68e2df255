#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/contracts.hpp"

namespace pns {

namespace {

/// Appends `s` quoted, escaped per RFC 8259. Runs of characters that need
/// no escaping -- nearly every key and value -- go in one append.
void append_quoted(std::string& out, std::string_view s) {
  out += '"';
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c != '"' && c != '\\' && c >= 0x20) continue;
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      }
    }
  }
  out.append(s, run, s.size() - run);
  out += '"';
}

template <typename Number>
void append_number(std::string& out, Number v) {
  char buf[40];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

}  // namespace

JsonWriter::JsonWriter(std::string& out, JsonStyle style)
    : out_(&out), style_(style) {}

JsonWriter::JsonWriter(std::ostream& os, JsonStyle style)
    : out_(&buffer_), stream_(&os), style_(style) {}

void JsonWriter::begin_object() {
  before_value();
  stack_.push_back(Scope::kObject);
  has_items_.push_back(false);
  *out_ += '{';
}

void JsonWriter::end_object() {
  PNS_EXPECTS(!key_pending_);
  close(Scope::kObject);
}

void JsonWriter::begin_array() {
  before_value();
  stack_.push_back(Scope::kArray);
  has_items_.push_back(false);
  *out_ += '[';
}

void JsonWriter::end_array() { close(Scope::kArray); }

void JsonWriter::close(Scope scope) {
  PNS_EXPECTS(!stack_.empty() && stack_.back() == scope);
  const bool had_items = has_items_.back();
  stack_.pop_back();
  has_items_.pop_back();
  if (had_items && style_ == JsonStyle::kPretty) {
    *out_ += '\n';
    indent();
  }
  *out_ += scope == Scope::kObject ? '}' : ']';
  after_value();
}

void JsonWriter::key(std::string_view k) {
  PNS_EXPECTS(!stack_.empty() && stack_.back() == Scope::kObject);
  PNS_EXPECTS(!key_pending_);
  if (has_items_.back()) *out_ += ',';
  has_items_.back() = true;
  if (style_ == JsonStyle::kPretty) {
    *out_ += '\n';
    indent();
    append_quoted(*out_, k);
    *out_ += ": ";
  } else {
    append_quoted(*out_, k);
    *out_ += ':';
  }
  key_pending_ = true;
}

void JsonWriter::value(double v) {
  before_value();
  if (std::isfinite(v))
    append_number(*out_, v);
  else
    *out_ += "null";
  after_value();
}

void JsonWriter::value(std::int64_t v) {
  before_value();
  append_number(*out_, v);
  after_value();
}

void JsonWriter::value(std::uint64_t v) {
  before_value();
  append_number(*out_, v);
  after_value();
}

void JsonWriter::value(bool v) {
  before_value();
  *out_ += v ? "true" : "false";
  after_value();
}

void JsonWriter::value(std::string_view v) {
  before_value();
  append_quoted(*out_, v);
  after_value();
}

void JsonWriter::null() {
  before_value();
  *out_ += "null";
  after_value();
}

bool JsonWriter::complete() const {
  return stack_.empty() && root_written_ && !key_pending_;
}

void JsonWriter::before_value() {
  if (stack_.empty()) {
    // Top level: exactly one value per document.
    PNS_EXPECTS(!root_written_);
    root_written_ = true;
    return;
  }
  if (stack_.back() == Scope::kObject) {
    // Object members must come through key().
    PNS_EXPECTS(key_pending_);
    key_pending_ = false;
    return;
  }
  // Array element.
  if (has_items_.back()) *out_ += ',';
  has_items_.back() = true;
  if (style_ == JsonStyle::kPretty) {
    *out_ += '\n';
    indent();
  }
}

void JsonWriter::after_value() {
  if (stream_ && stack_.empty()) {
    stream_->write(buffer_.data(),
                   static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
  }
}

void JsonWriter::indent() { out_->append(2 * stack_.size(), ' '); }

std::string shortest_double(double v) {
  char buf[40];
  if (!std::isfinite(v)) {
    std::snprintf(buf, sizeof buf, "%g", v);
    return buf;
  }
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

// ----------------------------------------------------------- parsing

bool JsonValue::as_bool() const {
  if (type_ != Type::kBool) throw JsonError("json: not a boolean");
  return bool_;
}

double JsonValue::as_double() const {
  if (type_ != Type::kNumber) throw JsonError("json: not a number");
  return number_;
}

namespace {

/// The integer a whole number token spells; anything else -- a fraction,
/// an exponent, a sign the type cannot hold, an out-of-range value --
/// throws instead of being truncated into some other integer.
template <typename Int>
Int parse_integer(const std::string& token) {
  Int v{};
  const char* end = token.data() + token.size();
  const auto res = std::from_chars(token.data(), end, v);
  if (res.ec != std::errc{} || res.ptr != end)
    throw JsonError("json: not an integer: " + token);
  return v;
}

}  // namespace

std::int64_t JsonValue::as_int64() const {
  if (type_ != Type::kNumber) throw JsonError("json: not a number");
  return parse_integer<std::int64_t>(text_);
}

std::uint64_t JsonValue::as_uint64() const {
  if (type_ != Type::kNumber) throw JsonError("json: not a number");
  return parse_integer<std::uint64_t>(text_);
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::kString) throw JsonError("json: not a string");
  return text_;
}

const std::string& JsonValue::number_token() const {
  if (type_ != Type::kNumber) throw JsonError("json: not a number");
  return text_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (type_ != Type::kArray) throw JsonError("json: not an array");
  return items_;
}

const std::vector<JsonValue::Member>& JsonValue::members() const {
  if (type_ != Type::kObject) throw JsonError("json: not an object");
  return members_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (!v) throw JsonError("json: missing key \"" + std::string(key) + "\"");
  return *v;
}

/// Recursive-descent parser over a string_view. Depth is bounded to keep
/// hostile inputs from exhausting the stack; the formats this repo writes
/// nest three levels deep.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& why) const {
    throw JsonError("json: " + why + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
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
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    const char c = peek();
    JsonValue v;
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"':
        v.type_ = JsonValue::Type::kString;
        v.text_ = parse_string();
        return v;
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        v.type_ = JsonValue::Type::kBool;
        v.bool_ = true;
        return v;
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        v.type_ = JsonValue::Type::kBool;
        v.bool_ = false;
        return v;
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        v.type_ = JsonValue::Type::kNull;
        return v;
      default: return parse_number();
    }
  }

  JsonValue parse_object(int depth) {
    JsonValue v;
    v.type_ = JsonValue::Type::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.members_.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array(int depth) {
    JsonValue v;
    v.type_ = JsonValue::Type::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.items_.push_back(parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      // Copy the run up to the next quote, backslash or control
      // character in one append. An error's offset points just past
      // the offending character (or at the end of the input).
      const std::size_t run = pos_;
      while (pos_ < text_.size()) {
        const auto c = static_cast<unsigned char>(text_[pos_]);
        if (c == '"' || c == '\\' || c < 0x20) break;
        ++pos_;
      }
      out.append(text_, run, pos_ - run);
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') fail("unescaped control character in string");
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': out += parse_unicode_escape(); break;
        default: fail("invalid escape");
      }
    }
  }

  std::string parse_unicode_escape() {
    unsigned cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
      ++pos_;
      cp <<= 4;
      if (c >= '0' && c <= '9') cp |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') cp |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') cp |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid \\u escape");
    }
    // UTF-8 encode. Surrogate pairs are not combined -- json_escape only
    // emits \u00xx for control characters, which is all we need to read.
    std::string out;
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
    return out;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-'))
      fail("invalid number");
    // from_chars, not strtod: parsing must be locale-independent to match
    // the locale-independent shortest_double emission bit for bit. The
    // token must parse and be consumed entirely.
    const std::string_view token = text_.substr(start, pos_ - start);
    JsonValue v;
    v.type_ = JsonValue::Type::kNumber;
    const auto res = std::from_chars(token.data(),
                                     token.data() + token.size(), v.number_);
    if (res.ec != std::errc{} || res.ptr != token.data() + token.size())
      fail("invalid number");
    v.text_ = std::string(token);
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

JsonValue parse_json(std::string_view text) {
  return JsonParser(text).parse_document();
}

std::string json_escape(std::string_view s) {
  std::string out;
  append_quoted(out, s);
  return out;
}

}  // namespace pns
