// Minimal JSON emission + parsing for experiment outputs.
//
// Sweep aggregates are dumped as JSON so downstream analysis (notebooks,
// dashboards) can ingest them without a CSV dialect guessing game. The
// writer tracks container nesting and comma placement so callers just
// emit keys and values in order. The parser exists for the formats this
// repo itself writes (sweep checkpoint journals, bench reports): numbers
// keep their raw token so a value written with shortest_double() reads
// back as the bit-identical double.
#pragma once

#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pns {

/// How a JsonWriter lays out the document.
enum class JsonStyle {
  kPretty,   ///< newlines + two-space indentation (reports)
  kCompact,  ///< no whitespace at all -- one document per line (journals)
};

/// Writes a single JSON document. The document is built by appending to
/// one std::string: either the caller's (the string sink) or the
/// writer's own buffer, which the stream constructor writes to its
/// stream in one piece when the root value closes. Containers are
/// opened/closed explicitly; with JsonStyle::kPretty the writer inserts
/// commas, newlines and two-space indentation, with kCompact it emits no
/// whitespace so a document fits one journal line. Misuse (a value where
/// a key is required, close without open, ...) trips a contract violation
/// rather than emitting malformed output.
class JsonWriter {
 public:
  /// Appends to an externally owned string (not owned, must outlive
  /// this). Existing contents are kept.
  explicit JsonWriter(std::string& out, JsonStyle style = JsonStyle::kPretty);
  /// Writes to an externally owned stream (not owned, must outlive
  /// this) once the document is complete; an unfinished document is
  /// never written.
  explicit JsonWriter(std::ostream& os, JsonStyle style = JsonStyle::kPretty);

  // out_ may point at buffer_: a copy would alias the original's buffer.
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Emits the key of the next object member. Must be inside an object.
  void key(std::string_view k);

  void value(double v);  ///< non-finite values are emitted as null
  void value(std::int64_t v);
  void value(std::uint64_t v);  ///< also covers std::size_t
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(bool v);
  void value(std::string_view v);
  /// Without this overload a string literal would convert to bool.
  void value(const char* v) { value(std::string_view(v)); }
  void null();

  /// Convenience: key(k) followed by value(v).
  template <typename T>
  void kv(std::string_view k, const T& v) {
    key(k);
    value(v);
  }

  /// True when every opened container has been closed and a top-level
  /// value was written (i.e. the document is complete).
  bool complete() const;

 private:
  enum class Scope { kObject, kArray };

  void before_value();  ///< comma/indent bookkeeping shared by all values
  void after_value();   ///< hands a completed document to the stream
  void close(Scope scope);
  void indent();

  std::string buffer_;             ///< the document, for the stream sink
  std::string* out_;               ///< where bytes are appended
  std::ostream* stream_ = nullptr;  ///< set for the stream sink only
  JsonStyle style_;
  std::vector<Scope> stack_;
  std::vector<bool> has_items_;
  bool key_pending_ = false;
  bool root_written_ = false;
};

/// Error raised by parse_json on malformed input and by JsonValue
/// accessors on type mismatches / missing keys. A distinct type (rather
/// than a contract violation) because the input is external data -- a
/// torn journal line, a truncated report -- that callers are expected to
/// catch and handle.
class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& what) : std::runtime_error(what) {}
};

/// One parsed JSON node. Value semantics; object members preserve source
/// order. Numbers keep their raw token text so integers outside the
/// double-exact range survive and doubles written with shortest_double()
/// round-trip bit-for-bit.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }

  bool as_bool() const;
  double as_double() const;        ///< exact for shortest_double() output
  /// The integer a number token spells exactly: a fraction, exponent,
  /// sign the type cannot hold or out-of-range value throws JsonError.
  std::int64_t as_int64() const;
  std::uint64_t as_uint64() const;
  const std::string& as_string() const;
  /// Raw number token as it appeared in the document.
  const std::string& number_token() const;

  const std::vector<JsonValue>& items() const;  ///< array elements
  const std::vector<Member>& members() const;   ///< object members, in order

  /// Object member lookup; nullptr when absent (or not an object).
  const JsonValue* find(std::string_view key) const;
  /// Object member lookup; throws JsonError when absent.
  const JsonValue& at(std::string_view key) const;

 private:
  friend class JsonParser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;  ///< a number's value, parsed once
  std::string text_;     ///< string value, or raw number token
  std::vector<JsonValue> items_;
  std::vector<Member> members_;
};

/// Parses one complete JSON document (trailing whitespace allowed,
/// trailing garbage is an error). Throws JsonError on malformed input.
JsonValue parse_json(std::string_view text);

/// Escapes a string per RFC 8259 (quotes, backslash, control characters)
/// and wraps it in double quotes.
std::string json_escape(std::string_view s);

/// Shortest decimal representation that parses back to the exact same
/// double (std::to_chars). Shared by the JSON writer and the sweep
/// aggregator's CSV cells so both formats round-trip bit-for-bit and
/// never drift from each other. Non-finite values render via printf %g
/// ("inf"/"nan"); JSON callers must handle those separately.
std::string shortest_double(double v);

}  // namespace pns
