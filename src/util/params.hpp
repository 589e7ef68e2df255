// Typed key=value parameter maps for spec strings.
//
// The open control/source plugin API addresses every policy and supply
// shape with a compact spec string -- "pns:v_q=0.04,ordering=freq-first",
// "gov:ondemand:period=0.05", "flicker:period=30,depth=0.5" -- whose
// parameter portion is a ParamMap: an ordered list of key=value pairs
// that parses and serialises losslessly (doubles are encoded with
// shortest_double, so a round-tripped map drives a bit-identical
// simulation). Registries pair a map with the ParamInfo list of the keys
// a kind accepts; validation errors name the offending key *and* the
// valid choices, matching the CLI's diagnostics convention.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pns {

/// Error raised for malformed parameter text, unknown keys, and values
/// that do not parse as the expected type. A distinct type (rather than a
/// contract violation) because spec strings are external input.
class ParamError : public std::runtime_error {
 public:
  explicit ParamError(const std::string& what) : std::runtime_error(what) {}
};

/// Declaration of one accepted parameter: consumed by validation
/// diagnostics and by `pns_sweep list`, so the advertised keys can never
/// drift from the accepted ones.
struct ParamInfo {
  std::string key;
  std::string type;           ///< "double", "int", "string", "bool", ...
  std::string default_value;  ///< rendered default (display only)
  std::string help;           ///< one-line description
};

/// Ordered key=value map with typed accessors.
///
/// Grammar: `key=value[,key=value...]`. Keys are `[A-Za-z0-9_.-]+`;
/// values are any characters except `,` (the pair separator) and are
/// split from the key at the first `=`. Duplicate keys are rejected.
/// Serialisation preserves insertion order, so parse -> serialize is the
/// identity on well-formed text.
class ParamMap {
 public:
  using Entry = std::pair<std::string, std::string>;

  ParamMap() = default;

  /// Parses `key=value,key=value`; empty text yields an empty map.
  /// Throws ParamError on a missing '=', an empty or malformed key, or a
  /// duplicate key.
  static ParamMap parse(std::string_view text);

  /// Inverse of parse: `key=value,key=value` in insertion order.
  std::string serialize() const;

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }
  const std::vector<Entry>& entries() const { return entries_; }

  bool has(const std::string& key) const { return find(key) != nullptr; }
  /// Raw value lookup; nullptr when absent.
  const std::string* find(const std::string& key) const;

  /// Inserts or overwrites the raw value for `key`.
  void set(std::string key, std::string value);
  /// Typed setters; set_double uses shortest_double so the value reads
  /// back as the bit-identical double.
  void set_double(const std::string& key, double v);
  void set_int(const std::string& key, std::int64_t v);
  void set_uint(const std::string& key, std::uint64_t v);

  /// Typed getters return `fallback` when the key is absent and throw
  /// ParamError (naming the key, the expected type and the offending
  /// text) when the value does not parse.
  double get_double(const std::string& key, double fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  /// get_int plus an int-range check, so narrow tunables reject
  /// overflowing values instead of silently wrapping.
  int get_int32(const std::string& key, int fallback) const;
  std::uint64_t get_uint(const std::string& key,
                         std::uint64_t fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;
  std::string get_string(const std::string& key,
                         const std::string& fallback) const;

  /// Throws ParamError when this map holds a key not declared in `valid`,
  /// listing the accepted keys. `context` prefixes the message (e.g.
  /// "control 'pns'").
  void validate_keys(const std::vector<ParamInfo>& valid,
                     const std::string& context) const;

  /// Type-checks every present value against its ParamInfo declaration
  /// ("double"/"int"/"uint"/"bool"; other types pass), so a malformed
  /// value fails at spec-parse time rather than mid-sweep. Keys must
  /// already have passed validate_keys.
  void validate_types(const std::vector<ParamInfo>& valid) const;

  bool operator==(const ParamMap&) const = default;

 private:
  std::vector<Entry> entries_;
};

/// Splits a spec string into its kind path and parameter text. The kind
/// is everything before the last ':' that precedes the first '=' (so
/// multi-segment kinds like "gov:ondemand" survive and values may contain
/// ':'); with no '=' present the whole text is the kind:
///   "pns"                       -> {"pns", ""}
///   "static:opp=4"              -> {"static", "opp=4"}
///   "gov:ondemand:period=0.05"  -> {"gov:ondemand", "period=0.05"}
struct SpecParts {
  std::string kind;
  std::string params;
};
SpecParts split_spec_string(std::string_view text);

/// Lower bound that parse_number enforces.
enum class NumberSign { kAny, kNonNegative, kPositive };

/// Numeric text outside a ParamMap (CLI flag values such as `--minutes
/// 2`), held to the whole-string rule the typed getters apply to spec
/// values: all of `text` is one number, nothing before or after it.
/// parse_number also requires a finite value of the given sign;
/// parse_count a non-negative integer <= `max`. Both throw ParamError
/// "invalid <name> '<text>': expected ...".
double parse_number(const std::string& name, const std::string& text,
                    NumberSign sign = NumberSign::kAny);
std::uint64_t parse_count(
    const std::string& name, const std::string& text,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// Renders a ParamInfo list as "key=<type> (default), ..." for error
/// messages and `pns_sweep list`.
std::string describe_params(const std::vector<ParamInfo>& params);

}  // namespace pns
