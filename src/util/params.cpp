#include "util/params.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "util/json.hpp"

namespace pns {

namespace {

bool valid_key(std::string_view key) {
  if (key.empty()) return false;
  for (char c : key) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

[[noreturn]] void bad_value(const std::string& key, const char* type,
                            const std::string& text) {
  throw ParamError("param '" + key + "': expected " + type + ", got '" +
                   text + "'");
}

double parse_double(const std::string& key, const std::string& text) {
  if (text.empty()) bad_value(key, "a number", text);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) bad_value(key, "a number", text);
  if (errno == ERANGE && (v == HUGE_VAL || v == -HUGE_VAL))
    bad_value(key, "a representable number", text);
  return v;
}

std::uint64_t parse_uint(const std::string& key, const std::string& text) {
  // Digits only: strtoull would also skip leading blanks, take a '+' and
  // negate a '-' instead of failing.
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos)
    bad_value(key, "a non-negative integer", text);
  errno = 0;
  const unsigned long long parsed = std::strtoull(text.c_str(), nullptr, 10);
  if (errno == ERANGE) bad_value(key, "a representable integer", text);
  return parsed;
}

}  // namespace

ParamMap ParamMap::parse(std::string_view text) {
  ParamMap map;
  if (!text.empty() && text.back() == ',')
    throw ParamError("malformed parameter text '" + std::string(text) +
                     "': trailing ','");
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string_view::npos) comma = text.size();
    const std::string_view pair = text.substr(pos, comma - pos);
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos)
      throw ParamError("malformed parameter '" + std::string(pair) +
                       "': expected key=value");
    const std::string key(pair.substr(0, eq));
    if (!valid_key(key))
      throw ParamError("malformed parameter key '" + key +
                       "': keys are [A-Za-z0-9_.-]+");
    if (map.has(key)) throw ParamError("duplicate parameter '" + key + "'");
    map.entries_.emplace_back(key, std::string(pair.substr(eq + 1)));
    pos = comma + 1;
  }
  return map;
}

std::string ParamMap::serialize() const {
  std::string out;
  for (const auto& [key, value] : entries_) {
    if (!out.empty()) out += ',';
    out += key;
    out += '=';
    out += value;
  }
  return out;
}

const std::string* ParamMap::find(const std::string& key) const {
  for (const auto& [k, v] : entries_)
    if (k == key) return &v;
  return nullptr;
}

void ParamMap::set(std::string key, std::string value) {
  for (auto& [k, v] : entries_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  entries_.emplace_back(std::move(key), std::move(value));
}

void ParamMap::set_double(const std::string& key, double v) {
  set(key, shortest_double(v));
}

void ParamMap::set_int(const std::string& key, std::int64_t v) {
  set(key, std::to_string(v));
}

void ParamMap::set_uint(const std::string& key, std::uint64_t v) {
  set(key, std::to_string(v));
}

double ParamMap::get_double(const std::string& key, double fallback) const {
  const std::string* v = find(key);
  return v ? parse_double(key, *v) : fallback;
}

std::int64_t ParamMap::get_int(const std::string& key,
                               std::int64_t fallback) const {
  const std::string* v = find(key);
  if (!v) return fallback;
  if (v->empty()) bad_value(key, "an integer", *v);
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(v->c_str(), &end, 10);
  if (end != v->c_str() + v->size()) bad_value(key, "an integer", *v);
  if (errno == ERANGE) bad_value(key, "a representable integer", *v);
  return parsed;
}

int ParamMap::get_int32(const std::string& key, int fallback) const {
  const std::int64_t v = get_int(key, fallback);
  // Refuse to truncate rather than silently wrap (down_factor=2^32+1
  // must not become 1).
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max())
    bad_value(key, "a 32-bit integer", *find(key));
  return static_cast<int>(v);
}

std::uint64_t ParamMap::get_uint(const std::string& key,
                                 std::uint64_t fallback) const {
  const std::string* v = find(key);
  return v ? parse_uint(key, *v) : fallback;
}

bool ParamMap::get_bool(const std::string& key, bool fallback) const {
  const std::string* v = find(key);
  if (!v) return fallback;
  if (*v == "true" || *v == "1") return true;
  if (*v == "false" || *v == "0") return false;
  bad_value(key, "a bool (true/false/1/0)", *v);
}

std::string ParamMap::get_string(const std::string& key,
                                 const std::string& fallback) const {
  const std::string* v = find(key);
  return v ? *v : fallback;
}

void ParamMap::validate_keys(const std::vector<ParamInfo>& valid,
                             const std::string& context) const {
  for (const auto& [key, value] : entries_) {
    bool known = false;
    for (const auto& info : valid) known = known || info.key == key;
    if (known) continue;
    std::string msg = context + ": unknown param '" + key + "'";
    if (valid.empty()) {
      msg += " (takes no params)";
    } else {
      msg += " (valid: " + describe_params(valid) + ")";
    }
    throw ParamError(msg);
  }
}

void ParamMap::validate_types(const std::vector<ParamInfo>& valid) const {
  for (const auto& info : valid) {
    if (!has(info.key)) continue;
    if (info.type == "double") {
      (void)get_double(info.key, 0.0);
    } else if (info.type == "int") {
      (void)get_int(info.key, 0);
    } else if (info.type == "uint") {
      (void)get_uint(info.key, 0);
    } else if (info.type == "bool") {
      (void)get_bool(info.key, false);
    }
  }
}

double parse_number(const std::string& name, const std::string& text,
                    NumberSign sign) {
  double v = NAN;
  try {
    v = parse_double(name, text);
  } catch (const ParamError&) {
    // reported below, with the accepted range
  }
  if (std::isfinite(v) && (sign != NumberSign::kPositive || v > 0.0) &&
      (sign != NumberSign::kNonNegative || v >= 0.0))
    return v;
  throw ParamError("invalid " + name + " '" + text +
                   "': expected a finite number" +
                   (sign == NumberSign::kPositive      ? " > 0"
                    : sign == NumberSign::kNonNegative ? " >= 0"
                                                       : ""));
}

std::uint64_t parse_count(const std::string& name, const std::string& text,
                          std::uint64_t max) {
  try {
    if (const std::uint64_t v = parse_uint(name, text); v <= max) return v;
  } catch (const ParamError&) {
    // reported below, with the accepted range
  }
  throw ParamError("invalid " + name + " '" + text +
                   "': expected a whole number from 0 to " +
                   std::to_string(max));
}

SpecParts split_spec_string(std::string_view text) {
  const std::size_t eq = text.find('=');
  if (eq == std::string_view::npos)
    return {std::string(text), std::string()};
  const std::size_t colon = text.rfind(':', eq);
  if (colon == std::string_view::npos)
    throw ParamError("malformed spec '" + std::string(text) +
                     "': expected kind[:key=value,...]");
  return {std::string(text.substr(0, colon)),
          std::string(text.substr(colon + 1))};
}

std::string describe_params(const std::vector<ParamInfo>& params) {
  std::string out;
  for (const auto& p : params) {
    if (!out.empty()) out += ", ";
    out += p.key;
    out += "=<" + p.type + ">";
  }
  return out;
}

}  // namespace pns
