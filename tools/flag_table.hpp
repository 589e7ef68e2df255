// A tool's command-line flags as one table (pns_sweep, pns_sweepd).
//
// Each flag is one row: its name, its value's placeholder (none for a
// switch), how the value is parsed into the tool's options, the commands
// that read it and its help line. Parsing and the options section of
// --help both come from the table, so they cannot drift apart.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "util/params.hpp"

namespace pns::cli {

template <class Options>
struct Flag {
  const char* name;
  const char* metavar;  ///< the value's placeholder; nullptr: a switch
  /// Parses the value ("" for a switch); throws ParamError naming the flag.
  void (*set)(Options& opt, const std::string& flag, const std::string& value);
  const char* help;
  unsigned commands = ~0u;  ///< bit i set: command i reads the flag
  /// Cross-flag prerequisite: nullptr when `opt` meets it, else the
  /// refusal that follows the flag's name ("requires --journal").
  const char* (*unmet)(const Options& opt) = nullptr;
};

/// Non-deduced, so a tool's C array of rows converts to it.
template <class Options>
using Flags = std::type_identity_t<std::span<const Flag<Options>>>;

/// Rethrows a failure of `parse(value)` as "invalid FLAG 'VALUE': WHAT".
template <class Parse>
auto parse_value(const std::string& flag, const std::string& value,
                 Parse parse) {
  try {
    return parse(value);
  } catch (const std::exception& e) {
    throw ParamError("invalid " + flag + " '" + value + "': " + e.what());
  }
}

/// A parsed command line: the rows given, in command-line order, and the
/// positional words.
template <class Options>
struct Parsed {
  std::vector<const Flag<Options>*> given;
  std::vector<std::string> positionals;
};

/// Parses argv[first, argc) into `opt`. --help/-h prints `usage` and
/// exits 0. A word not starting with "--" is a positional when
/// `positionals` is set. Exits 2 on an unknown option (then `usage`), a
/// flag without its value, or a value its row refuses.
template <class Options>
Parsed<Options> parse(int argc, char** argv, int first, Flags<Options> flags,
                      Options& opt, bool positionals,
                      void (*usage)(const char* argv0)) {
  Parsed<Options> parsed;
  try {
    for (int i = first; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        usage(argv[0]);
        std::exit(0);
      }
      const Flag<Options>* row = nullptr;
      for (const auto& f : flags)
        if (arg == f.name) row = &f;
      if (!row && positionals && arg.rfind("--", 0) != 0) {
        parsed.positionals.push_back(arg);
      } else if (!row) {
        std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
        usage(argv[0]);
        std::exit(2);
      } else if (row->metavar && i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", arg.c_str());
        std::exit(2);
      } else {
        row->set(opt, arg, row->metavar ? argv[++i] : "");
        parsed.given.push_back(row);
      }
    }
  } catch (const ParamError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
  return parsed;
}

/// The names of the commands in `mask`, comma-separated.
inline std::string command_list(unsigned mask,
                                std::span<const char* const> names) {
  std::string out;
  for (std::size_t i = 0; i < names.size(); ++i)
    if (mask & (1u << i))
      out += (out.empty() ? "" : ", ") + std::string(names[i]);
  return out;
}

/// The options section of --help: a line per flag, then, given the
/// command `names`, a line naming the commands that read it.
template <class Options>
void print_flags(Flags<Options> flags,
                 std::span<const char* const> names = {}) {
  for (const auto& f : flags) {
    const std::string head =
        std::string(f.name) + (f.metavar ? std::string(" ") + f.metavar : "");
    std::printf("  %-20s %s\n", head.c_str(), f.help);
    if (!names.empty())
      std::printf("  %-20s (%s)\n", "",
                  command_list(f.commands, names).c_str());
  }
}

}  // namespace pns::cli
