#include "sweep/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <filesystem>
#include <system_error>
#include <utility>

#include "util/crc32.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"

namespace pns::sweep {

namespace {

constexpr const char* kJournalKind = "pns-sweep-journal";
constexpr int kJournalVersion = 1;

std::string header_line(const JournalHeader& header) {
  std::string line;
  JsonWriter w(line, JsonStyle::kCompact);
  w.begin_object();
  w.kv("kind", kJournalKind);
  w.kv("version", kJournalVersion);
  w.kv("sweep", header.sweep);
  w.kv("total", static_cast<std::uint64_t>(header.total));
  w.end_object();
  return line;
}

std::string row_line(std::size_t index, const SummaryRow& row,
                     double wall_s) {
  std::string line;
  JsonWriter w(line, JsonStyle::kCompact);
  w.begin_object();
  w.kv("kind", "row");
  w.kv("i", static_cast<std::uint64_t>(index));
  // Execution cost rides along as entry metadata (shard planning reads
  // it); the row object itself stays exactly what the aggregate
  // serialises.
  if (wall_s >= 0.0) w.kv("wall_s", wall_s);
  w.key("row");
  write_summary_row_json(w, row);
  w.end_object();
  return line;
}

// --- per-line CRC framing -----------------------------------------
//
// The checksum is spliced in as the final member of the (compact, one-
// object) line, so a framed line is still one valid JSON document:
//   {"kind":"row",...}  ->  {"kind":"row",...,"crc":"1a2b3c4d"}
// The CRC covers the *original* line bytes; the fixed-width hex keeps
// the suffix a constant 18 characters, which is what lets the reader
// recognise and strip it without parsing first.

constexpr std::string_view kCrcPrefix = ",\"crc\":\"";
constexpr std::size_t kCrcSuffixLen =
    kCrcPrefix.size() + 8 + 2;  // ,"crc":" + 8 hex + "}

std::string crc_framed(std::string line) {
  const std::string crc = crc32_hex(crc32(line));
  line.pop_back();  // drop the closing '}'
  line += kCrcPrefix;
  line += crc;
  line += "\"}";
  return line;
}

enum class CrcCheck { kLegacy, kOk, kMismatch };

/// Detects and strips the crc member: on kOk `line` is rewritten to the
/// original (checksummed) bytes; on kLegacy it is left alone (journals
/// written before checksums existed); kMismatch means corruption.
CrcCheck strip_crc(std::string& line) {
  if (line.size() < kCrcSuffixLen + 2) return CrcCheck::kLegacy;
  const std::size_t at = line.size() - kCrcSuffixLen;
  if (line.compare(at, kCrcPrefix.size(), kCrcPrefix) != 0 ||
      line.compare(line.size() - 2, 2, "\"}") != 0)
    return CrcCheck::kLegacy;
  std::uint32_t stored = 0;
  for (std::size_t i = at + kCrcPrefix.size();
       i < at + kCrcPrefix.size() + 8; ++i) {
    const char c = line[i];
    std::uint32_t digit;
    if (c >= '0' && c <= '9')
      digit = static_cast<std::uint32_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      digit = static_cast<std::uint32_t>(c - 'a' + 10);
    else
      return CrcCheck::kLegacy;  // not our suffix after all
    stored = (stored << 4) | digit;
  }
  std::string original = line.substr(0, at);
  original += '}';
  if (crc32(original) != stored) return CrcCheck::kMismatch;
  line = std::move(original);
  return CrcCheck::kOk;
}

/// fsyncs the directory containing `path`, so a rename into it is
/// durable. Best-effort on filesystems that refuse O_DIRECTORY fsync.
void fsync_parent_dir(const std::string& path) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

/// Folds one {"i": N, ["wall_s": S,] "row": {...}} entry -- a plain
/// journal line or an element of a compacted "rows" block -- into the
/// contents. Later entries win: a resume that re-ran a scenario whose
/// line was torn must supersede nothing, but double-appended completed
/// rows are identical anyway (deterministic simulation).
void read_entry(const JsonValue& doc, JournalContents& contents) {
  const auto index = static_cast<std::size_t>(doc.at("i").as_uint64());
  contents.rows.insert_or_assign(index,
                                 summary_row_from_json(doc.at("row")));
  if (const JsonValue* wall = doc.find("wall_s"))
    contents.costs.insert_or_assign(index, wall->as_double());
  else
    contents.costs.erase(index);
}

}  // namespace

JournalWriter JournalWriter::create(
    const std::string& path, const JournalHeader& header,
    JournalDurability durability,
    std::shared_ptr<fault::FaultInjector> fault) {
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (!out) throw JournalError("cannot create journal: " + path);
  JournalWriter writer(out, durability, std::move(fault));
  writer.write_line(header_line(header));
  return writer;
}

JournalWriter::JournalWriter(JournalWriter&& other) noexcept
    : out_(other.out_),
      durability_(other.durability_),
      fault_(std::move(other.fault_)),
      maybe_torn_(other.maybe_torn_) {
  other.out_ = nullptr;
}

JournalWriter& JournalWriter::operator=(JournalWriter&& other) noexcept {
  if (this != &other) {
    if (out_) std::fclose(out_);
    out_ = other.out_;
    durability_ = other.durability_;
    fault_ = std::move(other.fault_);
    maybe_torn_ = other.maybe_torn_;
    other.out_ = nullptr;
  }
  return *this;
}

JournalWriter::~JournalWriter() {
  if (out_) std::fclose(out_);
}

void JournalWriter::write_line(std::string line) {
  // One whole line per append, flushed, so a kill can only tear the line
  // being written -- which read_journal drops. With kFsync the line also
  // reaches the platter before append() returns: an acknowledged row
  // survives a machine crash, not just a process crash. Every IO step is
  // checked: an append that did not durably land must *fail loudly*
  // (the daemon then refuses to acknowledge the row), never pretend.
  const auto fail = [&](const char* what) -> void {
    maybe_torn_ = true;
    throw JournalError(std::string("journal ") + what + " failed: " +
                       std::strerror(errno));
  };
  if (maybe_torn_) {
    // The file may end mid-line after the previous failure; starting on
    // a fresh line turns that fragment into its own (dropped) line
    // instead of gluing it to this row.
    if (std::fputc('\n', out_) == EOF) fail("resync");
    maybe_torn_ = false;
  }
  const std::string framed = crc_framed(std::move(line));
  if (fault_) {
    const std::size_t torn = fault_->tear_append(framed.size());
    if (torn < framed.size()) {
      // Scheduled torn append: leave a partial line behind, exactly as
      // a crash mid-write would, then report the failure.
      std::fwrite(framed.data(), 1, torn, out_);
      std::fflush(out_);
      maybe_torn_ = true;
      throw JournalError("journal append torn (injected fault)");
    }
  }
  if (std::fwrite(framed.data(), 1, framed.size(), out_) != framed.size())
    fail("append");
  if (std::fputc('\n', out_) == EOF) fail("append");
  if (std::fflush(out_) != 0) fail("flush");
  if (durability_ == JournalDurability::kFsync) {
    if (fault_ && fault_->fail_fsync()) {
      errno = EIO;
      throw JournalError("journal fsync failed (injected fault)");
    }
    if (::fsync(::fileno(out_)) != 0) {
      // The bytes are written and flushed -- only durability is in
      // doubt -- so the line is complete and needs no resync.
      throw JournalError(std::string("journal fsync failed: ") +
                         std::strerror(errno));
    }
  }
}

void JournalWriter::append(std::size_t index, const SummaryRow& row,
                           double wall_s) {
  write_line(row_line(index, row, wall_s));
}

bool JournalWriter::probe() {
  if (!out_) return false;
  if (std::fflush(out_) != 0) return false;
  if (durability_ == JournalDurability::kFsync) {
    if (fault_ && fault_->fail_fsync()) return false;
    if (::fsync(::fileno(out_)) != 0) return false;
  }
  return true;
}

namespace {

/// The torn/corrupt-header diagnostic. A journal whose first line cannot
/// be trusted has no trustworthy identity at all, so nothing in it is
/// salvageable -- unlike a torn *row*, which costs one re-run scenario.
[[noreturn]] void throw_unrecoverable_header(const std::string& path,
                                             const char* why) {
  throw JournalError(path + ": journal header is " + why +
                     " -- journal unrecoverable; re-run the sweep or "
                     "restore the journal from a backup");
}

}  // namespace

JournalContents read_journal(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw JournalError("cannot open journal: " + path);

  JournalContents contents;
  std::string line;
  bool header_seen = false;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;  // resync padding after a torn append
    const CrcCheck crc = strip_crc(line);
    if (crc == CrcCheck::kMismatch) {
      // The line *looks* complete but its checksum disagrees: silent
      // corruption. Quarantine it -- the row is not folded in, so a
      // resume or the daemon simply re-runs that scenario.
      if (!header_seen) throw_unrecoverable_header(path, "corrupt");
      ++contents.quarantined_lines;
      contents.notes.push_back(path + ":" + std::to_string(lineno) +
                               ": checksum mismatch -- line quarantined");
      continue;
    }
    JsonValue doc;
    try {
      doc = parse_json(line);
    } catch (const JsonError&) {
      // A torn line from a killed run -- the row was not durably
      // recorded, so skip and count it. Torn *first* line: the header
      // itself is gone and the journal with it.
      if (!header_seen) throw_unrecoverable_header(path, "torn");
      ++contents.dropped_lines;
      contents.notes.push_back(path + ":" + std::to_string(lineno) +
                               ": torn line dropped");
      continue;
    }
    try {
      const std::string kind = doc.at("kind").as_string();
      if (!header_seen) {
        if (kind != kJournalKind)
          throw JournalError(path + ": first line is not a journal header");
        if (doc.at("version").as_int64() != kJournalVersion)
          throw JournalError(path + ": unsupported journal version");
        contents.header.sweep = doc.at("sweep").as_string();
        contents.header.total =
            static_cast<std::size_t>(doc.at("total").as_uint64());
        header_seen = true;
        continue;
      }
      if (kind == "rows") {
        // Compacted form: one block carrying every entry.
        for (const JsonValue& entry : doc.at("rows").items())
          read_entry(entry, contents);
        continue;
      }
      if (kind != "row") {
        ++contents.dropped_lines;
        contents.notes.push_back(path + ":" + std::to_string(lineno) +
                                 ": unknown line kind '" + kind +
                                 "' dropped");
        continue;
      }
      read_entry(doc, contents);
    } catch (const JsonError& e) {
      if (!header_seen)
        throw JournalError(path + ": malformed journal header (" +
                           e.what() + ")");
      ++contents.dropped_lines;
      contents.notes.push_back(path + ":" + std::to_string(lineno) +
                               ": malformed line dropped (" + e.what() +
                               ")");
    }
  }
  if (!header_seen)
    throw JournalError(path + ": empty journal (no header line)");
  return contents;
}

namespace {

/// Shared temp + fsync + atomic-rename tail of the journal rewriters:
/// `emit` writes the replacement contents onto the stream; the temp file
/// is fsynced before the rename and the directory after it, so a crash
/// at any point leaves either the original or the complete replacement
/// durably under the final name -- never a torn file.
template <typename Emit>
void replace_journal_atomically(const std::string& out_path,
                                const char* what, Emit&& emit) {
  const std::string tmp_path = out_path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::trunc);
    if (!out)
      throw JournalError(std::string("cannot write ") + what + ": " +
                         tmp_path);
    emit(out);
    out.flush();
    if (!out)
      throw JournalError(std::string("cannot write ") + what + ": " +
                         tmp_path);
  }
  // Reopen by path for the fsync: ofstream exposes no fd.
  const int fd = ::open(tmp_path.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path, out_path, ec);
  if (ec) {
    std::filesystem::remove(tmp_path, ec);
    throw JournalError(std::string("cannot replace ") + what + " " +
                       out_path + ": " + ec.message());
  }
  fsync_parent_dir(out_path);
}

}  // namespace

std::size_t compact_journal(const std::string& in_path,
                            const std::string& out_path) {
  const JournalContents contents = read_journal(in_path);

  replace_journal_atomically(
      out_path, "compacted journal", [&](std::ostream& out) {
        out << crc_framed(header_line(contents.header)) << '\n';

        std::string block;
        JsonWriter w(block, JsonStyle::kCompact);
        w.begin_object();
        w.kv("kind", "rows");
        w.key("rows");
        w.begin_array();
        for (const auto& [index, row] : contents.rows) {
          w.begin_object();
          w.kv("i", static_cast<std::uint64_t>(index));
          const auto cost = contents.costs.find(index);
          if (cost != contents.costs.end()) w.kv("wall_s", cost->second);
          w.key("row");
          write_summary_row_json(w, row);
          w.end_object();
        }
        w.end_array();
        w.end_object();
        out << crc_framed(block) << '\n';
      });
  return contents.rows.size();
}

void write_canonical_journal(
    const std::string& path, const JournalHeader& header,
    const std::map<std::size_t, SummaryRow>& rows) {
  replace_journal_atomically(
      path, "canonical journal", [&](std::ostream& out) {
        out << crc_framed(header_line(header)) << '\n';
        // Index order, no wall_s: the bytes depend only on what the
        // sweep computed, never on which worker computed it or how fast.
        for (const auto& [index, row] : rows)
          out << crc_framed(row_line(index, row, -1.0)) << '\n';
      });
}

JournalContents read_journal(const std::string& path,
                             const JournalHeader& expected) {
  JournalContents contents = read_journal(path);
  if (contents.header != expected) {
    throw JournalError(
        path + ": journal belongs to sweep '" + contents.header.sweep +
        "' with " + std::to_string(contents.header.total) +
        " scenarios, expected '" + expected.sweep + "' with " +
        std::to_string(expected.total) +
        " -- refusing to mix sweeps (delete the journal to start over)");
  }
  return contents;
}

CheckpointJournal CheckpointJournal::open(
    const std::string& path, const JournalHeader& header,
    const std::vector<ScenarioSpec>& specs, JournalDurability durability,
    std::shared_ptr<fault::FaultInjector> fault) {
  if (!std::filesystem::exists(path)) {
    JournalContents fresh;
    fresh.header = header;
    return {std::move(fresh), JournalWriter::create(path, header, durability,
                                                    std::move(fault))};
  }
  JournalContents recorded = read_journal(path, header);
  for (const auto& [i, row] : recorded.rows) {
    if (i >= specs.size() || row.label != specs[i].label)
      throw JournalError(path + ": journaled row does not match scenario " +
                         std::to_string(i) +
                         " -- delete the journal to start over");
  }
  std::FILE* out = std::fopen(path.c_str(), "ab");
  if (!out) throw JournalError("cannot open journal for append: " + path);
  return {std::move(recorded),
          JournalWriter(out, durability, std::move(fault))};
}

}  // namespace pns::sweep
