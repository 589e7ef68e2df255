// Append-only checkpoint journal for sweep runs.
//
// A journal is a JSON Lines file: a header line identifying the sweep it
// belongs to, then one compact-JSON row per *completed* scenario, written
// and flushed as each scenario finishes. Because every line is appended
// whole and flushed, a killed run leaves at most one torn trailing line
// -- which the reader detects and drops -- so `pns_sweep --resume` (and
// SweepRunner::resume) continue from the last completed scenario instead
// of restarting an overnight sweep from zero.
//
// Entries carry the *global* spec index, so N shard workers
// (`pns_sweep <sweep> --shard k/N --journal part-k.jsonl`) each append a
// partial journal and `pns_sweep merge` folds them back into the
// canonical aggregate, byte-identical to a single-process run (numeric
// fields round-trip exactly via shortest_double; see aggregate.hpp).
//
// Format, one JSON document per line; every written line carries a
// trailing CRC-32 of the line *without* the crc member, so silent
// corruption (bit flips, partial sector overwrites) is detected and the
// row quarantined instead of folded into the aggregate. Lines without a
// crc member are legacy journals and still read fine:
//   {"kind":"pns-sweep-journal","version":1,"sweep":"table2","total":18,
//    "crc":"d41c87a0"}
//   {"kind":"row","i":0,"row":{...aggregate row object...},"crc":"..."}
//   {"kind":"row","i":7,"row":{...},"crc":"..."}
#pragma once

#include <cstddef>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sweep/aggregate.hpp"

namespace pns::fault {
class FaultInjector;
}

namespace pns::sweep {

/// Identity of the sweep a journal belongs to. Resume and merge refuse a
/// journal whose header does not match the sweep being (re)run -- mixing
/// rows of two different sweeps would silently corrupt the aggregate.
struct JournalHeader {
  std::string sweep;      ///< sweep name (preset name, or caller-chosen)
  std::size_t total = 0;  ///< scenario count of the *full* (unsharded) sweep

  bool operator==(const JournalHeader&) const = default;
};

/// Everything read back from a journal file.
struct JournalContents {
  JournalHeader header;
  /// Completed rows keyed by global spec index.
  std::map<std::size_t, SummaryRow> rows;
  /// Measured execution wall-clock per global spec index (seconds),
  /// for the entries that recorded one. Feeds cost-weighted shard
  /// planning (sweep/runner.hpp plan_shards); never part of the
  /// aggregate, so a journal with or without costs publishes identical
  /// CSV/JSON.
  std::map<std::size_t, double> costs;
  /// Torn or unparseable lines that were skipped (at most the trailing
  /// line after a kill; more indicates external corruption).
  std::size_t dropped_lines = 0;
  /// Lines that parsed but failed their CRC-32 check: complete-looking
  /// yet corrupt, so their rows were *not* folded in. A resume (or the
  /// daemon's reload) simply re-runs those scenarios.
  std::size_t quarantined_lines = 0;
  /// One human-readable diagnostic per dropped or quarantined line
  /// ("path:line: why"), so recovery logs exactly what was lost.
  std::vector<std::string> notes;
};

/// Error raised for a missing/unreadable journal, a malformed header, or
/// a header that does not match the expected sweep identity.
class JournalError : public std::runtime_error {
 public:
  explicit JournalError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Journal durability level.
///
/// kFlush pushes every appended line into the OS (a crashed *process*
/// loses at most the line being written); kFsync additionally fsyncs the
/// file after each append, so even a machine crash or power cut cannot
/// lose a row that was acknowledged -- the contract the sweep daemon
/// needs before telling a worker its lease results are safe. kFsync
/// costs a disk round-trip per row, so it is opt-in (`--fsync`).
enum class JournalDurability { kFlush, kFsync };

/// Appends journal lines to a file, flushing (and optionally fsyncing)
/// after every line so a kill loses at most the scenario in flight. Not
/// thread-safe: callers serialise appends (SweepRunner's on_outcome hook
/// already runs under a mutex).
class JournalWriter {
 public:
  /// Creates (truncating) `path` and writes the header line. The
  /// optional fault injector schedules torn appends and failed fsyncs
  /// (chaos testing); null = none.
  static JournalWriter create(
      const std::string& path, const JournalHeader& header,
      JournalDurability durability = JournalDurability::kFlush,
      std::shared_ptr<fault::FaultInjector> fault = nullptr);

  JournalWriter(JournalWriter&& other) noexcept;
  JournalWriter& operator=(JournalWriter&& other) noexcept;
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;
  ~JournalWriter();

  /// Appends one completed row under its global spec index. `wall_s`
  /// (when >= 0) records the scenario's measured execution wall-clock so
  /// later runs can plan cost-balanced shards; it is metadata, not part
  /// of the row. Throws JournalError when the append did not durably
  /// complete (write/flush/fsync failure, injected or real); the writer
  /// stays usable -- the next append re-synchronises onto a fresh line,
  /// so a torn fragment becomes its own dropped line instead of
  /// corrupting the row that follows it.
  void append(std::size_t index, const SummaryRow& row,
              double wall_s = -1.0);

  /// True when the journal is currently writable (flush + fsync at this
  /// writer's durability succeed). The daemon's degraded mode polls this
  /// to discover that a sick state dir has healed.
  bool probe();

 private:
  friend struct CheckpointJournal;

  JournalWriter(std::FILE* out, JournalDurability durability,
                std::shared_ptr<fault::FaultInjector> fault)
      : out_(out), durability_(durability), fault_(std::move(fault)) {}

  void write_line(const std::string& line);

  std::FILE* out_ = nullptr;  ///< FILE* (not ofstream) so fsync can reach
                              ///< the fd behind the stream
  JournalDurability durability_ = JournalDurability::kFlush;
  std::shared_ptr<fault::FaultInjector> fault_;
  /// Set after a failed append: the file may end mid-line, so the next
  /// append starts with a '\n' to re-synchronise.
  bool maybe_torn_ = false;
};

/// A checkpoint journal opened for a run (SweepRunner::run_checkpointed,
/// the sweep daemon's jobs): the rows recorded so far and the writer
/// that appends the rest.
struct CheckpointJournal {
  JournalContents recorded;  ///< no rows for a new file
  JournalWriter writer;

  /// Opens `path` for a run of `specs` under `header`. An existing file
  /// must match `header`, and each recorded row must carry the label of
  /// the scenario at its index (else it belongs to a differently
  /// parameterised sweep of the same name and size); it is then reopened
  /// for append. A missing file is created. Throws JournalError naming
  /// `path` on a mismatch or an IO failure.
  static CheckpointJournal open(
      const std::string& path, const JournalHeader& header,
      const std::vector<ScenarioSpec>& specs,
      JournalDurability durability = JournalDurability::kFlush,
      std::shared_ptr<fault::FaultInjector> fault = nullptr);
};

/// Reads a journal back. Torn or unparseable lines are dropped and
/// counted; lines whose CRC-32 check fails are quarantined (counted
/// separately, rows not folded in) -- both leave a per-line note in
/// `notes`. Later duplicates of an index win, so a row appended twice
/// (e.g. two resumes racing) stays consistent. Throws JournalError when
/// the file cannot be opened, or when the *header* line itself is torn
/// or corrupt: a journal without a trustworthy identity is
/// unrecoverable, and the error says to re-run or restore it.
JournalContents read_journal(const std::string& path);

/// Reads and validates against an expected identity in one step.
JournalContents read_journal(const std::string& path,
                             const JournalHeader& expected);

/// Rewrites the journal at `in_path` as its header plus ONE aggregate
/// "rows" block holding every completed row (and recorded cost) -- the
/// compaction the `pns_sweep compact` subcommand exposes. A long-lived
/// journal accretes one line per scenario (plus superseded duplicates
/// from re-runs); after compaction it holds two lines and parses in one
/// shot, while resuming from it reproduces byte-identical aggregates
/// (tests/sweep/test_checkpoint.cpp proves the round trip). `out_path`
/// may equal `in_path`: the rewrite goes through a temp file + atomic
/// rename, so a kill mid-compaction never loses the original. Returns
/// the number of rows written.
std::size_t compact_journal(const std::string& in_path,
                            const std::string& out_path);

/// Writes `rows` as a *canonical* journal: the header line, then one row
/// line per entry in ascending index order, with no wall_s metadata.
/// Because row JSON round-trips bit-for-bit and execution timing is
/// excluded, the canonical form of a journal is a pure function of the
/// sweep -- a single-process run, an N-shard merge and a `pns_sweepd`
/// distributed run all canonicalise to the *same bytes*, which is how
/// the distributed byte-identity contract is enforced (`pns_sweep merge
/// --journal`, tests/sweepd). Goes through temp + fsync + atomic rename
/// like compact_journal. Throws JournalError on IO failure.
void write_canonical_journal(const std::string& path,
                             const JournalHeader& header,
                             const std::map<std::size_t, SummaryRow>& rows);

}  // namespace pns::sweep
