// Tests for the checkpoint journal + shard/merge machinery: an
// interrupted-then-resumed or N-shard-merged sweep must publish an
// aggregate byte-identical to a single uninterrupted run.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sweep/aggregate.hpp"
#include "sweep/journal.hpp"
#include "sweep/runner.hpp"
#include "sweep/scenario.hpp"
#include "sweepd/job.hpp"
#include "util/contracts.hpp"
#include "util/fault.hpp"

namespace pns::sweep {
namespace {

namespace fs = std::filesystem;

// Unique-per-test scratch file, removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& stem) {
    path_ = (fs::temp_directory_path() /
             (stem + "-" + std::to_string(::getpid()) + ".jsonl"))
                .string();
    fs::remove(path_);
  }
  ~TempFile() { fs::remove(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Six fast scenarios (30 simulated seconds each) exercising several
// control paths, as in test_sweep.cpp.
SweepSpec small_sweep() {
  SweepSpec sw;
  sw.base.t_start = 12.0 * 3600.0;
  sw.base.t_end = sw.base.t_start + 30.0;
  sw.base.record_series = false;
  sw.controls = {ControlSpec::power_neutral(),
                 ControlSpec::linux_governor("powersave"),
                 ControlSpec::linux_governor("ondemand")};
  sw.seeds = {11, 12};
  return sw;
}

// The journal identity of a `pns_sweep PRESET --minutes M ...` run with
// the default PV mode, as the CLI and the daemon compute it.
std::string identity_of(const std::string& preset, double minutes,
                        std::vector<ControlSpec> controls,
                        std::vector<SourceSpec> sources,
                        IntegratorSpec integrator = {}) {
  sweepd::JobSpec job;
  job.preset = preset;
  job.minutes = minutes;
  job.controls = std::move(controls);
  job.sources = std::move(sources);
  job.integrator = std::move(integrator);
  return job.identity();
}

SweepRunner runner_with(unsigned threads) {
  SweepRunnerOptions opt;
  opt.threads = threads;
  return SweepRunner(opt);
}

std::string csv_of(const std::vector<SummaryRow>& rows) {
  std::ostringstream os;
  Aggregator(rows).write_csv(os);
  return os.str();
}

std::string json_of(const std::vector<SummaryRow>& rows) {
  std::ostringstream os;
  Aggregator(rows).write_json(os);
  return os.str();
}

std::vector<SummaryRow> uninterrupted_rows(
    const std::vector<ScenarioSpec>& specs) {
  const auto outcomes = runner_with(2).run(specs);
  std::vector<SummaryRow> rows;
  rows.reserve(outcomes.size());
  for (const auto& o : outcomes) rows.push_back(summarize(o));
  return rows;
}

// ----------------------------------------------------------- journal

TEST(Journal, RowsRoundTripBitExactly) {
  const auto specs = small_sweep().expand();
  const auto rows = uninterrupted_rows(specs);
  TempFile file("pns-journal-roundtrip");

  JournalWriter writer =
      JournalWriter::create(file.path(), {"small", specs.size()});
  for (std::size_t i = 0; i < rows.size(); ++i) writer.append(i, rows[i]);

  const JournalContents contents = read_journal(file.path());
  EXPECT_EQ(contents.header.sweep, "small");
  EXPECT_EQ(contents.header.total, specs.size());
  EXPECT_EQ(contents.dropped_lines, 0u);
  ASSERT_EQ(contents.rows.size(), rows.size());
  std::vector<SummaryRow> parsed;
  for (const auto& [i, row] : contents.rows) {
    EXPECT_EQ(i, parsed.size());
    parsed.push_back(row);
  }
  // Bitwise-identical serialisation is the contract resume/merge rest on.
  EXPECT_EQ(csv_of(parsed), csv_of(rows));
  EXPECT_EQ(json_of(parsed), json_of(rows));
}

TEST(Journal, TornTrailingLineIsDropped) {
  const auto specs = small_sweep().expand();
  const auto rows = uninterrupted_rows(specs);
  TempFile file("pns-journal-torn");
  {
    JournalWriter writer =
        JournalWriter::create(file.path(), {"small", specs.size()});
    writer.append(0, rows[0]);
    writer.append(1, rows[1]);
  }
  {
    // A kill mid-append leaves a prefix of a line with no newline.
    std::ofstream torn(file.path(), std::ios::app);
    torn << "{\"kind\":\"row\",\"i\":2,\"row\":{\"label\":\"trunc";
  }
  const JournalContents contents = read_journal(file.path());
  EXPECT_EQ(contents.rows.size(), 2u);
  EXPECT_EQ(contents.dropped_lines, 1u);
}

TEST(Journal, FsyncDurabilityWritesIdenticalBytes) {
  const auto specs = small_sweep().expand();
  const auto rows = uninterrupted_rows(specs);
  TempFile flushed("pns-journal-flush");
  TempFile fsynced("pns-journal-fsync");
  {
    JournalWriter a = JournalWriter::create(
        flushed.path(), {"small", specs.size()}, JournalDurability::kFlush);
    JournalWriter b = JournalWriter::create(
        fsynced.path(), {"small", specs.size()}, JournalDurability::kFsync);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      a.append(i, rows[i], 0.5);
      b.append(i, rows[i], 0.5);
    }
  }
  // --fsync changes crash durability, never the bytes.
  std::ifstream fa(flushed.path(), std::ios::binary);
  std::ifstream fb(fsynced.path(), std::ios::binary);
  std::stringstream sa, sb;
  sa << fa.rdbuf();
  sb << fb.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
  EXPECT_NE(sa.str().find("pns-sweep-journal"), std::string::npos);
}

TEST(Journal, CanonicalFormIsIndexOrderedAndTimingFree) {
  const auto specs = small_sweep().expand();
  const auto rows = uninterrupted_rows(specs);
  TempFile file("pns-journal-canon");

  // Completion-order appends with wall_s metadata...
  std::map<std::size_t, SummaryRow> by_index;
  {
    JournalWriter writer =
        JournalWriter::create(file.path(), {"small", specs.size()});
    for (std::size_t k = rows.size(); k-- > 0;)
      writer.append(k, rows[k], 0.1 * static_cast<double>(k));
    for (std::size_t i = 0; i < rows.size(); ++i)
      by_index.emplace(i, rows[i]);
  }
  TempFile canon_a("pns-journal-canon-a");
  write_canonical_journal(canon_a.path(), {"small", specs.size()},
                          by_index);
  // ...canonicalise to the same bytes as rows that never saw a journal:
  // the canonical form is a pure function of the sweep.
  const JournalContents round = read_journal(file.path());
  TempFile canon_b("pns-journal-canon-b");
  write_canonical_journal(canon_b.path(), round.header, round.rows);

  std::ifstream fa(canon_a.path(), std::ios::binary);
  std::ifstream fb(canon_b.path(), std::ios::binary);
  std::stringstream sa, sb;
  sa << fa.rdbuf();
  sb << fb.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
  EXPECT_EQ(sa.str().find("wall_s"), std::string::npos);

  // And reading the canonical journal back yields the original rows.
  const JournalContents canon = read_journal(canon_a.path());
  ASSERT_EQ(canon.rows.size(), rows.size());
  std::vector<SummaryRow> parsed;
  for (const auto& [i, row] : canon.rows) parsed.push_back(row);
  EXPECT_EQ(csv_of(parsed), csv_of(rows));
}

TEST(Journal, MissingHeaderRejected) {
  TempFile file("pns-journal-noheader");
  std::ofstream(file.path()) << "{\"kind\":\"row\",\"i\":0}\n";
  EXPECT_THROW(read_journal(file.path()), JournalError);
  EXPECT_THROW(read_journal("/no/such/journal.jsonl"), JournalError);
}

TEST(Journal, IdentityMismatchRejected) {
  TempFile file("pns-journal-mismatch");
  JournalWriter::create(file.path(), {"table2", 18});
  EXPECT_NO_THROW(read_journal(file.path(), JournalHeader{"table2", 18}));
  EXPECT_THROW(read_journal(file.path(), JournalHeader{"table2", 12}),
               JournalError);
  EXPECT_THROW(read_journal(file.path(), JournalHeader{"weather", 18}),
               JournalError);
}

// ------------------------------------------------- CRC + chaos recovery

std::vector<std::string> file_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

void write_lines(const std::string& path,
                 const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  for (const std::string& line : lines) out << line << '\n';
}

TEST(JournalCrc, EveryWrittenLineCarriesAChecksum) {
  const auto specs = small_sweep().expand();
  const auto rows = uninterrupted_rows(specs);
  TempFile file("pns-crc-every");
  {
    JournalWriter writer =
        JournalWriter::create(file.path(), {"small", specs.size()});
    for (std::size_t i = 0; i < rows.size(); ++i) writer.append(i, rows[i]);
  }
  const auto lines = file_lines(file.path());
  ASSERT_EQ(lines.size(), rows.size() + 1);  // header + one per row
  for (const std::string& line : lines) {
    // The fixed-width suffix: ,"crc":"xxxxxxxx"}
    ASSERT_GE(line.size(), 18u) << line;
    const std::string tail = line.substr(line.size() - 18);
    EXPECT_EQ(tail.substr(0, 8), ",\"crc\":\"") << line;
    EXPECT_EQ(tail.substr(16), "\"}") << line;
    for (char c : tail.substr(8, 8))
      EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(c))) << line;
  }
}

TEST(JournalCrc, LegacyJournalsWithoutChecksumsStillRead) {
  const auto specs = small_sweep().expand();
  const auto rows = uninterrupted_rows(specs);
  TempFile file("pns-crc-legacy");
  {
    JournalWriter writer =
        JournalWriter::create(file.path(), {"small", specs.size()});
    for (std::size_t i = 0; i < rows.size(); ++i) writer.append(i, rows[i]);
  }
  // Strip every crc suffix, leaving the journal exactly as a pre-CRC
  // build would have written it.
  auto lines = file_lines(file.path());
  for (std::string& line : lines)
    line = line.substr(0, line.size() - 18) + "}";
  write_lines(file.path(), lines);

  const JournalContents contents = read_journal(file.path());
  EXPECT_EQ(contents.quarantined_lines, 0u);
  EXPECT_EQ(contents.dropped_lines, 0u);
  ASSERT_EQ(contents.rows.size(), rows.size());
  std::vector<SummaryRow> parsed;
  for (const auto& [i, row] : contents.rows) parsed.push_back(row);
  EXPECT_EQ(csv_of(parsed), csv_of(rows));
}

TEST(JournalCrc, CorruptRowIsQuarantinedAndResumeHealsIt) {
  const auto specs = small_sweep().expand();
  const auto full = uninterrupted_rows(specs);
  TempFile file("pns-crc-flip");
  {
    JournalWriter writer =
        JournalWriter::create(file.path(), {"small", specs.size()});
    for (std::size_t i = 0; i < full.size(); ++i) writer.append(i, full[i]);
  }
  // Flip one byte inside row 2's payload: the line still parses as JSON
  // (a silent corruption), but its checksum no longer matches.
  auto lines = file_lines(file.path());
  std::string& target = lines[3];  // header, row0, row1, row2
  const std::size_t label = target.find("\"label\":\"");
  ASSERT_NE(label, std::string::npos);
  target[label + 9] = (target[label + 9] == 'Z') ? 'Y' : 'Z';
  write_lines(file.path(), lines);

  const JournalContents contents = read_journal(file.path());
  EXPECT_EQ(contents.quarantined_lines, 1u);
  EXPECT_EQ(contents.rows.size(), full.size() - 1);
  EXPECT_EQ(contents.rows.count(2), 0u);
  ASSERT_FALSE(contents.notes.empty());
  EXPECT_NE(contents.notes[0].find("checksum"), std::string::npos);

  // A resume re-runs exactly the quarantined scenario and the published
  // aggregate equals the clean run that never saw the corruption.
  const auto report = runner_with(1).resume(specs, file.path(), "small");
  EXPECT_EQ(report.reused, full.size() - 1);
  EXPECT_EQ(report.executed, 1u);
  EXPECT_EQ(csv_of(report.rows), csv_of(full));
  EXPECT_EQ(json_of(report.rows), json_of(full));
}

TEST(JournalCrc, MergeAfterQuarantineEqualsCleanRun) {
  // The shard-merge workflow with corruption in one shard: after the
  // shard re-runs its quarantined row, the merged union is byte-equal
  // to the single clean run.
  const auto specs = small_sweep().expand();
  const auto full = uninterrupted_rows(specs);
  TempFile a("pns-crc-merge-a");
  TempFile b("pns-crc-merge-b");
  for (std::size_t k = 0; k < 2; ++k)
    runner_with(2).run_checkpointed(
        specs, (k == 0 ? a : b).path(), "small",
        shard_range(specs.size(), k, 2));

  // Corrupt the first row line of shard a.
  auto lines = file_lines(a.path());
  const std::size_t label = lines[1].find("\"label\":\"");
  ASSERT_NE(label, std::string::npos);
  lines[1][label + 9] = (lines[1][label + 9] == 'Z') ? 'Y' : 'Z';
  write_lines(a.path(), lines);
  EXPECT_EQ(read_journal(a.path()).quarantined_lines, 1u);

  // The shard worker re-runs: only the quarantined scenario executes,
  // and its fresh row supersedes the corrupt line (later wins).
  const auto healed = runner_with(1).run_checkpointed(
      specs, a.path(), "small", shard_range(specs.size(), 0, 2));
  EXPECT_EQ(healed.executed, 1u);

  std::map<std::size_t, SummaryRow> merged;
  for (const auto* f : {&a, &b}) {
    JournalContents part =
        read_journal(f->path(), JournalHeader{"small", specs.size()});
    merged.insert(part.rows.begin(), part.rows.end());
  }
  ASSERT_EQ(merged.size(), specs.size());
  std::vector<SummaryRow> rows;
  for (auto& [i, row] : merged) rows.push_back(std::move(row));
  EXPECT_EQ(csv_of(rows), csv_of(full));
}

TEST(Journal, TornHeaderIsUnrecoverableWithAClearDiagnostic) {
  const auto specs = small_sweep().expand();
  TempFile file("pns-crc-header");
  JournalWriter::create(file.path(), {"small", specs.size()});
  // Truncate mid-header: no trustworthy identity survives.
  const auto lines = file_lines(file.path());
  std::ofstream(file.path(), std::ios::trunc | std::ios::binary)
      << lines[0].substr(0, lines[0].size() / 2);
  try {
    read_journal(file.path());
    FAIL() << "expected JournalError";
  } catch (const JournalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unrecoverable"), std::string::npos) << what;
    EXPECT_NE(what.find("re-run"), std::string::npos) << what;
  }
}

TEST(Journal, FailedFsyncAppendThrowsThenResynchronises) {
  const auto specs = small_sweep().expand();
  const auto full = uninterrupted_rows(specs);
  TempFile file("pns-crc-fsync");
  // The 2nd fsync (the first row append; the header took the 1st) is
  // scheduled to fail. The append must fail loudly; the writer stays
  // usable and the retry lands on a fresh line.
  auto inj = fault::make_injector("fault:seed=1,fsync_fail=2");
  JournalWriter writer = JournalWriter::create(
      file.path(), {"small", specs.size()}, JournalDurability::kFsync, inj);
  EXPECT_THROW(writer.append(0, full[0]), JournalError);
  EXPECT_NO_THROW(writer.append(0, full[0]));
  EXPECT_NO_THROW(writer.append(1, full[1]));
  EXPECT_TRUE(writer.probe());

  const JournalContents contents = read_journal(file.path());
  EXPECT_EQ(contents.rows.size(), 2u);
  EXPECT_EQ(csv_of({contents.rows.at(0), contents.rows.at(1)}),
            csv_of({full[0], full[1]}));
}

TEST(Journal, TornAppendLeavesItsOwnDroppedLine) {
  const auto specs = small_sweep().expand();
  const auto full = uninterrupted_rows(specs);
  // Find a seed whose tear-site schedule is miss, hit, miss, miss: the
  // header write goes through, the first append tears, and the retry +
  // second append go through (each site's sequence is a pure function
  // of the seed, so this probe is exact).
  std::uint64_t seed = 0;
  for (std::uint64_t s = 1; s < 500; ++s) {
    fault::FaultInjector probe(
        fault::FaultSpec::parse("fault:seed=" + std::to_string(s) +
                                ",torn_append=0.5"));
    if (probe.tear_append(100) == 100 && probe.tear_append(100) < 100 &&
        probe.tear_append(100) == 100 && probe.tear_append(100) == 100) {
      seed = s;
      break;
    }
  }
  ASSERT_NE(seed, 0u);

  TempFile file("pns-crc-torn-append");
  auto inj = fault::make_injector("fault:seed=" + std::to_string(seed) +
                                  ",torn_append=0.5");
  JournalWriter writer = JournalWriter::create(
      file.path(), {"small", specs.size()}, JournalDurability::kFlush, inj);
  EXPECT_THROW(writer.append(0, full[0]), JournalError);
  EXPECT_NO_THROW(writer.append(0, full[0]));
  EXPECT_NO_THROW(writer.append(1, full[1]));

  // The torn fragment became its own dropped line; both rows are intact.
  const JournalContents contents = read_journal(file.path());
  EXPECT_EQ(contents.dropped_lines, 1u);
  ASSERT_FALSE(contents.notes.empty());
  EXPECT_EQ(contents.rows.size(), 2u);
  EXPECT_EQ(csv_of({contents.rows.at(0), contents.rows.at(1)}),
            csv_of({full[0], full[1]}));
}

// ------------------------------------------------------------- resume

TEST(SweepRunnerResume, FreshRunJournalsEveryScenario) {
  const auto specs = small_sweep().expand();
  TempFile file("pns-resume-fresh");
  const auto report = runner_with(2).resume(specs, file.path(), "small");
  EXPECT_EQ(report.reused, 0u);
  EXPECT_EQ(report.executed, specs.size());
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(read_journal(file.path()).rows.size(), specs.size());
  EXPECT_EQ(csv_of(report.rows), csv_of(uninterrupted_rows(specs)));
}

TEST(SweepRunnerResume, InterruptedRunResumesAndMatchesByteForByte) {
  const auto specs = small_sweep().expand();
  const auto full = uninterrupted_rows(specs);
  const std::string reference_csv = csv_of(full);
  const std::string reference_json = json_of(full);

  // Simulate a run killed after K completed scenarios: a journal holding
  // only the first K rows.
  for (std::size_t k : {std::size_t{1}, std::size_t{4}}) {
    TempFile file("pns-resume-k" + std::to_string(k));
    {
      JournalWriter writer =
          JournalWriter::create(file.path(), {"small", specs.size()});
      for (std::size_t i = 0; i < k; ++i) writer.append(i, full[i]);
    }
    const auto report = runner_with(2).resume(specs, file.path(), "small");
    EXPECT_EQ(report.reused, k);
    EXPECT_EQ(report.executed, specs.size() - k);
    EXPECT_EQ(csv_of(report.rows), reference_csv);
    EXPECT_EQ(json_of(report.rows), reference_json);
    // The journal is now complete: a second resume simulates nothing.
    const auto again = runner_with(2).resume(specs, file.path(), "small");
    EXPECT_EQ(again.reused, specs.size());
    EXPECT_EQ(again.executed, 0u);
    EXPECT_EQ(csv_of(again.rows), reference_csv);
  }
}

TEST(SweepRunnerResume, LockstepRowsJournalOnceEachAndResumeByteIdentically) {
  // rk23simd rows reach the journal one by one as their lanes finish:
  // one line per row with its own cost, and a journal cut after any
  // prefix of those lines resumes to the bytes of an uninterrupted run.
  auto sw = small_sweep();
  sw.base.integrator = IntegratorSpec::parse("rk23simd:width=4");
  const auto specs = sw.expand();
  ASSERT_EQ(work_units(specs).size(), 2u);  // units of 4 and 2 rows
  const auto full = uninterrupted_rows(specs);

  TempFile file("pns-resume-lockstep");
  const auto fresh = runner_with(1).resume(specs, file.path(), "small");
  EXPECT_EQ(csv_of(fresh.rows), csv_of(full));
  std::vector<std::string> lines;
  {
    std::ifstream in(file.path());
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), specs.size() + 1);  // header + one per row
  const JournalContents journal = read_journal(file.path());
  EXPECT_EQ(journal.rows.size(), specs.size());
  ASSERT_EQ(journal.costs.size(), specs.size());
  for (const auto& [i, wall_s] : journal.costs) EXPECT_GT(wall_s, 0.0);
  TempFile canon_full("pns-resume-lockstep-canon");
  write_canonical_journal(canon_full.path(), journal.header, journal.rows);

  for (const std::size_t k : {std::size_t{1}, std::size_t{3}}) {
    TempFile cut("pns-resume-lockstep-k" + std::to_string(k));
    {
      std::ofstream out(cut.path());
      for (std::size_t j = 0; j <= k; ++j) out << lines[j] << '\n';
    }
    const auto report = runner_with(2).resume(specs, cut.path(), "small");
    EXPECT_EQ(report.reused, k);
    EXPECT_EQ(report.executed, specs.size() - k);
    EXPECT_EQ(csv_of(report.rows), csv_of(full));
    EXPECT_EQ(json_of(report.rows), json_of(full));
    const JournalContents resumed = read_journal(cut.path());
    EXPECT_EQ(resumed.rows.size(), specs.size());
    TempFile canon("pns-resume-lockstep-canon-k" + std::to_string(k));
    write_canonical_journal(canon.path(), resumed.header, resumed.rows);
    std::ifstream fa(canon_full.path(), std::ios::binary);
    std::ifstream fb(canon.path(), std::ios::binary);
    std::stringstream sa, sb;
    sa << fa.rdbuf();
    sb << fb.rdbuf();
    EXPECT_EQ(sa.str(), sb.str()) << "k=" << k;
  }
}

TEST(SweepRunnerResume, KilledMidAppendReRunsTheTornScenario) {
  const auto specs = small_sweep().expand();
  const auto full = uninterrupted_rows(specs);
  TempFile file("pns-resume-torn");
  {
    JournalWriter writer =
        JournalWriter::create(file.path(), {"small", specs.size()});
    writer.append(0, full[0]);
    writer.append(1, full[1]);
  }
  {
    std::ofstream torn(file.path(), std::ios::app);
    torn << "{\"kind\":\"row\",\"i\":2,\"row\":{\"label\"";
  }
  const auto report = runner_with(1).resume(specs, file.path(), "small");
  EXPECT_EQ(report.reused, 2u);
  EXPECT_EQ(report.executed, specs.size() - 2);
  EXPECT_EQ(csv_of(report.rows), csv_of(full));
}

TEST(SweepRunnerResume, IdentityPinsControlAndSourceSpecStrings) {
  // The CLI journals under JobSpec::identity(), which embeds the full
  // --control/--source spec strings: resuming with a different tuning of
  // the *same* control kind must fail the header match with a message
  // naming both identities.
  const auto specs = small_sweep().expand();
  const std::string original = identity_of(
      "quick", 2.0, {ControlSpec::parse("gov:ondemand:period=0.05")},
      {SourceSpec::parse("flicker:period=30,depth=0.5")});
  EXPECT_EQ(original,
            "quick?minutes=2&pv=exact&control=gov:ondemand:period=0.05"
            "&source=flicker:period=30,depth=0.5");
  // The default integrator is omitted (identical computation); any other
  // integrator spec is pinned.
  EXPECT_EQ(identity_of("quick", 2.0, {}, {}, IntegratorSpec::parse("rk23")),
            "quick?minutes=2&pv=exact");
  EXPECT_EQ(identity_of("quick", 2.0, {}, {},
                        IntegratorSpec::parse("rk23pi:rtol=0.001")),
            "quick?minutes=2&pv=exact&integrator=rk23pi:rtol=0.001");

  TempFile file("pns-identity-specs");
  runner_with(1).resume(specs, file.path(), original);
  // Same invocation resumes...
  EXPECT_NO_THROW(runner_with(1).resume(specs, file.path(), original));
  // ...a different governor period does not.
  const std::string retuned = identity_of(
      "quick", 2.0, {ControlSpec::parse("gov:ondemand:period=0.1")},
      {SourceSpec::parse("flicker:period=30,depth=0.5")});
  try {
    runner_with(1).resume(specs, file.path(), retuned);
    FAIL() << "expected JournalError";
  } catch (const JournalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("gov:ondemand:period=0.05"), std::string::npos);
    EXPECT_NE(what.find("gov:ondemand:period=0.1"), std::string::npos);
  }
  // Dropping the source override fails too.
  const std::string no_source = identity_of(
      "quick", 2.0, {ControlSpec::parse("gov:ondemand:period=0.05")},
      {});
  EXPECT_THROW(runner_with(1).resume(specs, file.path(), no_source),
               JournalError);
}

TEST(SweepRunnerResume, BatchWidthIsExecutionOnlyInTheIdentity) {
  // rk23simd's `width` shapes execution, not results (the batched
  // engine is bit-identical at every width), so JobSpec::identity strips
  // it: journals written at one width are interchangeable with runs at
  // any other. Result-shaping params (rtol, ...) still pin.
  EXPECT_EQ(identity_of("quick", 2.0, {}, {},
                        IntegratorSpec::parse("rk23simd:width=4")),
            "quick?minutes=2&pv=exact&integrator=rk23simd");
  EXPECT_EQ(identity_of("quick", 2.0, {}, {},
                        IntegratorSpec::parse("rk23simd:width=8")),
            identity_of("quick", 2.0, {}, {},
                        IntegratorSpec::parse("rk23simd")));
  EXPECT_EQ(
      identity_of("quick", 2.0, {}, {},
                  IntegratorSpec::parse("rk23simd:width=4,rtol=0.001")),
      "quick?minutes=2&pv=exact&integrator=rk23simd:rtol=0.001");
}

TEST(SweepRunnerResume, RetiredRk23BatchJournalResumesUnderItsOldIdentity) {
  // The retired kind rk23batch resolves to rk23simd but keeps its
  // spelling, so its identity is byte-for-byte what earlier releases
  // wrote into journal headers -- `width` stripped as before -- and a
  // journal fully written under width=4 resumes under width=8 with every
  // row reused.
  EXPECT_EQ(
      identity_of("quick", 2.0, {}, {},
                  IntegratorSpec::parse("rk23batch:width=4,rtol=0.001")),
      "quick?minutes=2&pv=exact&integrator=rk23batch:rtol=0.001");

  auto sw4 = small_sweep();
  sw4.base.integrator = IntegratorSpec::parse("rk23batch:width=4");
  const std::string id4 =
      identity_of("small", 0.5, {}, {}, sw4.base.integrator);
  EXPECT_EQ(id4, "small?minutes=0.5&pv=exact&integrator=rk23batch");
  TempFile file("pns-batch-width");
  runner_with(1).resume(sw4.expand(), file.path(), id4);

  auto sw8 = small_sweep();
  sw8.base.integrator = IntegratorSpec::parse("rk23batch:width=8");
  const auto specs8 = sw8.expand();
  const std::string id8 =
      identity_of("small", 0.5, {}, {}, sw8.base.integrator);
  EXPECT_EQ(id4, id8);
  const auto report = runner_with(1).resume(specs8, file.path(), id8);
  EXPECT_EQ(report.reused, specs8.size());
  EXPECT_EQ(report.executed, 0u);
}

TEST(SweepRunnerResume, JournalFromDifferentSweepRejected) {
  const auto specs = small_sweep().expand();
  TempFile file("pns-resume-wrong");
  JournalWriter::create(file.path(), {"small", specs.size() + 1});
  EXPECT_THROW(runner_with(1).resume(specs, file.path(), "small"),
               JournalError);
}

TEST(SweepRunnerResume, JournaledLabelMismatchRejected) {
  const auto specs = small_sweep().expand();
  const auto full = uninterrupted_rows(specs);
  TempFile file("pns-resume-label");
  {
    JournalWriter writer =
        JournalWriter::create(file.path(), {"small", specs.size()});
    SummaryRow impostor = full[0];
    impostor.label = "not-the-scenario";
    writer.append(0, impostor);
  }
  EXPECT_THROW(runner_with(1).resume(specs, file.path(), "small"),
               JournalError);
}

// ---------------------------------------------------------- compaction

TEST(Journal, CompactedJournalResumesIdentically) {
  // The satellite contract: compacting a completed journal must not
  // change what a resume computes -- byte for byte.
  const auto specs = small_sweep().expand();
  TempFile original("pns-compact-src");
  const auto first = runner_with(2).resume(specs, original.path(), "small");
  const std::string reference_csv = csv_of(first.rows);

  TempFile compacted("pns-compact-dst");
  const std::size_t rows =
      compact_journal(original.path(), compacted.path());
  EXPECT_EQ(rows, specs.size());

  // The compacted journal parses to identical contents...
  const JournalContents a = read_journal(original.path());
  const JournalContents b = read_journal(compacted.path());
  EXPECT_EQ(a.header, b.header);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  std::vector<SummaryRow> av, bv;
  for (const auto& [i, row] : a.rows) av.push_back(row);
  for (const auto& [i, row] : b.rows) bv.push_back(row);
  EXPECT_EQ(csv_of(av), csv_of(bv));
  EXPECT_EQ(a.costs, b.costs);
  // ...and holds exactly two lines (header + rows block).
  std::ifstream in(compacted.path());
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line);) ++lines;
  EXPECT_EQ(lines, 2u);

  // Resuming from the compacted journal simulates nothing and publishes
  // the identical aggregate.
  const auto resumed =
      runner_with(2).resume(specs, compacted.path(), "small");
  EXPECT_EQ(resumed.reused, specs.size());
  EXPECT_EQ(resumed.executed, 0u);
  EXPECT_EQ(csv_of(resumed.rows), reference_csv);
}

TEST(Journal, CompactInPlaceKeepsResumability) {
  const auto specs = small_sweep().expand();
  TempFile file("pns-compact-inplace");
  const auto first = runner_with(2).resume(specs, file.path(), "small");
  compact_journal(file.path(), file.path());
  const auto resumed = runner_with(1).resume(specs, file.path(), "small");
  EXPECT_EQ(resumed.reused, specs.size());
  EXPECT_EQ(csv_of(resumed.rows), csv_of(first.rows));
}

TEST(Journal, CheckpointedRunsRecordCosts) {
  const auto specs = small_sweep().expand();
  TempFile file("pns-costs");
  runner_with(2).resume(specs, file.path(), "small");
  const JournalContents contents = read_journal(file.path());
  EXPECT_EQ(contents.costs.size(), specs.size());
  for (const auto& [i, wall_s] : contents.costs) EXPECT_GE(wall_s, 0.0);
}

// -------------------------------------------------------------- shards

TEST(ShardRange, PartitionsExactly) {
  for (std::size_t total : {0u, 1u, 5u, 12u, 17u}) {
    for (std::size_t n : {1u, 2u, 3u, 4u, 7u}) {
      std::vector<int> covered(total, 0);
      std::size_t prev_end = 0;
      for (std::size_t k = 0; k < n; ++k) {
        const ShardRange r = shard_range(total, k, n);
        EXPECT_EQ(r.begin, prev_end);
        prev_end = r.end;
        for (std::size_t i = r.begin; i < r.end; ++i) ++covered[i];
      }
      EXPECT_EQ(prev_end, total);
      for (std::size_t i = 0; i < total; ++i) EXPECT_EQ(covered[i], 1);
    }
  }
  EXPECT_THROW(shard_range(10, 2, 2), ContractViolation);
  EXPECT_THROW(shard_range(10, 0, 0), ContractViolation);
}

TEST(SweepRunnerShards, MergedShardJournalsMatchSingleRunByteForByte) {
  const auto specs = small_sweep().expand();
  const auto full = uninterrupted_rows(specs);
  const std::string reference_csv = csv_of(full);
  const std::string reference_json = json_of(full);

  for (std::size_t n : {std::size_t{2}, std::size_t{4}}) {
    // Each shard worker writes its own partial journal...
    std::vector<TempFile> files;
    files.reserve(n);
    for (std::size_t k = 0; k < n; ++k)
      files.emplace_back("pns-shard-" + std::to_string(n) + "-" +
                         std::to_string(k));
    for (std::size_t k = 0; k < n; ++k) {
      const auto report = runner_with(2).run_checkpointed(
          specs, files[k].path(), "small", shard_range(specs.size(), k, n));
      EXPECT_EQ(report.executed, shard_range(specs.size(), k, n).size());
    }
    // ...and the merge (union by global index) reproduces the canonical
    // aggregate exactly.
    std::map<std::size_t, SummaryRow> merged;
    for (const auto& f : files) {
      JournalContents part =
          read_journal(f.path(), JournalHeader{"small", specs.size()});
      merged.insert(part.rows.begin(), part.rows.end());
    }
    ASSERT_EQ(merged.size(), specs.size());
    std::vector<SummaryRow> rows;
    for (auto& [i, row] : merged) rows.push_back(std::move(row));
    EXPECT_EQ(csv_of(rows), reference_csv) << n << " shards";
    EXPECT_EQ(json_of(rows), reference_json) << n << " shards";
  }
}

TEST(PlanShards, NoCostsDegradesToContiguousRanges) {
  const std::map<std::size_t, double> none;
  for (std::size_t total : {0u, 1u, 7u, 12u}) {
    for (std::size_t n : {1u, 2u, 3u, 5u}) {
      const auto plan = plan_shards(total, n, none);
      ASSERT_EQ(plan.size(), n);
      for (std::size_t k = 0; k < n; ++k) {
        const ShardRange r = shard_range(total, k, n);
        ASSERT_EQ(plan[k].size(), r.size());
        for (std::size_t j = 0; j < plan[k].size(); ++j)
          EXPECT_EQ(plan[k][j], r.begin + j);
      }
    }
  }
}

TEST(PlanShards, BalancesByMeasuredCostAndPartitionsExactly) {
  // One pathologically slow scenario: contiguous sharding would pair it
  // with its neighbours; LPT must isolate it and spread the rest.
  std::map<std::size_t, double> costs;
  for (std::size_t i = 0; i < 8; ++i) costs[i] = 1.0;
  costs[3] = 10.0;
  const auto plan = plan_shards(8, 2, costs);
  ASSERT_EQ(plan.size(), 2u);
  // Exact partition of [0, 8).
  std::vector<int> covered(8, 0);
  for (const auto& shard : plan) {
    EXPECT_TRUE(std::is_sorted(shard.begin(), shard.end()));
    for (std::size_t i : shard) ++covered[i];
  }
  for (int c : covered) EXPECT_EQ(c, 1);
  // The slow spec's shard carries it alone-ish: loads are 10 vs 7.
  double load0 = 0.0, load1 = 0.0;
  for (std::size_t i : plan[0]) load0 += costs[i];
  for (std::size_t i : plan[1]) load1 += costs[i];
  EXPECT_EQ(std::max(load0, load1), 10.0);
  EXPECT_EQ(std::min(load0, load1), 7.0);
  // Deterministic: same inputs, same partition.
  EXPECT_EQ(plan_shards(8, 2, costs), plan);
}

TEST(SweepRunnerShards, CostBalancedShardsMergeByteIdentically) {
  // The full cost-balanced workflow: a prior journal provides wall_s,
  // plan_shards carves (non-contiguous) shards, each worker journals its
  // share, and the merged union still reproduces the canonical
  // aggregate byte for byte.
  const auto specs = small_sweep().expand();
  const auto full = uninterrupted_rows(specs);
  const std::string reference_csv = csv_of(full);

  TempFile prior("pns-balance-prior");
  runner_with(2).resume(specs, prior.path(), "small");
  const JournalContents measured = read_journal(prior.path());
  ASSERT_EQ(measured.costs.size(), specs.size());

  const auto plan = plan_shards(specs.size(), 3, measured.costs);
  std::vector<TempFile> files;
  files.reserve(3);
  for (std::size_t k = 0; k < 3; ++k)
    files.emplace_back("pns-balance-" + std::to_string(k));
  for (std::size_t k = 0; k < 3; ++k) {
    const auto report = runner_with(2).run_checkpointed(
        specs, files[k].path(), "small", plan[k]);
    EXPECT_EQ(report.executed, plan[k].size());
    EXPECT_EQ(report.rows.size(), plan[k].size());
  }
  std::map<std::size_t, SummaryRow> merged;
  for (const auto& f : files) {
    JournalContents part =
        read_journal(f.path(), JournalHeader{"small", specs.size()});
    merged.insert(part.rows.begin(), part.rows.end());
  }
  ASSERT_EQ(merged.size(), specs.size());
  std::vector<SummaryRow> rows;
  for (auto& [i, row] : merged) rows.push_back(std::move(row));
  EXPECT_EQ(csv_of(rows), reference_csv);
}

TEST(SweepRunnerShards, Rk23PiShardsMergeByteIdentically) {
  // The rk23pi axis rides through the checkpoint/shard machinery like
  // any other sweep knob: shard-merged output equals the single run.
  auto sw = small_sweep();
  sw.base.integrator = IntegratorSpec::parse("rk23pi");
  const auto specs = sw.expand();
  const auto full = uninterrupted_rows(specs);

  std::vector<TempFile> files;
  files.reserve(2);
  for (std::size_t k = 0; k < 2; ++k)
    files.emplace_back("pns-pi-shard-" + std::to_string(k));
  for (std::size_t k = 0; k < 2; ++k)
    runner_with(2).run_checkpointed(specs, files[k].path(), "small-pi",
                                    shard_range(specs.size(), k, 2));
  std::map<std::size_t, SummaryRow> merged;
  for (const auto& f : files) {
    JournalContents part =
        read_journal(f.path(), JournalHeader{"small-pi", specs.size()});
    merged.insert(part.rows.begin(), part.rows.end());
  }
  ASSERT_EQ(merged.size(), specs.size());
  std::vector<SummaryRow> rows;
  for (auto& [i, row] : merged) rows.push_back(std::move(row));
  EXPECT_EQ(csv_of(rows), csv_of(full));
}

TEST(SweepRunnerShards, InterruptedShardResumes) {
  const auto specs = small_sweep().expand();
  const auto full = uninterrupted_rows(specs);
  const ShardRange range = shard_range(specs.size(), 1, 2);
  TempFile file("pns-shard-resume");
  {
    // Shard worker died after its first scenario.
    JournalWriter writer =
        JournalWriter::create(file.path(), {"small", specs.size()});
    writer.append(range.begin, full[range.begin]);
  }
  const auto report = runner_with(1).run_checkpointed(specs, file.path(),
                                                      "small", range);
  EXPECT_EQ(report.reused, 1u);
  EXPECT_EQ(report.executed, range.size() - 1);
  ASSERT_EQ(report.rows.size(), range.size());
  std::vector<SummaryRow> expected(full.begin() + range.begin,
                                   full.begin() + range.end);
  EXPECT_EQ(csv_of(report.rows), csv_of(expected));
}

}  // namespace
}  // namespace pns::sweep
