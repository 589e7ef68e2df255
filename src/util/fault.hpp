// Deterministic fault injection for the daemon's I/O seams.
//
// The sweep fabric promises byte-identical output under worker crashes,
// partitions and torn writes. That promise is only testable if the
// hostile conditions themselves are reproducible, so faults are not
// sprinkled with rand(): a FaultSpec is a seeded *schedule*, parsed from
// the same spec-string grammar as every other knob
// (`fault:seed=7,conn_drop=0.05,short_write=0.1,fsync_fail=2`), and a
// FaultInjector derives one independent Rng stream per injection site
// from that seed. Each site's decision sequence is therefore a pure
// function of the seed -- independent of thread interleaving, wall
// clock, or how other sites are exercised -- so the same seed replays
// the same injection sequence, run after run, machine after machine.
//
// Consumers:
//   util/socket.hpp  LineConn -- forced short reads/writes, mid-frame
//                    connection drops, EINTR storms
//   sweep/journal.hpp JournalWriter -- torn appends, failed fsyncs
//   pns_sweepd / pns_sweep worker -- the `--fault` flag
//
// docs/fault-injection.md has the grammar and chaos-test recipes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/params.hpp"
#include "util/rng.hpp"

namespace pns::fault {

/// Parsed `--fault` schedule. Probabilities are per injection
/// opportunity (one socket call, one journal append); counts are
/// 1-based ordinals. Everything defaults to "off", so an empty spec is
/// a no-op injector.
struct FaultSpec {
  std::uint64_t seed = 1;      ///< master seed for every site stream
  double conn_drop = 0.0;      ///< P(sever the connection at a socket op)
  double short_read = 0.0;     ///< P(truncate one recv's byte budget)
  double short_write = 0.0;    ///< P(truncate one send's byte budget)
  double eintr = 0.0;          ///< P(start a 1-3 call EINTR storm)
  std::uint64_t fsync_fail = 0;       ///< fail exactly the Nth fsync; 0=off
  std::uint64_t fsync_fail_from = 0;  ///< fail every fsync from the Nth
                                      ///< on (a dead disk); 0 = off
  double torn_append = 0.0;    ///< P(tear a journal line mid-append)

  /// Parses "fault:key=value,..." (the prefix is optional: bare
  /// "key=value,..." and the lone word "fault" also parse). Throws
  /// ParamError naming the offending key and the accepted ones.
  static FaultSpec parse(const std::string& text);

  /// Round-trippable spec string ("fault:seed=7,conn_drop=0.05").
  std::string spec_string() const;

  /// The accepted keys, for validation and diagnostics.
  static const std::vector<ParamInfo>& params();

  bool operator==(const FaultSpec&) const = default;
};

/// One injection site = one independent decision stream.
enum class FaultSite {
  kConnDrop = 0,
  kShortRead,
  kShortWrite,
  kEintr,
  kFsync,
  kTornAppend,
};
inline constexpr std::size_t kFaultSiteCount = 6;

/// Per-site counters: opportunities seen and faults actually injected.
struct SiteStats {
  std::uint64_t ops = 0;
  std::uint64_t hits = 0;
};

/// Draws scheduled faults at the I/O seams. Thread-safe: the daemon's
/// journal and a worker's heartbeat/row senders consult one injector
/// from several threads, and per-site streams keep each site's decision
/// sequence deterministic regardless of how calls interleave *across*
/// sites. (Interleaving *within* one site is the caller's to serialise
/// -- LineConn and JournalWriter already are.)
class FaultInjector {
 public:
  explicit FaultInjector(FaultSpec spec);

  const FaultSpec& spec() const { return spec_; }

  // --- socket seams (LineConn) ------------------------------------
  /// True: sever the connection now, mid-conversation.
  bool drop_connection();
  /// Byte budget for one recv of up to `want` bytes (short read).
  std::size_t clamp_read(std::size_t want);
  /// Byte budget for one send of up to `want` bytes (short write).
  std::size_t clamp_write(std::size_t want);
  /// True: behave as if the syscall returned EINTR. Fires in storms of
  /// 1-3 consecutive injections, then guarantees one clean call, so
  /// retry loops are exercised without ever losing forward progress.
  bool inject_eintr();

  // --- journal seams (JournalWriter) ------------------------------
  /// True: this fsync "fails" (per the Nth / from-Nth schedule).
  bool fail_fsync();
  /// Bytes of an `n`-byte line append to actually write; < n means the
  /// append tears at that offset.
  std::size_t tear_append(std::size_t n);

  SiteStats stats(FaultSite site) const;

 private:
  /// One Bernoulli decision on `site`'s stream; counts the opportunity.
  bool draw(FaultSite site, double p);

  FaultSpec spec_;
  mutable std::mutex mu_;
  Rng streams_[kFaultSiteCount];
  SiteStats stats_[kFaultSiteCount];
  std::uint64_t eintr_storm_left_ = 0;
  bool eintr_cooldown_ = false;
  std::uint64_t fsync_count_ = 0;
};

/// Parses `--fault SPEC` into a shared injector (null for empty text),
/// the form DaemonOptions/WorkerOptions carry.
std::shared_ptr<FaultInjector> make_injector(const std::string& spec_text);

}  // namespace pns::fault
