//===- support/FaultInjector.h - Deterministic fault injection ---*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide, deterministic fault injector used to exercise every
/// degradation path of the detection pipeline (docs/ROBUSTNESS.md). Code
/// that can fail in production tags the failure point with a *site name*
/// and asks shouldFail(site) before proceeding; the injector decides from
/// a user-supplied spec whether that particular hit of the site fails.
///
/// Spec grammar (`--inject-faults=` / `RV_FAULTS`):
///
///   spec    := entry (',' entry)*
///   entry   := 'seed=' N            seed for the probabilistic trigger
///            | site                 fire on every hit
///            | site '=' N           fire on the Nth hit only (1-based)
///            | site '=' N '+'       fire on every hit from the Nth on
///            | site '=' N '%'       fire each hit with probability N/100
///
/// Known sites (the catalog lives in docs/ROBUSTNESS.md):
///
///   solver.timeout     one-shot solve returns Unknown
///   session.corrupt    incremental session query fails and poisons itself
///   z3.unavailable     the Z3 backend factory reports "not available"
///   satdb.alloc        clause-database allocation fails inside the SAT core
///   trace.short_read   trace file reads truncate mid-stream
///   trace.garble       one trace line is corrupted on read
///   detect.abort       the detector process dies after a window barrier
///   net.short_write    a socket write fails mid-frame (peer gone)
///   net.client_stall   rvpclient stalls mid-frame instead of sending
///   net.frame_garble   one received byte is corrupted before framing
///   server.worker_abort  a daemon analysis task dies mid-window
///
/// Everything is deterministic given the spec: per-site hit counters plus
/// a seeded xorshift RNG for the '%' trigger. The disabled fast path is a
/// single relaxed atomic load, so production runs pay nothing.
///
//===----------------------------------------------------------------------===//

#ifndef RVP_SUPPORT_FAULTINJECTOR_H
#define RVP_SUPPORT_FAULTINJECTOR_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace rvp {

/// Canonical site names, so call sites and tests cannot drift apart.
namespace faults {
inline constexpr const char *SolverTimeout = "solver.timeout";
inline constexpr const char *SessionCorrupt = "session.corrupt";
inline constexpr const char *Z3Unavailable = "z3.unavailable";
inline constexpr const char *SatDbAlloc = "satdb.alloc";
inline constexpr const char *TraceShortRead = "trace.short_read";
inline constexpr const char *TraceGarble = "trace.garble";
inline constexpr const char *DetectAbort = "detect.abort";
inline constexpr const char *NetShortWrite = "net.short_write";
inline constexpr const char *NetClientStall = "net.client_stall";
inline constexpr const char *NetFrameGarble = "net.frame_garble";
inline constexpr const char *ServerWorkerAbort = "server.worker_abort";
inline constexpr const char *ServerWorkerStall = "server.worker_stall";
} // namespace faults

/// All known site names (used by `--inject-faults=help` and the spec
/// validator).
const std::vector<std::string> &knownFaultSites();

class FaultInjector {
public:
  static FaultInjector &instance();

  /// True once a spec with at least one site is installed.
  static bool enabled() {
    return EnabledFlag.load(std::memory_order_relaxed);
  }

  /// Parses and installs \p Spec (replacing any previous configuration).
  /// Unknown sites and malformed triggers are errors; on failure the
  /// previous configuration is kept and \p Error describes the problem.
  /// An empty spec disables injection.
  static bool configure(const std::string &Spec, std::string &Error);

  /// Clears the configuration and all hit counters (tests).
  static void reset();

  /// Asks whether this hit of \p Site should fail. Counts the hit either
  /// way. The disabled fast path is one atomic load.
  static bool shouldFail(const char *Site) {
    if (!enabled())
      return false;
    return instance().shouldFailSlow(Site);
  }

  /// Total hits / fired faults of \p Site since the last configure/reset.
  uint64_t hits(const std::string &Site) const;
  uint64_t fired(const std::string &Site) const;

private:
  bool shouldFailSlow(const char *Site);

  static std::atomic<bool> EnabledFlag;

  struct Rule {
    enum class Trigger : uint8_t { Always, Nth, FromNth, Percent };
    std::string Site;
    Trigger Kind = Trigger::Always;
    uint64_t N = 1;       ///< Nth / FromNth threshold, Percent chance
    uint64_t Hits = 0;    ///< hits observed at this site
    uint64_t Fired = 0;   ///< hits that failed
  };

  struct State;
  State &state();
  const State &state() const;
};

} // namespace rvp

#endif // RVP_SUPPORT_FAULTINJECTOR_H
