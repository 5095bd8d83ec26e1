//===- support/Telemetry.h - Phase tracing and trace events ------*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability layer threaded through the detection pipeline (see
/// docs/OBSERVABILITY.md):
///
///  * ScopedPhaseTimer — RAII timers that build a hierarchical phase tree
///    (detect → window → cop-enum / quick-check / encode / solve / ...),
///    so the --stats table and --stats-json output can show where wall
///    time goes, per phase, with nesting.
///  * TraceEventSink — a structured JSONL sink (one JSON object per line;
///    one event per window / COP) written behind
///    `rvpredict detect --trace-events=<path>`.
///  * Telemetry — the process-wide switchboard tying the registry
///    (support/Stats.h), the phase tree, the sink and the Perfetto
///    collector (support/Profile.h) together.
///
/// Telemetry is opt-in and off by default; every instrumentation site
/// guards on Telemetry::enabled(), a single boolean load, so the
/// uninstrumented pipeline pays no measurable cost.
///
//===----------------------------------------------------------------------===//

#ifndef RVP_SUPPORT_TELEMETRY_H
#define RVP_SUPPORT_TELEMETRY_H

#include "support/Profile.h"
#include "support/Stats.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

namespace rvp {

/// Point-in-time copy of one phase-tree node (value type, copyable).
struct PhaseSnapshot {
  std::string Name;
  double Seconds = 0;
  uint64_t Count = 0; ///< completed enters of this phase
  std::vector<PhaseSnapshot> Children;

  /// Total seconds across direct children (≤ Seconds up to timer noise).
  double childSeconds() const;

  /// Depth-first search by name; nullptr when absent.
  const PhaseSnapshot *find(std::string_view PhaseName) const;

  /// {"name":..,"seconds":..,"count":..,"children":[...]}
  std::string toJson() const;

  /// Indented human rendering appended to \p Out.
  void renderInto(std::string &Out, unsigned Indent = 2) const;
};

/// Accumulating tree of named phases. enter()/exit() must nest; phases
/// re-entered under the same parent accumulate seconds and counts into the
/// same node. A PhaseTree is single-threaded; parallel sections give each
/// worker its own tree (Telemetry::setThreadPhaseTree) and merge them with
/// absorb() at the barrier.
class PhaseTree {
public:
  PhaseTree() { reset(); }

  void enter(const char *Name);
  void exit(double Seconds);
  bool atRoot() const { return Stack.size() == 1; }

  /// Snapshot rooted at a synthetic "total" node whose seconds are the sum
  /// over top-level phases.
  PhaseSnapshot snapshot() const;

  /// Merges \p Other's phases (the children of its root, recursively) into
  /// the node currently on top of this tree's stack, matching nodes by
  /// name and summing seconds/counts. Used at a parallel-section barrier
  /// to fold per-worker trees under the enclosing phase; summed worker
  /// seconds may exceed the enclosing phase's wall time.
  void absorb(const PhaseTree &Other);

  void reset();

private:
  struct Node {
    std::string Name;
    double Seconds = 0;
    uint64_t Count = 0;
    std::vector<std::unique_ptr<Node>> Children;
  };

  static void snapshotInto(const Node &N, PhaseSnapshot &Out);
  static void absorbInto(Node &Dst, const Node &Src);

  std::unique_ptr<Node> Root;
  std::vector<Node *> Stack; ///< Stack.front() == Root.get()
};

/// Structured JSONL event sink: one JSON object per line. Callers build
/// events with JsonObject and hand them to write().
class TraceEventSink {
public:
  TraceEventSink() = default;
  ~TraceEventSink() { close(); }
  TraceEventSink(const TraceEventSink &) = delete;
  TraceEventSink &operator=(const TraceEventSink &) = delete;

  /// Opens \p Path for writing. "-" means stdout, with a twist: stdout
  /// lines are buffered and flushed as one block at close(), preceded by a
  /// `##rvp:trace-events` marker line, so the event stream lands after the
  /// report and any `--stats-json=-` object in a deterministic order that
  /// golden tests can split on (docs/OBSERVABILITY.md, "Stream ordering").
  bool open(const std::string &Path, std::string &Error);
  void write(const JsonObject &Event);
  void close();

  uint64_t eventsWritten() const { return Written; }

  /// Marker line preceding buffered stdout event blocks.
  static constexpr const char *StdoutMarker = "##rvp:trace-events";

private:
  std::FILE *File = nullptr;
  bool OwnsFile = false;
  bool BufferToStdout = false;
  std::string Buffer;
  uint64_t Written = 0;
};

/// Everything the pipeline observed during one run; carried out of the
/// detectors inside DetectionStats.
struct TelemetrySnapshot {
  bool Captured = false;
  MetricsSnapshot Metrics;
  PhaseSnapshot Phases;
};

/// The process-wide telemetry switchboard. The registry itself is
/// MetricsRegistry::global(); this adds the enable flag, the phase tree,
/// the optional event sink and the optional Perfetto collector. Runs are
/// delimited by the caller: reset() zeroes the registry and clears the
/// phase tree, snapshot() copies both.
class Telemetry {
public:
  static Telemetry &instance();

  /// Single-load fast path used by every instrumentation site.
  static bool enabled() { return EnabledFlag; }
  static void setEnabled(bool On) { EnabledFlag = On; }

  /// The calling thread's phase tree: the thread-local override when one
  /// is installed (pool workers during a parallel section), otherwise the
  /// process-wide tree.
  PhaseTree &phases() {
    return ThreadPhases ? *ThreadPhases : Phases;
  }

  /// Installs \p Tree as the calling thread's phase tree (nullptr
  /// restores the process-wide tree). Prefer ThreadPhaseScope.
  static void setThreadPhaseTree(PhaseTree *Tree) { ThreadPhases = Tree; }
  static PhaseTree *threadPhaseTree() { return ThreadPhases; }

  /// The attached sink and collector while telemetry is on, else nullptr:
  /// the enable flag is the one switch for every view.
  TraceEventSink *sink() const { return EnabledFlag ? Sink : nullptr; }
  void setSink(TraceEventSink *S) { Sink = S; }
  ProfileCollector *profiler() const {
    return EnabledFlag ? Profiler : nullptr;
  }
  void setProfiler(ProfileCollector *P) { Profiler = P; }

  TelemetrySnapshot snapshot() const;
  void reset();

private:
  static bool EnabledFlag;
  /// constinit lets other translation units read it directly rather than
  /// through a TLS init wrapper, which UBSan (GCC 12) reports as a null
  /// load on every access.
  static constinit thread_local PhaseTree *ThreadPhases;
  PhaseTree Phases;
  TraceEventSink *Sink = nullptr;
  ProfileCollector *Profiler = nullptr;
};

/// RAII thread-local phase-tree override: scoped to one pool task so its
/// ScopedPhaseTimers record into a per-worker tree instead of racing on
/// the shared one.
class ThreadPhaseScope {
public:
  explicit ThreadPhaseScope(PhaseTree *Tree)
      : Prev(Telemetry::threadPhaseTree()) {
    Telemetry::setThreadPhaseTree(Tree);
  }
  ~ThreadPhaseScope() { Telemetry::setThreadPhaseTree(Prev); }
  ThreadPhaseScope(const ThreadPhaseScope &) = delete;
  ThreadPhaseScope &operator=(const ThreadPhaseScope &) = delete;

private:
  PhaseTree *Prev;
};

/// RAII phase timer: enters \p Name on construction and reads the clock
/// once more on destruction. That one measurement goes to the phase tree,
/// to a `ph:"X"` span on the calling thread's track when a collector is
/// attached, and to \p *Seconds when given. With telemetry off it is one
/// boolean load: the clock is never read and \p *Seconds is left alone.
class ScopedPhaseTimer {
public:
  explicit ScopedPhaseTimer(const char *Name, double *Seconds = nullptr) {
    if (!Telemetry::enabled())
      return;
    Telemetry::instance().phases().enter(Name);
    this->Name = Name;
    Out = Seconds;
    Start = ProfileCollector::Clock::now();
  }
  ~ScopedPhaseTimer() {
    if (!Name)
      return;
    double Seconds = std::chrono::duration<double>(
                         ProfileCollector::Clock::now() - Start)
                         .count();
    Telemetry &T = Telemetry::instance();
    T.phases().exit(Seconds);
    if (ProfileCollector *P = T.profiler())
      P->span(Name, "phase", P->toUs(Start),
              static_cast<uint64_t>(Seconds * 1e6));
    if (Out)
      *Out = Seconds;
  }
  ScopedPhaseTimer(const ScopedPhaseTimer &) = delete;
  ScopedPhaseTimer &operator=(const ScopedPhaseTimer &) = delete;

private:
  const char *Name = nullptr; ///< set only while the phase is entered
  double *Out = nullptr;
  ProfileCollector::Clock::time_point Start;
};

} // namespace rvp

#endif // RVP_SUPPORT_TELEMETRY_H
