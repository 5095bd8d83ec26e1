//===- detect/Stream.h - Incremental window-at-a-time detection -*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// StreamDetector analyzes a trace that arrives incrementally, one window
// at a time — the analysis core of rvpredictd. Each session keeps one live
// WindowDriver session, whose policy is picked once from StreamOptions, on
// the trace of one TraceReader: each complete line received is read once
// and checked against the events before it, as the batch parse reads it
// (interning is prefix-stable, so window K's events and name tables are
// byte-identical to the batch parse's, and both reject the same lines).
// The trace keeps its indices current as each line is appended, so a step
// rebuilds nothing over the prefix: it analyzes the next window on the
// live session. The cumulative result after the last step is therefore
// the batch result, and finish() renders it with the shared Report
// renderers — the property the ServerGolden gate checks byte for byte.
//
// The checkpoint payload is built only by state() and installed only by
// restore() (crash recovery). reset() replaces the DetectorRun value and
// the live session, so a recycled detector inherits no interned strings,
// stats, or clock state from the previous session. Telemetry flushes to
// the process-wide registry exactly once per session, at finish().
//
// This header is also the one home of the analysis options that batch
// flags, daemon defaults and HELLO keys share: one setter, one rule set,
// and the one policy factory batch detect and streaming sessions use.
//
//===----------------------------------------------------------------------===//

#ifndef RVP_DETECT_STREAM_H
#define RVP_DETECT_STREAM_H

#include "detect/Report.h"
#include "trace/TraceIO.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace rvp {

class QueryPolicy;

enum class StreamProperty : uint8_t { Race, Atomicity, Deadlock };

/// Maps "race"/"atomicity"/"deadlock" (the `property` key); returns false
/// on anything else.
bool parseStreamProperty(std::string_view Name, StreamProperty &Out);

struct StreamOptions {
  StreamProperty Property = StreamProperty::Race;
  Technique Tech = Technique::Maximal;
  /// Driver options for every window of the session.
  DetectorOptions Detect;
  TraceParseOptions Parse;
  ReportRenderOptions Render;
};

/// The analysis keys `rvpredict detect` flags, rvpredictd's session
/// defaults and HELLO options share (docs/SERVER.md lists which front end
/// accepts which): property, technique, tier, window, budget,
/// retry-budgets, skip-bad-events, witness. Each front end only picks the
/// keys it exposes and how it reports an error.
///
/// Sets \p Key from its text \p Value, range-checked. False with \p Error
/// on an unknown key or a bad value; the message starts with the key name
/// ("window must be ..."), so the tools print it after "--".
bool setAnalysisOption(StreamOptions &Opts, std::string_view Key,
                       std::string_view Value, std::string &Error);

/// Applies the cross-key rule (the vc tier covers races under rv/said
/// only) and derives Detect.CollectWitnesses and Render from the keys.
/// Run it once per set of keys: the vc tier turns witness collection off
/// for good, so the daemon keeps its defaults unfinished and finishes each
/// session's copy after HELLO.
bool finishAnalysisOptions(StreamOptions &Opts, std::string &Error);

/// The query policy \p Opts asks for: the one place a run picks its
/// property, for batch detect and streaming sessions alike.
std::unique_ptr<QueryPolicy> makePolicy(const Trace &T,
                                        const StreamOptions &Opts);

/// What one analyzed window produced (the daemon's REPORT frame body).
struct StreamStep {
  uint64_t Window = 0;   ///< index of the window just analyzed
  bool Degraded = false; ///< answered by the WCP tier under load shedding
  /// Rendered lines for findings and unknowns new in this window. Deltas
  /// are additive-only (a later window can retire an unknown by deciding
  /// its signature; only the summary reflects that), so the cumulative
  /// summary — not the concatenation of deltas — is authoritative.
  std::string Delta;
  size_t NewFindings = 0;
  size_t NewUnknowns = 0;
};

/// All state one streaming session accumulates besides its live driver
/// session. Sessions never share one of these, and reset() swaps in a
/// fresh value, which is what guarantees session isolation (no
/// interned-string, value, or signature bleed).
struct DetectorRun {
  std::string Buffer;   ///< complete lines received but not yet read
  std::string Pending;  ///< trailing partial line (no newline yet)
  /// Reads each line once into the session's trace (created on first
  /// use; its trace address is stable, so the live session can keep it).
  std::unique_ptr<TraceReader> Reader;
  bool Dirty = false; ///< Buffer holds lines the reader has not read
  bool Finished = false;
  uint64_t WindowsDone = 0;
  uint64_t DegradedWindows = 0;
  uint64_t SkippedEvents = 0;
  size_t Findings = 0;
  /// Cumulative stats after the latest window (and telemetry, at finish).
  DetectionStats Stats;
  /// finish() ran; SummaryText caches its report so a second finish()
  /// cannot double-flush telemetry.
  bool Complete = false;
  std::string SummaryText;
};

class StreamDetector {
public:
  explicit StreamDetector(StreamOptions Opts);
  ~StreamDetector();

  /// Appends raw trace text; chunks may end mid-line.
  void feed(std::string_view Text);

  /// True when at least one full unanalyzed window is buffered. Reads
  /// the lines fed since the last read; a rejected line reports false
  /// here and surfaces from the next step()/finish().
  bool windowReady();

  /// Reads any unread lines and analyzes the next pending window (one
  /// full window; partial tails wait for finish()).
  /// \p Degrade answers this window from the WCP
  /// vector-clock tier instead of the solver pipeline — race property
  /// only; atomicity/deadlock steps ignore it and run normally. Returns
  /// false with \p Error set on a rejected line or a restore() payload that
  /// does not fit the replayed trace, false with \p Error empty when no
  /// full window is pending.
  bool step(StreamStep &Out, bool Degrade, std::string &Error);

  /// End of input: analyzes any residual partial window (each step
  /// appended to \p Steps when non-null), flushes telemetry, and renders
  /// the cumulative report — byte-identical to `rvpredict detect` on the
  /// full trace when no window was degraded. Idempotent per session.
  bool finish(std::string &Summary, std::string &Error,
              std::vector<StreamStep> *Steps = nullptr);

  /// Discards every trace of the previous session: recycled detectors
  /// must behave like new ones.
  void reset();

  /// Crash recovery: installs a state payload (CheckpointStore format,
  /// sans header) covering the first \p WindowsDone windows. Analysis
  /// stays suspended until the replayed trace covers those windows again,
  /// then resumes after them, failing if the payload does not fit; a
  /// replay that ends short of them is analyzed from scratch (always
  /// sound). Call before the first step().
  void restore(std::string Payload, uint64_t WindowsDone) {
    Recovered = std::move(Payload);
    Run.WindowsDone = WindowsDone;
  }

  /// Full windows read but not yet analyzed (the backpressure and
  /// load-shedding signal). 0 once a line was rejected.
  uint64_t pendingWindows();

  /// Reads the lines fed so far, so the daemon fails a session on the
  /// first rejected line of a DATA chunk, on its I/O thread, instead of
  /// waiting for the next analysis step. False with the reader's
  /// diagnostic once a line was rejected.
  bool checkParse(std::string &Error);

  const DetectorRun &run() const { return Run; }
  const StreamOptions &options() const { return Opts; }
  /// Serialized cumulative state (checkpoint payload format), built per
  /// call — what the daemon persists for crash recovery.
  std::string state() const;

private:
  struct Session; ///< the live policy and driver session

  /// Starts the live session on first use and applies a pending restore().
  bool ensureSession(std::string &Error);
  /// Windows the batch run would analyze for the current buffer.
  uint64_t totalWindows(const Trace &T, bool Final) const;

  StreamOptions Opts;
  DetectorRun Run;
  std::unique_ptr<Session> Live;
  /// restore()'s payload, until the session applies it.
  std::optional<std::string> Recovered;
};

} // namespace rvp

#endif // RVP_DETECT_STREAM_H
