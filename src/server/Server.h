//===- server/Server.h - rvpredictd daemon core -----------------*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The trace-ingest daemon (docs/SERVER.md): one poll()-driven I/O thread
// accepts clients over a Unix-domain socket (and optionally TCP),
// multiplexes their sessions' window analyses onto a shared work-stealing
// ThreadPool, and streams per-window REPORT frames plus a batch-identical
// SUMMARY back. The design invariants the fault drills pin down:
//
//  * Fault isolation: a malformed frame, a garbled byte, a torn write, or
//    an aborted worker kills exactly one session — the client gets one
//    typed ERROR frame, every other session's output is byte-identical to
//    an undisturbed run, and the daemon keeps serving.
//  * Backpressure: each session's ingest is bounded (byte watermarks plus
//    a pending-window budget); past the high watermark the daemon simply
//    stops reading that socket until analysis catches up, which
//    propagates to the client through TCP/unix-socket flow control.
//  * Graceful degradation: when the queue of unanalyzed windows across
//    all sessions crosses the shed threshold, race sessions get their
//    next windows answered by the linear WCP tier instead of the solver
//    pipeline, marked `degraded` in the REPORT frame header.
//  * Clean drain: SIGTERM stops accepting and reading, finishes every
//    queued window, sends each session its SUMMARY, and exits 0 — with
//    a hard deadline (--drain-timeout) so a peer that never reads its
//    summary cannot hold the process open.
//
//===----------------------------------------------------------------------===//

#ifndef RVP_SERVER_SERVER_H
#define RVP_SERVER_SERVER_H

#include "detect/Stream.h"

#include <cstdint>
#include <string>

namespace rvp {

struct ServerOptions {
  /// Unix-domain socket path, unlinked on shutdown ("" = TCP only; at
  /// least one of SocketPath/TcpPort must be set).
  std::string SocketPath;
  /// Also listen on this TCP port on 127.0.0.1 (0 = unix only).
  int TcpPort = 0;
  /// Analysis pool workers (0 = one per hardware thread).
  unsigned Jobs = 1;

  // Budgets (docs/SERVER.md): all per-session unless noted.
  unsigned MaxSessions = 32;       ///< concurrent sessions (global)
  unsigned MaxQueuedWindows = 8;   ///< pending windows before reads pause
  size_t HighWatermark = 1u << 20; ///< ingest bytes before reads pause
  size_t LowWatermark = 64u << 10; ///< ingest bytes to resume reads
  /// Pending windows across all sessions beyond which new race windows
  /// are shed to the WCP tier (0 = never degrade).
  unsigned DegradeThreshold = 0;
  /// Per-window solve deadline: caps DetectorOptions::PerCopBudgetSeconds
  /// for every session, feeding the retry-budget ladder (0 = keep the
  /// configured budget).
  double WindowDeadlineSeconds = 0;
  /// Closes sessions idle between frames, and draining sessions whose
  /// peer stops reading its output (0 = never).
  double IdleTimeoutSeconds = 0;
  double StallTimeoutSeconds = 0; ///< close sessions stalled mid-frame
  /// Hard bound on the SIGTERM drain phase: sessions still unfinished
  /// this many seconds after the stop request are dropped so shutdown
  /// always terminates (0 = wait forever).
  double DrainTimeoutSeconds = 60;
  /// Root directory for per-session crash-recovery checkpoints; sessions
  /// opt in with a `ckpt=<key>` HELLO option ("" = recovery off).
  std::string CheckpointRoot;

  /// Session defaults as setAnalysisOption leaves them, not yet finished:
  /// each session finishes its own copy once HELLO has overridden them.
  StreamOptions Stream;
};

class Server {
public:
  explicit Server(ServerOptions Opts);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds the listeners. False (with \p Error) on bind failure.
  bool start(std::string &Error);

  /// Serves until requestStop(); returns the process exit code
  /// (ExitSuccess after a clean drain, ExitInternal on loop failure).
  int run();

  /// Begins a drain from any thread or signal handler (async-signal-safe:
  /// sets a flag and writes the self-pipe).
  void requestStop();

private:
  struct Impl;
  Impl *M;
};

} // namespace rvp

#endif // RVP_SERVER_SERVER_H
