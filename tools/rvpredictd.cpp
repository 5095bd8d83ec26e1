//===- tools/rvpredictd.cpp - Trace-ingest daemon -----------------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The long-running ingest daemon (docs/SERVER.md): accepts trace streams
/// from many concurrent clients over a Unix-domain socket (and optionally
/// TCP on 127.0.0.1), analyzes them window by window on a shared worker
/// pool, and streams per-window REPORT frames plus a batch-identical
/// SUMMARY back to each client.
///
///   rvpredictd [--socket=/tmp/rvp.sock] [--port=N] [--jobs=N]
///              [--max-sessions=N] [--max-queued-windows=N]
///              [--high-watermark=BYTES] [--low-watermark=BYTES]
///              [--degrade-threshold=N] [--window-deadline=S]
///              [--idle-timeout=S] [--stall-timeout=S]
///              [--drain-timeout=S] [--checkpoint-root=DIR]
///              [--technique=rv|said|cp|hb] [--property=race|...]
///              [--window=N] [--tier=vc|smt|hybrid] [--budget=S]
///              [--retry-budgets=50ms,250ms,1s]
///              [--skip-bad-events] [--stats] [--stats-json=-]
///              [--inject-faults=spec]
///
/// The --technique/--property/... flags are session *defaults*; each
/// client's HELLO frame may override them per session. SIGTERM and SIGINT
/// begin a clean drain: stop accepting, finish every queued window, send
/// each session its SUMMARY, exit 0.
///
//===----------------------------------------------------------------------===//

#include "server/Server.h"
#include "support/BuildInfo.h"
#include "support/CommandLine.h"
#include "support/FaultInjector.h"
#include "support/Stats.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <limits>

using namespace rvp;

namespace {

Server *GServer = nullptr;

void onSignal(int) {
  if (GServer)
    GServer->requestStop(); // async-signal-safe: flag + self-pipe write
}

/// Reads integer flag \p Name into \p Out, which must hold it and be at
/// least \p Min; false after the diagnostic otherwise (a negative value
/// must not wrap into an unbounded budget).
template <typename T>
bool readCount(const OptionParser &Options, const char *Name,
               int64_t Default, int64_t Min, T &Out) {
  int64_t Value = Options.getInt(Name, Default);
  if (Value < Min ||
      static_cast<uint64_t>(Value) > std::numeric_limits<T>::max()) {
    std::fprintf(stderr, "error: --%s must be between %lld and %llu (got "
                         "%lld)\n",
                 Name, static_cast<long long>(Min),
                 static_cast<unsigned long long>(std::numeric_limits<T>::max()),
                 static_cast<long long>(Value));
    return false;
  }
  Out = static_cast<T>(Value);
  return true;
}

/// Reads a duration flag; negative (or NaN) is a usage error.
bool readSeconds(const OptionParser &Options, const char *Name,
                 double Default, double &Out) {
  Out = Options.getDouble(Name, Default);
  if (Out >= 0)
    return true;
  std::fprintf(stderr,
               "error: --%s must be a non-negative number of seconds\n",
               Name);
  return false;
}

} // namespace

int main(int Argc, const char **Argv) {
  OptionParser Options(
      "rvpredictd: multi-client trace-ingest daemon (docs/SERVER.md)");
  Options.addOption("socket", "Unix-domain socket path to listen on", "");
  Options.addOption("port",
                    "also listen on this TCP port on 127.0.0.1 "
                    "(0 = unix socket only)",
                    "0");
  Options.addOption("jobs",
                    "analysis worker threads (0 = one per hardware thread)",
                    "1");
  Options.addOption("max-sessions", "concurrent session budget", "32");
  Options.addOption("max-queued-windows",
                    "pending windows per session before its socket reads "
                    "pause",
                    "8");
  Options.addOption("high-watermark",
                    "buffered ingest bytes per session before reads pause",
                    "1048576");
  Options.addOption("low-watermark",
                    "buffered ingest bytes at which paused reads resume",
                    "65536");
  Options.addOption("degrade-threshold",
                    "pending windows across all sessions beyond which new "
                    "race windows are shed to the WCP tier (0 = never)",
                    "0");
  Options.addOption("window-deadline",
                    "per-window solve deadline in seconds, capping every "
                    "session's --budget (0 = no cap)",
                    "0");
  Options.addOption("idle-timeout",
                    "seconds a drained session may sit idle between frames "
                    "before it is closed (0 = never)",
                    "0");
  Options.addOption("stall-timeout",
                    "seconds a session may stall mid-frame before it is "
                    "closed (0 = never)",
                    "0");
  Options.addOption("drain-timeout",
                    "seconds a SIGTERM drain may run before remaining "
                    "sessions are dropped (0 = wait forever)",
                    "60");
  Options.addOption("checkpoint-root",
                    "directory for per-session crash-recovery checkpoints; "
                    "clients opt in with ckpt=<key> in HELLO",
                    "");
  // Session defaults — HELLO key=value options override these per client.
  Options.addOption("technique", "default technique (rv, said, cp, hb)",
                    "rv");
  Options.addOption("property",
                    "default property (race, atomicity, deadlock)", "race");
  Options.addOption("window", "default window size in events", "10000");
  Options.addOption("tier", "default race tier (vc, smt, hybrid)", "hybrid");
  Options.addOption("budget", "default per-COP solver budget (s)", "60");
  Options.addOption("retry-budgets",
                    "escalating per-COP retry budgets for unknown results, "
                    "e.g. 50ms,250ms,1s (empty = no retries)",
                    "");
  Options.addOption("skip-bad-events",
                    "default: skip malformed trace lines instead of "
                    "failing the session",
                    "false");
  Options.addOption("stats", "print server counters on exit", "false");
  Options.addOption("stats-json",
                    "write server counters as JSON on exit ('-' for "
                    "stdout)",
                    "");
  Options.addOption("inject-faults",
                    "deterministic fault injection spec, e.g. "
                    "'seed=7,net.frame_garble=3' (also read from RV_FAULTS)",
                    "");
  if (!Options.parse(Argc, Argv))
    return ExitUsage;

  std::string FaultSpec = Options.getString("inject-faults", "");
  if (FaultSpec.empty())
    if (const char *Env = std::getenv("RV_FAULTS"))
      FaultSpec = Env;
  if (!FaultSpec.empty()) {
    std::string FaultError;
    if (!FaultInjector::configure(FaultSpec, FaultError)) {
      std::fprintf(stderr, "error: bad --inject-faults spec: %s\n",
                   FaultError.c_str());
      return ExitUsage;
    }
  }

  ServerOptions SO;
  SO.SocketPath = Options.getString("socket", "");
  SO.TcpPort = static_cast<int>(Options.getInt("port", 0));
  if (SO.SocketPath.empty() && SO.TcpPort == 0) {
    std::fprintf(stderr,
                 "error: rvpredictd needs a listener; pass --socket=PATH "
                 "and/or --port=N\n");
    return ExitUsage;
  }
  uint32_t Jobs = 1;
  if (!readJobs(Options, 1, Jobs) ||
      !readCount(Options, "max-sessions", 32, 1, SO.MaxSessions) ||
      !readCount(Options, "max-queued-windows", 8, 0, SO.MaxQueuedWindows) ||
      !readCount(Options, "high-watermark", 1 << 20, 0, SO.HighWatermark) ||
      !readCount(Options, "low-watermark", 64 << 10, 0, SO.LowWatermark) ||
      !readCount(Options, "degrade-threshold", 0, 0, SO.DegradeThreshold) ||
      !readSeconds(Options, "window-deadline", 0,
                   SO.WindowDeadlineSeconds) ||
      !readSeconds(Options, "idle-timeout", 0, SO.IdleTimeoutSeconds) ||
      !readSeconds(Options, "stall-timeout", 0, SO.StallTimeoutSeconds) ||
      !readSeconds(Options, "drain-timeout", 60, SO.DrainTimeoutSeconds))
    return ExitUsage;
  SO.Jobs = Jobs;
  if (SO.LowWatermark > SO.HighWatermark) {
    std::fprintf(stderr,
                 "error: --low-watermark (%zu) must not exceed "
                 "--high-watermark (%zu)\n",
                 SO.LowWatermark, SO.HighWatermark);
    return ExitUsage;
  }
  SO.CheckpointRoot = Options.getString("checkpoint-root", "");

  // Session defaults: the analysis keys and combination rules the batch CLI
  // and HELLO share (detect/Stream.h). A bad default is a usage error, a
  // bad HELLO override a per-session ERROR frame (the daemon never exits
  // for a client's sake). The defaults stay unfinished: each session
  // finishes its own copy once HELLO has overridden them.
  std::string Error;
  for (const char *Key : {"property", "technique", "tier", "window", "budget",
                          "retry-budgets", "skip-bad-events"})
    if (Options.hasOption(Key) &&
        !setAnalysisOption(SO.Stream, Key, Options.getString(Key), Error)) {
      std::fprintf(stderr, "error: --%s\n", Error.c_str());
      return ExitUsage;
    }
  StreamOptions Finished = SO.Stream;
  if (!finishAnalysisOptions(Finished, Error)) {
    std::fprintf(stderr, "error: --%s\n", Error.c_str());
    return ExitUsage;
  }

  const bool Stats = Options.getBool("stats");
  const std::string StatsJsonPath = Options.getString("stats-json", "");
  if (Stats || !StatsJsonPath.empty()) {
    Telemetry::setEnabled(true);
    Telemetry::instance().reset();
  }

  Server S(SO);
  if (!S.start(Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return ExitUsage;
  }
  GServer = &S;
  std::signal(SIGTERM, onSignal);
  std::signal(SIGINT, onSignal);
  std::signal(SIGPIPE, SIG_IGN); // torn clients surface as write errors
  if (!SO.SocketPath.empty())
    std::fprintf(stderr, "rvpredictd: listening on %s\n",
                 SO.SocketPath.c_str());
  if (SO.TcpPort)
    std::fprintf(stderr, "rvpredictd: listening on 127.0.0.1:%d\n",
                 SO.TcpPort);

  int Rc = S.run();
  GServer = nullptr;

  if (Stats || !StatsJsonPath.empty()) {
    MetricsSnapshot Snapshot = MetricsRegistry::global().snapshot();
    if (Stats)
      for (const auto &C : Snapshot.Counters)
        std::fprintf(stderr, "%-32s %llu\n", C.first.c_str(),
                     static_cast<unsigned long long>(C.second));
    if (!StatsJsonPath.empty()) {
      JsonObject Json;
      appendRunMetadata(Json);
      appendMetrics(Json, Snapshot);
      if (!writeStatsJson(StatsJsonPath, Json.str()))
        return ExitInternal;
    }
  }
  return Rc;
}
