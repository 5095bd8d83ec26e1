//===- rvbench/Harness.h - Shared pieces of the harness ---------*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Workload definitions, result accumulation, spans and child-process
/// handling shared by the end-to-end run (EndToEnd.cpp) and the traced
/// per-layer run (Traced.cpp). See rvbench/README.md.
///
//===----------------------------------------------------------------------===//

#ifndef RVBENCH_HARNESS_H
#define RVBENCH_HARNESS_H

#include "workloads/Synthetic.h"

#include <sys/resource.h>
#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace rvbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 20;
  bool Trace = false;
  /// Reduced sizes and one iteration (the BenchSmoke test).
  bool Quick = false;
  /// Directory holding rvpredict and rvpredictd (absolute).
  std::string BinDir;
};

enum class Property { Race, Atomicity, Deadlock };

const char *propertyName(Property P);

/// One `rvpredict detect` invocation; a batch operation is a list of them.
struct DetectCall {
  Property Prop = Property::Race;
  bool Witness = true;
};

struct Workload {
  std::string Name;
  rvp::SyntheticSpec Spec;
  /// Batch workloads: the calls making up one operation. Empty for serve.
  std::vector<DetectCall> Calls;
  bool Serve = false;
  /// Traces per run. Trace i of a run has Seed = 64 * --seed + i, so runs
  /// with different seeds never share a trace, and a run's cost is an
  /// average over inputs instead of the luck of one.
  uint32_t Panel = 1;
  /// serve-paced: one DATA chunk of ServeWindow events per session every
  /// ChunkInterval seconds, the second session offset by half of it.
  uint32_t ServeWindow = 1000;
  double ChunkInterval = 0.2;
};

/// Builds the named workload for \p O; false for an unknown name.
bool makeWorkload(const Options &O, Workload &W);

/// The known answer for \p P, from the generator's spec alone.
uint64_t expectedFindings(const rvp::SyntheticSpec &S, Property P);

/// Failures, operation counts and metrics of one run.
struct Result {
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures; ///< the first few diagnostics
  std::vector<Metric> Metrics;
  /// Sample counts and other context, as name/value pairs.
  std::vector<std::pair<std::string, double>> Info;

  /// Counts one attempted operation; records \p What when it failed.
  void check(bool Ok, const std::string &What);
  void metric(std::string Name, double Value, std::string Unit);
  void info(std::string Name, double Value);
  std::string toJson(const Options &O) const;
};

/// Seconds on the steady clock since the first call.
double now();
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}

bool readFile(const std::string &Path, std::string &Out);
bool writeFile(const std::string &Path, const std::string &Text);

/// `rvpredict detect` output with " in 1.23s" timings replaced by
/// " in Xs" (what scripts/check_server_golden.sh compares).
std::string normalizeTiming(const std::string &Report);

/// The finding count of a report's header line ("RV: 40 race(s) in ..."),
/// or -1 when the header does not parse.
int64_t headerCount(const std::string &Report);

/// The harness's own spans, kept in memory and written at exit.
struct Span {
  std::string Name;
  int Parent = -1;
  double Start = 0;
  double End = 0;
};
int beginSpan(const std::string &Name, int Parent);
/// Closes span \p Id and returns its duration in seconds.
double endSpan(int Id);
bool writeSpans(const std::string &Path);

/// What wait4 reported for one child.
struct Child {
  int ExitCode = -1; ///< 128 + signal when killed
  double Wall = 0;   ///< spawn to reap, seconds
  double Cpu = 0;    ///< user + system seconds
  double RssMb = 0;  ///< ru_maxrss in MB
  std::string Out;   ///< captured stdout
  std::string Err;   ///< first line of stderr
};

/// Spawns \p Args, captures stdout, waits, and times spawn to exit.
Child runChild(const std::vector<std::string> &Args);

/// A spawned rvpredictd. The destructor kills and reaps a daemon that
/// stop() never reached, so no error path leaves one running.
class Daemon {
public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  bool start(const std::vector<std::string> &Args, std::string &Error);
  /// True while the process has not exited.
  bool alive();
  /// SIGTERM (a clean drain), then reap; SIGKILL after \p GraceSeconds.
  Child stop(double GraceSeconds);

private:
  pid_t Pid = -1;
  double Started = 0;
  bool Exited = false;
  int Status = 0;
  rusage Ru{};
};

/// Connects to a Unix-domain socket; -1 on failure (errno set).
int connectUnix(const std::string &Path);

// The two halves of a run, over the trace files of the workload's panel.
void runEndToEnd(const Options &O, const Workload &W,
                 const std::vector<std::string> &Traces, Result &R);
void runTraced(const Options &O, const Workload &W,
               const std::vector<std::string> &Traces, Result &R);

/// serve-paced: the trace text cut into chunks of \p Events events.
std::vector<std::string> splitChunks(const std::string &Text,
                                     uint32_t Events);

/// serve-paced: the batch reference the streamed SUMMARY must equal,
/// normalized; empty (with a recorded failure) when it could not be made.
std::string serveReference(const Options &O, const Workload &W,
                           const std::string &TracePath, Result &R);

/// Paced open-loop run of serve-paced against a fresh daemon; fills the
/// end-to-end metrics, or with \p StatsJson the server-layer metrics.
void runServePaced(const Options &O, const Workload &W,
                   const std::vector<std::string> &Chunks,
                   const std::string &Reference, bool StatsJson,
                   Result &R);

} // namespace rvbench

#endif // RVBENCH_HARNESS_H
