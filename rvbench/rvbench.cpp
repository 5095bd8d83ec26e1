//===- rvbench/rvbench.cpp - Benchmark harness entry point ----------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The harness behind rvbench/run.py (see rvbench/README.md). One
/// invocation runs one workload and prints one JSON object:
///
///   rvbench --workload=NAME --seed=N --seconds=S --trace=0|1
///           --bin-dir=DIR --work-dir=DIR [--quick]
///
/// The traces come from SyntheticSpec (trace i of the workload's panel with
/// Seed = 64 * N + i), and the known answers from SyntheticSpec::expected*(),
/// never from a detector. The programs
/// under test receive only the generated trace file. --trace=0 measures
/// end to end (EndToEnd.cpp); --trace=1 measures layer by layer in process
/// (Traced.cpp) and writes its spans to <work-dir>/<workload>.spans.jsonl.
///
/// Exit codes: 0 = every operation gave its known answer; 1 = some did
/// not (the JSON lists the first failures); 2 = usage errors.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "support/CommandLine.h"
#include "trace/TraceIO.h"

#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>

using namespace rvbench;

int main(int Argc, const char **Argv) {
  rvp::OptionParser Parser("rvbench: one run of one rvbench workload");
  Parser.addOption("workload",
                   "batch-witness, batch-scan, batch-props, or serve-paced");
  Parser.addOption("seed", "workload seed", "1");
  Parser.addOption("seconds", "how long the run measures", "20");
  Parser.addOption("trace", "0 = end to end, 1 = traced per-layer run", "0");
  Parser.addOption("quick", "reduced sizes, one iteration", "false");
  Parser.addOption("bin-dir", "directory holding rvpredict and rvpredictd");
  Parser.addOption("work-dir", "work directory for inputs and sockets");
  if (!Parser.parse(Argc, Argv))
    return 2;

  Options O;
  O.Workload = Parser.getString("workload");
  O.Seed = static_cast<uint64_t>(Parser.getInt("seed", 1));
  O.Seconds = Parser.getDouble("seconds", 20);
  O.Trace = Parser.getInt("trace", 0) != 0;
  O.Quick = Parser.getBool("quick");
  O.BinDir = Parser.getString("bin-dir");
  std::string WorkDir = Parser.getString("work-dir");
  Workload W;
  if (!makeWorkload(O, W) || O.BinDir.empty() || WorkDir.empty() ||
      O.Seconds < 0) {
    std::fprintf(stderr, "usage: rvbench --workload=NAME --bin-dir=DIR "
                         "--work-dir=DIR [--seed=N] [--seconds=S] "
                         "[--trace=0|1] [--quick]\n");
    return 2;
  }
  // Sockets are bound by relative path, which keeps them under the
  // sun_path limit however deep the work directory is.
  ::mkdir(WorkDir.c_str(), 0755);
  if (::chdir(WorkDir.c_str()) != 0) {
    std::perror(WorkDir.c_str());
    return 2;
  }
  ::signal(SIGPIPE, SIG_IGN);

  std::vector<std::string> Traces;
  uint64_t Events = 0;
  for (uint32_t I = 0; I < W.Panel; ++I) {
    rvp::SyntheticSpec Spec = W.Spec;
    Spec.Seed = 64 * O.Seed + I;
    rvp::Trace T = rvp::generateSynthetic(Spec);
    Events += T.size();
    Traces.push_back(W.Name + "." + std::to_string(I) + ".trace.txt");
    if (!writeFile(Traces.back(), rvp::writeTraceText(T))) {
      std::fprintf(stderr, "rvbench: cannot write %s\n",
                   Traces.back().c_str());
      return 2;
    }
  }
  Result R;
  if (O.Trace)
    runTraced(O, W, Traces, R);
  else
    runEndToEnd(O, W, Traces, R);
  R.info("panel_traces", static_cast<double>(Traces.size()));
  R.info("panel_events", static_cast<double>(Events));
  if (O.Trace)
    writeSpans(W.Name + ".spans.jsonl");
  std::printf("%s\n", R.toJson(O).c_str());
  return R.Failed ? 1 : 0;
}
