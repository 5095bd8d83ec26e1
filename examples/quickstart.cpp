//===- examples/quickstart.cpp - Five-minute tour ---------------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Quickstart: record an execution of the paper's Figure 1 program, run
/// all four detectors on the same trace, and print the maximal
/// technique's race with its witness reordering.
///
///   $ quickstart [--seed=N]
///
//===----------------------------------------------------------------------===//

#include "detect/Detect.h"
#include "runtime/Interpreter.h"
#include "support/CommandLine.h"
#include "trace/TraceIO.h"
#include "workloads/Programs.h"

#include <cstdio>

using namespace rvp;

int main(int Argc, const char **Argv) {
  OptionParser Options("Record Figure 1 of the paper and predict its race");
  Options.addOption("seed", "schedule seed for the recording", "7");
  if (!Options.parse(Argc, Argv))
    return 1;

  // 1. The program under test (MiniRV port of the paper's Figure 1).
  std::string Source = figure1Program();
  std::printf("--- program -----------------------------------------\n%s\n",
              Source.c_str());

  // 2. Record one execution. The recorder logs reads/writes, lock and
  //    thread operations, and branch events (the paper's control-flow
  //    abstraction).
  Trace T;
  RunResult Run;
  std::string Error;
  RandomScheduler Scheduler(Options.getInt("seed", 7));
  if (!recordTrace(Source, T, Run, Error, &Scheduler)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  TraceStats Stats = T.stats();
  std::printf("--- recorded trace ----------------------------------\n");
  std::printf("%s", writeTraceText(T).c_str());
  std::printf("threads=%u events=%llu rw=%llu sync=%llu branch=%llu\n\n",
              Stats.Threads,
              static_cast<unsigned long long>(Stats.Events),
              static_cast<unsigned long long>(Stats.ReadsWrites),
              static_cast<unsigned long long>(Stats.Syncs),
              static_cast<unsigned long long>(Stats.Branches));

  // 3. Predict races with each technique.
  DetectorOptions Detect;
  std::printf("--- detection ---------------------------------------\n");
  for (Technique Tech : {Technique::Hb, Technique::Cp, Technique::Said,
                         Technique::Maximal}) {
    DetectionResult R = detectRaces(T, Tech, Detect);
    std::printf("%-5s found %zu race(s) in %.3fs\n", techniqueName(Tech),
                R.raceCount(), R.Stats.Seconds);
    for (const RaceReport &Race : R.Races)
      std::printf("      %s: %s <-> %s%s\n", Race.Variable.c_str(),
                  Race.LocFirst.c_str(), Race.LocSecond.c_str(),
                  Race.WitnessValid ? " (witness validated)" : "");
  }

  // 4. Show the witness: the reordered window that manifests the race.
  DetectionResult Maximal = detectRaces(T, Technique::Maximal, Detect);
  if (!Maximal.Races.empty() && !Maximal.Races[0].Witness.empty()) {
    const RaceReport &Race = Maximal.Races[0];
    std::printf("\n--- witness reordering for (%s, %s) -----------------\n",
                Race.LocFirst.c_str(), Race.LocSecond.c_str());
    for (EventId Id : Race.Witness) {
      const char *Marker =
          Id == Race.First || Id == Race.Second ? "  <== race" : "";
      std::printf("  %2u: %s%s\n", Id, toString(T[Id]).c_str(), Marker);
    }
  }
  return 0;
}
