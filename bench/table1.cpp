//===- bench/table1.cpp - Reproduce Table 1 ----------------------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Regenerates Table 1 of the paper: per benchmark, the trace metrics
/// (#Thrd, #Event, #RW, #Sync, #Br), the number of potential races passing
/// the quick check (QC), the real races found by RV (this paper), Said et
/// al., CP, and HB, plus the WCP vector-clock tier (docs/TIERS.md), and
/// the per-technique detection times.
///
///   $ table1 [--window=10000] [--budget=10] [--solver=idl]
///            [--group=all|example|contest|grande|real] [--bench=name]
///            [--stats-json=out.json]
///
/// Absolute numbers differ from the paper (the real systems are replaced
/// by calibrated synthetic workloads; see DESIGN.md), but the shape —
/// RV ⊇ Said/CP/HB everywhere, the ftpserver inversion, derby's RV gap,
/// HB/CP fastest and Said slowest — reproduces. EXPERIMENTS.md records
/// paper-vs-measured values.
///
//===----------------------------------------------------------------------===//

#include "detect/Detect.h"
#include "support/CommandLine.h"
#include "support/BuildInfo.h"
#include "workloads/Catalog.h"

#include <cstdio>
#include <fstream>

using namespace rvp;

int main(int Argc, const char **Argv) {
  OptionParser Options("Reproduce Table 1 of the paper");
  Options.addOption("window", "window size in events", "10000");
  Options.addOption("budget", "per-COP solver budget in seconds", "10");
  Options.addOption("solver", "SMT backend: idl or z3", "idl");
  Options.addOption("jobs",
                    "solver worker threads (0 = one per hardware thread)",
                    "0");
  Options.addOption("group", "row group filter", "all");
  Options.addOption("bench", "single benchmark name", "");
  Options.addOption("stats-json",
                    "write per-benchmark per-technique stats JSON "
                    "('-' for stdout)",
                    "");
  if (!Options.parse(Argc, Argv))
    return 1;
  uint32_t Jobs = 0;
  if (!readJobs(Options, 0, Jobs))
    return ExitUsage;

  std::string StatsJsonPath = Options.getString("stats-json", "");
  if (!StatsJsonPath.empty())
    Telemetry::setEnabled(true);
  std::string JsonRows;

  DetectorOptions Detect;
  Detect.WindowSize = static_cast<uint32_t>(Options.getInt("window", 10000));
  Detect.PerCopBudgetSeconds = Options.getDouble("budget", 10);
  Detect.SolverName = Options.getString("solver", "idl");
  Detect.Jobs = Jobs;
  Detect.CollectWitnesses = false; // match the paper's timing setup
  // Witnesses are off, so the hybrid tier would report WCP verdicts
  // unverified (trust mode) and the RV column would no longer be the
  // paper's maximal detector. Pin the solver tier for the paper columns;
  // WCP gets its own column below via the vc tier.
  Detect.Tier = DetectTier::Smt;

  std::string Group = Options.getString("group", "all");
  std::string Only = Options.getString("bench", "");

  std::printf("%-11s %6s %8s %8s %7s %7s | %4s %4s %5s %4s %4s %4s |"
              " %8s %8s %8s %8s %8s\n",
              "Program", "#Thrd", "#Event", "#RW", "#Sync", "#Br", "QC",
              "RV", "Said", "CP", "HB", "WCP", "RV(s)", "Said(s)", "CP(s)",
              "HB(s)", "WCP(s)");

  uint64_t TotalRv = 0, TotalSaid = 0, TotalCp = 0, TotalHb = 0,
           TotalWcp = 0;
  for (const BenchmarkCase &Case : table1Benchmarks()) {
    if (Group != "all" && Case.Group != Group)
      continue;
    if (!Only.empty() && Case.Name != Only)
      continue;

    Trace T;
    std::string Error;
    if (!benchmarkTrace(Case, T, Error)) {
      std::fprintf(stderr, "%s: %s\n", Case.Name.c_str(), Error.c_str());
      continue;
    }
    TraceStats Stats = T.stats();

    // One telemetry run per technique: each snapshot covers exactly one
    // detectRaces call.
    auto runTechnique = [&](Technique Tech) {
      if (Telemetry::enabled())
        Telemetry::instance().reset();
      return detectRaces(T, Tech, Detect);
    };
    DetectionResult Rv = runTechnique(Technique::Maximal);
    DetectionResult Said = runTechnique(Technique::Said);
    DetectionResult Cp = runTechnique(Technique::Cp);
    DetectionResult Hb = runTechnique(Technique::Hb);
    // The WCP column: the linear-time vector-clock tier, no solver at
    // all (docs/TIERS.md). Weakly sound like CP/HB, so RV ⊇ WCP ⊇ CP.
    if (Telemetry::enabled())
      Telemetry::instance().reset();
    DetectorOptions VcDetect = Detect;
    VcDetect.Tier = DetectTier::Vc;
    DetectionResult Wcp = detectRaces(T, Technique::Maximal, VcDetect);

    std::printf("%-11s %6u %8llu %8llu %7llu %7llu | %4llu %4zu %5zu %4zu "
                "%4zu %4zu | %8.2f %8.2f %8.2f %8.2f %8.2f\n",
                Case.Name.c_str(), Stats.Threads,
                static_cast<unsigned long long>(Stats.Events),
                static_cast<unsigned long long>(Stats.ReadsWrites),
                static_cast<unsigned long long>(Stats.Syncs),
                static_cast<unsigned long long>(Stats.Branches),
                static_cast<unsigned long long>(Rv.Stats.QcPassed),
                Rv.raceCount(), Said.raceCount(), Cp.raceCount(),
                Hb.raceCount(), Wcp.raceCount(), Rv.Stats.Seconds,
                Said.Stats.Seconds, Cp.Stats.Seconds, Hb.Stats.Seconds,
                Wcp.Stats.Seconds);
    if (Case.Group == "real") {
      TotalRv += Rv.raceCount();
      TotalSaid += Said.raceCount();
      TotalCp += Cp.raceCount();
      TotalHb += Hb.raceCount();
      TotalWcp += Wcp.raceCount();
    }
    if (!StatsJsonPath.empty()) {
      auto techJson = [](const DetectionResult &R, const char *Name) {
        JsonObject O;
        O.field("races", static_cast<uint64_t>(R.raceCount()))
            .raw("stats", statsToJson(R.Stats, Name));
        return O.str();
      };
      JsonObject Techs;
      Techs.raw("rv", techJson(Rv, "RV"))
          .raw("said", techJson(Said, "Said"))
          .raw("cp", techJson(Cp, "CP"))
          .raw("hb", techJson(Hb, "HB"))
          .raw("wcp", techJson(Wcp, "WCP"));
      JsonObject Row;
      Row.field("name", Case.Name)
          .field("group", Case.Group)
          .field("threads", static_cast<uint64_t>(Stats.Threads))
          .field("events", static_cast<uint64_t>(Stats.Events))
          .field("reads_writes", static_cast<uint64_t>(Stats.ReadsWrites))
          .field("syncs", static_cast<uint64_t>(Stats.Syncs))
          .field("branches", static_cast<uint64_t>(Stats.Branches))
          .field("qc_passed", Rv.Stats.QcPassed)
          .raw("techniques", Techs.str());
      if (!JsonRows.empty())
        JsonRows += ",";
      JsonRows += Row.str();
    }
  }
  if (Group == "all" || Group == "real")
    std::printf("%-11s %6s %8s %8s %7s %7s | %4s %4llu %5llu %4llu %4llu "
                "%4llu |\n",
                "real total", "", "", "", "", "", "",
                static_cast<unsigned long long>(TotalRv),
                static_cast<unsigned long long>(TotalSaid),
                static_cast<unsigned long long>(TotalCp),
                static_cast<unsigned long long>(TotalHb),
                static_cast<unsigned long long>(TotalWcp));
  if (!StatsJsonPath.empty()) {
    JsonObject Out;
    appendRunMetadata(Out);
    Out.raw("benchmarks", "[" + JsonRows + "]");
    std::string Json = Out.str() + "\n";
    if (StatsJsonPath == "-") {
      std::fputs(Json.c_str(), stdout);
    } else {
      std::ofstream File(StatsJsonPath);
      if (!File) {
        std::fprintf(stderr, "error: cannot write '%s'\n",
                     StatsJsonPath.c_str());
        return 1;
      }
      File << Json;
    }
  }
  return 0;
}
