//===- support/CommandLine.h - Tiny option parser ---------------*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deliberately small command-line option parser used by the example and
/// benchmark executables. Supports `--name=value` and boolean `--flag`
/// forms, prints usage on `--help`.
///
//===----------------------------------------------------------------------===//

#ifndef RVP_SUPPORT_COMMANDLINE_H
#define RVP_SUPPORT_COMMANDLINE_H

#include <cstdint>
#include <string>
#include <vector>

namespace rvp {

/// Exit codes shared by the command-line tools (documented in the README
/// and docs/ROBUSTNESS.md). Keep scripts in scripts/ in sync.
enum ExitCode : int {
  ExitSuccess = 0,  ///< clean run, nothing found
  ExitFindings = 1, ///< the analysis found races / violations / deadlocks
  ExitUsage = 2,    ///< bad flags, malformed values, unreadable inputs
  ExitInternal = 3, ///< internal error, or a degraded run with unknowns
};

/// Collects option definitions, parses argv, and answers typed lookups.
class OptionParser {
public:
  explicit OptionParser(std::string ProgramDescription)
      : Description(std::move(ProgramDescription)) {}

  /// Registers an option; \p Default is rendered in --help output.
  void addOption(std::string Name, std::string Help,
                 std::string Default = "");

  /// Parses argv. On `--help` prints usage and returns false; on malformed
  /// input prints an error and returns false.
  bool parse(int Argc, const char **Argv);

  /// True if the option was present on the command line.
  bool hasOption(const std::string &Name) const;

  std::string getString(const std::string &Name,
                        const std::string &Default = "") const;
  int64_t getInt(const std::string &Name, int64_t Default) const;
  double getDouble(const std::string &Name, double Default) const;
  bool getBool(const std::string &Name, bool Default = false) const;

  /// Positional (non-option) arguments in order of appearance.
  const std::vector<std::string> &positional() const { return Positional; }

private:
  struct Option {
    std::string Name;
    std::string Help;
    std::string Default;
    std::string Value;
    bool Present = false;
  };

  Option *find(const std::string &Name);
  const Option *find(const std::string &Name) const;
  void printHelp(const char *Argv0) const;

  std::string Description;
  std::vector<Option> Options;
  std::vector<std::string> Positional;
};

/// Reads --jobs into \p Out: a worker count from 0 (one worker per
/// hardware thread) to ThreadPool::MaxWorkers, \p Default when absent.
/// Any other value prints one diagnostic and returns false; the caller
/// exits with ExitUsage.
bool readJobs(const OptionParser &Options, uint32_t Default, uint32_t &Out);

} // namespace rvp

#endif // RVP_SUPPORT_COMMANDLINE_H
