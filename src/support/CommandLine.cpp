//===- support/CommandLine.cpp - Tiny option parser -----------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/CommandLine.h"

#include "support/StringUtils.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <cstdlib>

using namespace rvp;

void OptionParser::addOption(std::string Name, std::string Help,
                             std::string Default) {
  Option Opt;
  Opt.Name = std::move(Name);
  Opt.Help = std::move(Help);
  Opt.Default = std::move(Default);
  Options.push_back(std::move(Opt));
}

OptionParser::Option *OptionParser::find(const std::string &Name) {
  for (Option &Opt : Options)
    if (Opt.Name == Name)
      return &Opt;
  return nullptr;
}

const OptionParser::Option *
OptionParser::find(const std::string &Name) const {
  for (const Option &Opt : Options)
    if (Opt.Name == Name)
      return &Opt;
  return nullptr;
}

void OptionParser::printHelp(const char *Argv0) const {
  std::printf("%s\n\nUsage: %s [options]\n\nOptions:\n", Description.c_str(),
              Argv0);
  for (const Option &Opt : Options) {
    std::string Line = "  --" + Opt.Name;
    if (!Opt.Default.empty())
      Line += "=" + Opt.Default;
    std::printf("%-32s %s\n", Line.c_str(), Opt.Help.c_str());
  }
}

bool OptionParser::parse(int Argc, const char **Argv) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h") {
      printHelp(Argv[0]);
      return false;
    }
    if (!startsWith(Arg, "--")) {
      Positional.push_back(Arg);
      continue;
    }
    std::string Body = Arg.substr(2);
    std::string Name = Body;
    std::string Value;
    bool HasValue = false;
    if (size_t Eq = Body.find('='); Eq != std::string::npos) {
      Name = Body.substr(0, Eq);
      Value = Body.substr(Eq + 1);
      HasValue = true;
    }
    Option *Opt = find(Name);
    if (!Opt) {
      std::fprintf(stderr, "error: unknown option '--%s'\n", Name.c_str());
      return false;
    }
    Opt->Present = true;
    Opt->Value = HasValue ? Value : "true";
  }
  return true;
}

bool OptionParser::hasOption(const std::string &Name) const {
  const Option *Opt = find(Name);
  return Opt && Opt->Present;
}

std::string OptionParser::getString(const std::string &Name,
                                    const std::string &Default) const {
  const Option *Opt = find(Name);
  return Opt && Opt->Present ? Opt->Value : Default;
}

int64_t OptionParser::getInt(const std::string &Name, int64_t Default) const {
  const Option *Opt = find(Name);
  if (!Opt || !Opt->Present)
    return Default;
  int64_t Value = 0;
  if (!parseInt(Opt->Value, Value)) {
    std::fprintf(stderr, "error: option '--%s' expects an integer, got '%s'\n",
                 Name.c_str(), Opt->Value.c_str());
    std::exit(ExitUsage);
  }
  return Value;
}

double OptionParser::getDouble(const std::string &Name,
                               double Default) const {
  const Option *Opt = find(Name);
  if (!Opt || !Opt->Present)
    return Default;
  char *End = nullptr;
  double Value = std::strtod(Opt->Value.c_str(), &End);
  if (End == Opt->Value.c_str() || *End != '\0') {
    std::fprintf(stderr, "error: option '--%s' expects a number, got '%s'\n",
                 Name.c_str(), Opt->Value.c_str());
    std::exit(ExitUsage);
  }
  return Value;
}

bool OptionParser::getBool(const std::string &Name, bool Default) const {
  const Option *Opt = find(Name);
  if (!Opt || !Opt->Present)
    return Default;
  return Opt->Value != "false" && Opt->Value != "0" && Opt->Value != "no";
}

bool rvp::readJobs(const OptionParser &Options, uint32_t Default,
                   uint32_t &Out) {
  int64_t Jobs = Options.getInt("jobs", Default);
  if (Jobs < 0 || Jobs > ThreadPool::MaxWorkers) {
    std::fprintf(stderr, "error: --jobs must be between 0 and %u (got %lld)\n",
                 ThreadPool::MaxWorkers, static_cast<long long>(Jobs));
    return false;
  }
  Out = static_cast<uint32_t>(Jobs);
  return true;
}
