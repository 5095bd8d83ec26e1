//===- tools/rvlint.cpp - Static MiniRV linter --------------------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Standalone static analysis over MiniRV programs — no execution, no
/// traces. Reports the diagnostics of analysis/Lint.h with source
/// locations:
///
///   rvlint <prog.rv>... [--races] [--json]
///
/// Output lines use the compiler-style format
///   <basename>:<line>:<col>: warning: <message> [<kind>]
/// (basenames, not paths, so golden files are location-independent).
/// `--races` adds the ranked Eraser-style static race warnings of
/// analysis/RaceCheck.h as [static-race] lines (a "races" array in JSON).
///
/// Exit status: 0 when every file is clean, 1 when any diagnostic or race
/// warning was reported, 2 on usage/IO/parse errors.
///
//===----------------------------------------------------------------------===//

#include "analysis/Lint.h"
#include "lang/Parser.h"
#include "support/CommandLine.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <iostream>

using namespace rvp;

namespace {

std::string baseName(const std::string &Path) {
  size_t Slash = Path.find_last_of("/\\");
  return Slash == std::string::npos ? Path : Path.substr(Slash + 1);
}

/// Lints one file; returns 0 (clean), 1 (diagnostics), or 2 (error).
int lintFile(const std::string &Path, bool Json, bool Races) {
  std::string Source;
  if (!readFile(Path, Source)) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Path.c_str());
    return 2;
  }
  std::string ParseError;
  std::optional<Program> P = parseProgram(Source, ParseError);
  if (!P) {
    std::fprintf(stderr, "%s:%s\n", baseName(Path).c_str(),
                 ParseError.c_str());
    return 2;
  }
  LintResult R = runLint(*P, Races);
  if (Json)
    renderLintJson(R, baseName(Path), std::cout);
  else
    renderLintText(R, baseName(Path), std::cout);
  return R.Diags.empty() && R.Races.empty() ? 0 : 1;
}

} // namespace

int main(int Argc, const char **Argv) {
  OptionParser Options(
      "rvlint: static analysis diagnostics for MiniRV programs");
  Options.addOption("json", "emit diagnostics as JSON", "false");
  Options.addOption("races", "add ranked static race warnings", "false");
  if (!Options.parse(Argc, Argv))
    return 2;
  if (Options.positional().empty()) {
    std::fprintf(stderr, "usage: rvlint <prog.rv>... [--races] [--json]\n");
    return 2;
  }

  int Worst = 0;
  for (const std::string &Path : Options.positional())
    Worst = std::max(Worst, lintFile(Path, Options.getBool("json"),
                                     Options.getBool("races")));
  return Worst;
}
