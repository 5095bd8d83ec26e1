//===- trace/TraceIO.h - Trace text serialization ---------------*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A line-oriented text format for traces, used by the examples, the
/// figure-reproduction harness, and golden tests. Optional initial values
/// come first, then one event per line:
///
///   init    <var> <value>      (variables without one start at 0)
///   read    <thread> <var> <value> [@<loc>] [volatile]
///   write   <thread> <var> <value> [@<loc>] [volatile]
///   acquire <thread> <lock> [@<loc>] [match=<n>]
///   release <thread> <lock> [@<loc>] [match=<n>]
///   notify  <thread> <lock> [@<loc>] [match=<n>]
///   fork    <thread> <child> [@<loc>]
///   join    <thread> <child> [@<loc>]
///   begin   <thread> [@<loc>]
///   end     <thread> [@<loc>]
///   branch  <thread> [@<loc>]
///
/// Blank lines and lines starting with '#' are ignored.
///
//===----------------------------------------------------------------------===//

#ifndef RVP_TRACE_TRACEIO_H
#define RVP_TRACE_TRACEIO_H

#include "trace/Trace.h"

#include <optional>
#include <string>

namespace rvp {

/// Serializes \p T (or the \p S sub-range) to the text format.
std::string writeTraceText(const Trace &T, Span S);
std::string writeTraceText(const Trace &T);

struct TraceParseOptions {
  /// Skip malformed event lines instead of failing the parse; each skip is
  /// counted in TraceParseStats::SkippedEvents (`--skip-bad-events`).
  /// Skipped lines intern nothing, so the surviving trace is identical to
  /// parsing the file with the bad lines deleted.
  bool SkipBadEvents = false;
  /// File name prefixed to diagnostics ("file.txt:3:17: message"); when
  /// empty, diagnostics use the "line 3, col 17: message" form.
  std::string FileName;
};

struct TraceParseStats {
  /// Malformed event lines skipped under SkipBadEvents.
  uint64_t SkippedEvents = 0;
};

/// Parses the text format. On success returns a finalized trace; on failure
/// returns std::nullopt and stores a diagnostic in \p Error, pointing at
/// the offending line, column, and token.
std::optional<Trace> parseTraceText(std::string_view Text,
                                    std::string &Error,
                                    const TraceParseOptions &Options,
                                    TraceParseStats *Stats = nullptr);

/// Legacy entry point: default options (strict, no file name — "line N,
/// col C:" diagnostics).
std::optional<Trace> parseTraceText(std::string_view Text,
                                    std::string &Error);

} // namespace rvp

#endif // RVP_TRACE_TRACEIO_H
