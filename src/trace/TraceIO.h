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
/// Blank lines and lines starting with '#' are ignored. Fields are
/// separated by spaces only; whitespace at either end of a line is
/// trimmed.
///
/// TraceReader reads each line in one pass, eight bytes at a time: one
/// word loop finds both the spaces that split the line into fields and
/// the newline that ends it. The fields are std::string_views into the
/// text, kept in a vector the reader reuses, so a line allocates nothing.
/// The line is trimmed only when its first or last byte is whitespace; a
/// modifier is told apart by its first byte and the kind by its first
/// character. Names are interned from the views into the trace's flat
/// name tables (Trace.h), so only a name the trace has not seen is copied.
///
/// readTraceFile feeds a file to a reader in fixed-size blocks, complete
/// lines at a time, so a trace file is never held whole in memory.
///
//===----------------------------------------------------------------------===//

#ifndef RVP_TRACE_TRACEIO_H
#define RVP_TRACE_TRACEIO_H

#include "support/StringUtils.h"
#include "trace/Consistency.h"
#include "trace/Trace.h"

#include <optional>
#include <string>
#include <unordered_map>

namespace rvp {

/// Serializes \p T (or the \p S sub-range) to the text format.
std::string writeTraceText(const Trace &T, Span S);
std::string writeTraceText(const Trace &T);

struct TraceParseOptions {
  /// Skip malformed or inconsistent event lines instead of failing the
  /// parse; each skip is counted in TraceParseStats::SkippedEvents
  /// (`--skip-bad-events`). Skipped lines intern nothing, so the
  /// surviving trace is identical to parsing the file with the bad lines
  /// deleted.
  bool SkipBadEvents = false;
  /// File name prefixed to diagnostics ("file.txt:3:17: message"); when
  /// empty, diagnostics use the "line 3, col 17: message" form.
  std::string FileName;
};

struct TraceParseStats {
  /// Malformed or inconsistent event lines skipped under SkipBadEvents.
  uint64_t SkippedEvents = 0;
};

/// Appends trace text, one complete line at a time, to the Trace it owns.
/// Each line is parsed once, and each event is checked once against the
/// events accepted before it (Fragment-mode consistency: impossible read
/// values, releases by a non-holder, acquires of a held lock, events
/// after `end`, second forks). A rejected line interns nothing. Under
/// SkipBadEvents it is dropped on the spot and counted: the verdict on a
/// line depends only on the lines before it, so the trace is the parse of
/// the input with the bad lines deleted. Otherwise the reader stops at
/// the first rejected line with a diagnostic that names its line and
/// column ("inconsistent input trace: ..." for a semantic reject), and
/// every later read() fails the same way.
class TraceReader {
public:
  explicit TraceReader(TraceParseOptions Options)
      : Opts(std::move(Options)) {}
  TraceReader(const TraceReader &) = delete;
  TraceReader &operator=(const TraceReader &) = delete;

  /// Reads every line of \p Text: each newline-terminated one, then an
  /// unterminated rest. A stream passes complete lines only, and the
  /// unterminated tail once, at end of input. Returns ok().
  bool read(std::string_view Text);

  bool ok() const { return Error.empty(); }
  /// The diagnostic that stopped the reader (empty while ok()).
  const std::string &error() const { return Error; }
  /// Lines dropped under SkipBadEvents.
  uint64_t skippedEvents() const { return Skipped; }
  /// The accepted events, with every index current; further lines extend
  /// it in place.
  Trace &trace() { return T; }

private:
  /// Parses, interns, checks and appends the non-blank, non-comment line
  /// \p Raw, split into Fields; false with Error set (and the trace as
  /// before) when it is rejected.
  bool readLine(std::string_view Raw);
  bool fail(size_t Col, const std::string &Msg, std::string_view Token);

  TraceParseOptions Opts;
  Trace T;
  ConsistencyChecker Checker{T, ConsistencyMode::Fragment};
  size_t LineNo = 0;
  /// The fields of the line being read: views into the text read() was
  /// given, kept only so that their storage is reused from line to line.
  std::vector<std::string_view> Fields;
  /// `init` values by variable name, applied when the variable is first
  /// interned by an event: interning order stays that of the events, so a
  /// prefix of the text interns exactly like the whole of it.
  std::unordered_map<std::string, Value, StringHash, std::equal_to<>> Inits;
  std::string Error;
  uint64_t Skipped = 0;
};

/// Parses the text format with one TraceReader. On success returns the
/// trace; on failure returns std::nullopt and stores the reader's
/// diagnostic in \p Error, pointing at the offending line, column, and
/// token.
std::optional<Trace> parseTraceText(std::string_view Text,
                                    std::string &Error,
                                    const TraceParseOptions &Options = {},
                                    TraceParseStats *Stats = nullptr);

/// The block size readTraceFile reads by default.
inline constexpr size_t DefaultTraceBlockBytes = size_t(1) << 16;

/// Feeds the trace file at \p Path to \p Reader in blocks of \p BlockSize
/// bytes: the complete lines of each block, then the unterminated last
/// line once, at end of file. Room for the events is reserved once, from
/// the file size and the first block's line density. Stops early when the
/// reader stops. The `trace.short_read` and `trace.garble` fault sites
/// apply to a regular file (docs/ROBUSTNESS.md). False when the file
/// cannot be opened or read; the reader's verdict is Reader.ok().
bool readTraceFile(const std::string &Path, TraceReader &Reader,
                   size_t BlockSize = DefaultTraceBlockBytes);

} // namespace rvp

#endif // RVP_TRACE_TRACEIO_H
