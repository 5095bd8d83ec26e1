//===- trace/TraceIO.cpp - Trace text serialization ------------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceIO.h"

#include "support/Compiler.h"
#include "support/StringUtils.h"
#include "trace/Consistency.h"

#include <unordered_map>
#include <unordered_set>

using namespace rvp;

std::string rvp::writeTraceText(const Trace &T, Span S) {
  std::string Out = "# rvp-trace v1\n";
  // Variables default to 0, so only the others need an init line.
  const std::vector<Value> &Init = T.initialValues();
  for (VarId Var = 0; Var < Init.size(); ++Var)
    if (Init[Var] != 0)
      Out += "init " + T.varName(Var) + ' ' + std::to_string(Init[Var]) +
             '\n';
  for (EventId Id = S.Begin; Id < S.End && Id < T.size(); ++Id) {
    const Event &E = T[Id];
    Out += eventKindName(E.Kind);
    Out += ' ';
    Out += T.threadName(E.Tid);
    switch (E.Kind) {
    case EventKind::Read:
    case EventKind::Write:
      Out += ' ' + T.varName(E.Target) + ' ' + std::to_string(E.Data);
      break;
    case EventKind::Acquire:
    case EventKind::Release:
    case EventKind::Notify:
      Out += ' ' + T.lockName(E.Target);
      break;
    case EventKind::Fork:
    case EventKind::Join:
      Out += ' ' + T.threadName(E.Target);
      break;
    case EventKind::Begin:
    case EventKind::End:
    case EventKind::Branch:
      break;
    case EventKind::Wait:
      RVP_UNREACHABLE("unlowered wait event in trace");
    }
    if (E.Loc != UnknownLoc)
      Out += " @" + T.locName(E.Loc);
    if (E.Volatile)
      Out += " volatile";
    if (E.Aux != 0)
      Out += " match=" + std::to_string(E.Aux);
    Out += '\n';
  }
  return Out;
}

std::string rvp::writeTraceText(const Trace &T) {
  return writeTraceText(T, T.fullSpan());
}

namespace {

struct LineParser {
  Trace T;
  std::string Error;
  const TraceParseOptions &Opts;
  /// `init` values by variable name, applied when the variable is first
  /// interned by an event: interning order stays that of the events, so a
  /// prefix of the text interns exactly like the whole of it.
  std::unordered_map<std::string, Value> Inits;

  explicit LineParser(const TraceParseOptions &Opts) : Opts(Opts) {}

  /// Builds the diagnostic: "file.txt:3:17: message (offending token
  /// 'xyz')" with a file name, "line 3, col 17: ..." without one. The
  /// column is the token's 1-based offset in the raw (untrimmed) line.
  bool fail(size_t LineNo, size_t Col, const std::string &Msg,
            std::string_view Token) {
    Error = Opts.FileName.empty()
                ? formatString("line %zu, col %zu: %s", LineNo, Col,
                               Msg.c_str())
                : formatString("%s:%zu:%zu: %s", Opts.FileName.c_str(),
                               LineNo, Col, Msg.c_str());
    if (!Token.empty())
      Error += formatString(" (offending token '%.*s')",
                            static_cast<int>(Token.size()), Token.data());
    return false;
  }

  /// Parses one non-blank, non-comment line. \p Raw is the untrimmed line
  /// (column numbers are computed against it); \p Line the trimmed view
  /// into the same buffer. Validation is complete before any interning, so
  /// a rejected line leaves the trace untouched (SkipBadEvents relies on
  /// this: skipping a line equals deleting it from the input).
  bool parseLine(size_t LineNo, std::string_view Raw,
                 std::string_view Line) {
    auto columnOf = [&](std::string_view Field) {
      return static_cast<size_t>(Field.data() - Raw.data()) + 1;
    };
    std::vector<std::string_view> Fields;
    for (std::string_view Field : split(Line, ' '))
      if (!Field.empty())
        Fields.push_back(Field);
    if (Fields.empty())
      return true;

    // Trailing modifiers: @loc, volatile, match=N.
    Event E;
    std::string Loc;
    size_t NumCore = Fields.size();
    while (NumCore > 0) {
      std::string_view Last = Fields[NumCore - 1];
      if (Last == "volatile") {
        E.Volatile = true;
      } else if (startsWith(Last, "@")) {
        Loc = std::string(Last.substr(1));
      } else if (startsWith(Last, "match=")) {
        int64_t Match = 0;
        if (!parseInt(Last.substr(6), Match) || Match < 0)
          return fail(LineNo, columnOf(Last), "malformed match id", Last);
      } else {
        break;
      }
      --NumCore;
    }
    if (NumCore < 2)
      return fail(LineNo, columnOf(Fields[0]),
                  "expected '<kind> <thread> ...'", Fields[0]);

    std::string Kind(Fields[0]);
    if (Kind == "init") {
      if (Fields.size() != 3)
        return fail(LineNo, columnOf(Fields[0]),
                    "expected 'init <var> <value>'", Fields[0]);
      if (!T.empty())
        return fail(LineNo, columnOf(Fields[0]),
                    "init line after the first event", Fields[0]);
      int64_t Init = 0;
      if (!parseInt(Fields[2], Init))
        return fail(LineNo, columnOf(Fields[2]), "malformed value",
                    Fields[2]);
      Inits[std::string(Fields[1])] = Init;
      return true;
    }
    auto needFields = [&](size_t N) { return NumCore == N; };
    int64_t Value = 0;

    if (Kind == "read" || Kind == "write") {
      if (!needFields(4))
        return fail(LineNo, columnOf(Fields[0]),
                    "expected '" + Kind + " <thread> <var> <value>'",
                    Fields[0]);
      E.Kind = Kind == "read" ? EventKind::Read : EventKind::Write;
      if (!parseInt(Fields[3], Value))
        return fail(LineNo, columnOf(Fields[3]), "malformed value",
                    Fields[3]);
      E.Data = Value;
    } else if (Kind == "acquire" || Kind == "release" || Kind == "notify") {
      if (!needFields(3))
        return fail(LineNo, columnOf(Fields[0]),
                    "expected '" + Kind + " <thread> <lock>'", Fields[0]);
      E.Kind = Kind == "acquire"  ? EventKind::Acquire
               : Kind == "release" ? EventKind::Release
                                   : EventKind::Notify;
    } else if (Kind == "fork" || Kind == "join") {
      if (!needFields(3))
        return fail(LineNo, columnOf(Fields[0]),
                    "expected '" + Kind + " <thread> <child>'", Fields[0]);
      E.Kind = Kind == "fork" ? EventKind::Fork : EventKind::Join;
    } else if (Kind == "begin" || Kind == "end" || Kind == "branch") {
      if (!needFields(2))
        return fail(LineNo, columnOf(Fields[0]),
                    "expected '" + Kind + " <thread>'", Fields[0]);
      E.Kind = Kind == "begin" ? EventKind::Begin
               : Kind == "end" ? EventKind::End
                               : EventKind::Branch;
    } else {
      return fail(LineNo, columnOf(Fields[0]),
                  "unknown event kind '" + Kind + "'", Fields[0]);
    }

    // The modifier loop already parsed match=N; re-derive Aux now that the
    // line is known good.
    for (size_t I = NumCore; I < Fields.size(); ++I)
      if (startsWith(Fields[I], "match=")) {
        int64_t Match = 0;
        parseInt(Fields[I].substr(6), Match);
        E.Aux = static_cast<uint32_t>(Match);
      }

    // Interning happens last, in the historical order (thread, location,
    // target), so well-formed traces get byte-identical name tables.
    E.Tid = T.internThread(std::string(Fields[1]));
    E.Loc = Loc.empty() ? UnknownLoc : T.internLoc(Loc);
    switch (E.Kind) {
    case EventKind::Read:
    case EventKind::Write: {
      uint32_t Known = T.numVars();
      E.Target = T.internVar(std::string(Fields[2]));
      if (E.Target == Known && !Inits.empty()) {
        auto It = Inits.find(std::string(Fields[2]));
        if (It != Inits.end())
          T.setInitialValue(E.Target, It->second);
      }
      break;
    }
    case EventKind::Acquire:
    case EventKind::Release:
    case EventKind::Notify:
      E.Target = T.internLock(std::string(Fields[2]));
      break;
    case EventKind::Fork:
    case EventKind::Join:
      E.Target = T.internThread(std::string(Fields[2]));
      break;
    default:
      break;
    }

    T.append(E);
    return true;
  }
};

} // namespace

std::optional<Trace>
rvp::parseTraceText(std::string_view Text, std::string &Error,
                    const TraceParseOptions &Options,
                    TraceParseStats *Stats) {
  // Under SkipBadEvents the parse may run several passes: grammar-level
  // skips happen inline, and each pass then validates the surviving
  // events semantically (checkConsistency in Fragment mode — unmatched
  // releases, reads of impossible values, double acquires). The first
  // offending event's line joins DroppedLines and the text is reparsed
  // without it, so the result is always exactly "the input with the bad
  // lines deleted" — the same contract grammar skips have, now covering
  // garbage that parses but cannot have happened (docs/ROBUSTNESS.md).
  std::unordered_set<size_t> DroppedLines;
  for (;;) {
    LineParser P(Options);
    std::vector<size_t> EventLines; // line that produced each event
    size_t LineNo = 0;
    uint64_t GrammarSkips = 0;
    for (std::string_view Raw : split(Text, '\n')) {
      ++LineNo;
      std::string_view Line = trim(Raw);
      if (Line.empty() || Line[0] == '#')
        continue;
      if (!DroppedLines.empty() && DroppedLines.count(LineNo))
        continue;
      uint64_t Before = P.T.size();
      if (!P.parseLine(LineNo, Raw, Line)) {
        if (Options.SkipBadEvents) {
          ++GrammarSkips;
          continue;
        }
        Error = P.Error;
        return std::nullopt;
      }
      if (P.T.size() > Before)
        EventLines.push_back(LineNo);
    }
    P.T.finalize();
    if (Options.SkipBadEvents) {
      ConsistencyResult C =
          checkConsistency(P.T, ConsistencyMode::Fragment);
      if (!C.Ok && C.Offender != InvalidEvent &&
          C.Offender < EventLines.size()) {
        DroppedLines.insert(EventLines[C.Offender]);
        continue; // reparse without the offender
      }
    }
    if (Stats)
      Stats->SkippedEvents = GrammarSkips + DroppedLines.size();
    return std::move(P.T);
  }
}

std::optional<Trace> rvp::parseTraceText(std::string_view Text,
                                         std::string &Error) {
  return parseTraceText(Text, Error, TraceParseOptions());
}
