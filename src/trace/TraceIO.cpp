//===- trace/TraceIO.cpp - Trace text serialization ------------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceIO.h"

#include "support/Compiler.h"
#include "support/StringUtils.h"

#include <algorithm>

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

/// Builds the diagnostic: "file.txt:3:17: message (offending token 'xyz')"
/// with a file name, "line 3, col 17: ..." without one. The column is the
/// token's 1-based offset in the raw (untrimmed) line.
bool TraceReader::fail(size_t Col, const std::string &Msg,
                       std::string_view Token) {
  Error = Opts.FileName.empty()
              ? formatString("line %zu, col %zu: %s", LineNo, Col,
                             Msg.c_str())
              : formatString("%s:%zu:%zu: %s", Opts.FileName.c_str(), LineNo,
                             Col, Msg.c_str());
  if (!Token.empty())
    Error += formatString(" (offending token '%.*s')",
                          static_cast<int>(Token.size()), Token.data());
  return false;
}

bool TraceReader::read(std::string_view Text) {
  while (ok() && !Text.empty()) {
    size_t Newline = Text.find('\n');
    std::string_view Raw = Text.substr(0, Newline);
    Text.remove_prefix(Newline == std::string_view::npos ? Text.size()
                                                         : Newline + 1);
    ++LineNo;
    std::string_view Line = trim(Raw);
    if (Line.empty() || Line[0] == '#')
      continue;
    if (!readLine(Raw, Line) && Opts.SkipBadEvents) {
      Error.clear();
      ++Skipped;
    }
  }
  return ok();
}

bool TraceReader::readLine(std::string_view Raw, std::string_view Line) {
  auto columnOf = [&](std::string_view Field) {
    return static_cast<size_t>(Field.data() - Raw.data()) + 1;
  };
  std::vector<std::string_view> Fields = split(Line, ' ');
  Fields.erase(std::remove(Fields.begin(), Fields.end(), std::string_view()),
               Fields.end());
  if (Fields.empty())
    return true;

  // Trailing modifiers: @loc, volatile, match=N.
  Event E;
  std::string_view Loc;
  size_t NumCore = Fields.size();
  while (NumCore > 0) {
    std::string_view Last = Fields[NumCore - 1];
    if (Last == "volatile") {
      E.Volatile = true;
    } else if (startsWith(Last, "@")) {
      Loc = Last.substr(1);
    } else if (startsWith(Last, "match=")) {
      int64_t Match = 0;
      if (!parseInt(Last.substr(6), Match) || Match < 0)
        return fail(columnOf(Last), "malformed match id", Last);
    } else {
      break;
    }
    --NumCore;
  }
  if (NumCore < 2)
    return fail(columnOf(Fields[0]), "expected '<kind> <thread> ...'",
                Fields[0]);

  std::string_view Kind = Fields[0];
  if (Kind == "init") {
    if (Fields.size() != 3)
      return fail(columnOf(Kind), "expected 'init <var> <value>'", Kind);
    if (!T.empty())
      return fail(columnOf(Kind), "init line after the first event", Kind);
    int64_t Init = 0;
    if (!parseInt(Fields[2], Init))
      return fail(columnOf(Fields[2]), "malformed value", Fields[2]);
    Inits[std::string(Fields[1])] = Init;
    return true;
  }
  auto expected = [&](const char *Operands) {
    return fail(columnOf(Kind),
                "expected '" + std::string(Kind) + " <thread>" + Operands +
                    "'",
                Kind);
  };
  int64_t Value = 0;

  if (Kind == "read" || Kind == "write") {
    if (NumCore != 4)
      return expected(" <var> <value>");
    E.Kind = Kind == "read" ? EventKind::Read : EventKind::Write;
    if (!parseInt(Fields[3], Value))
      return fail(columnOf(Fields[3]), "malformed value", Fields[3]);
    E.Data = Value;
  } else if (Kind == "acquire" || Kind == "release" || Kind == "notify") {
    if (NumCore != 3)
      return expected(" <lock>");
    E.Kind = Kind == "acquire"   ? EventKind::Acquire
             : Kind == "release" ? EventKind::Release
                                 : EventKind::Notify;
  } else if (Kind == "fork" || Kind == "join") {
    if (NumCore != 3)
      return expected(" <child>");
    E.Kind = Kind == "fork" ? EventKind::Fork : EventKind::Join;
  } else if (Kind == "begin" || Kind == "end" || Kind == "branch") {
    if (NumCore != 2)
      return expected("");
    E.Kind = Kind == "begin" ? EventKind::Begin
             : Kind == "end" ? EventKind::End
                             : EventKind::Branch;
  } else {
    return fail(columnOf(Kind),
                "unknown event kind '" + std::string(Kind) + "'", Kind);
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
  Trace::Mark Before = T.mark();
  E.Tid = T.internThread(std::string(Fields[1]));
  E.Loc = Loc.empty() ? UnknownLoc : T.internLoc(std::string(Loc));
  switch (E.Kind) {
  case EventKind::Read:
  case EventKind::Write: {
    E.Target = T.internVar(std::string(Fields[2]));
    if (E.Target == Before.Vars && !Inits.empty()) {
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

  // The event's verdict depends only on the accepted prefix: only an
  // accepted event is appended, and a rejected one takes its names back.
  ConsistencyResult C = Checker.step(E, static_cast<EventId>(T.size()));
  if (C.Ok) {
    T.append(E);
    return true;
  }
  T.rollback(Before);
  return fail(columnOf(Kind), "inconsistent input trace: " + C.Message, {});
}

std::optional<Trace>
rvp::parseTraceText(std::string_view Text, std::string &Error,
                    const TraceParseOptions &Options,
                    TraceParseStats *Stats) {
  TraceReader Reader(Options);
  if (!Reader.read(Text)) {
    Error = Reader.error();
    return std::nullopt;
  }
  if (Stats)
    Stats->SkippedEvents = Reader.skippedEvents();
  return std::move(Reader.trace());
}
