//===- trace/TraceIO.cpp - Trace text serialization ------------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceIO.h"

#include "support/Compiler.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <array>

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

namespace {

/// Fields a line keeps inline; a longer line (repeated modifiers, junk)
/// spills into a heap vector.
constexpr size_t InlineFields = 8;

/// The fields of one line: its runs of non-space characters. Only a space
/// separates fields; a tab or any other byte belongs to its field.
class LineFields {
public:
  explicit LineFields(std::string_view Line) {
    for (size_t I = 0; I < Line.size();) {
      if (Line[I] == ' ') {
        ++I;
        continue;
      }
      size_t End = std::min(Line.find(' ', I), Line.size());
      push(Line.substr(I, End - I));
      I = End;
    }
  }

  size_t size() const { return Size; }
  std::string_view operator[](size_t I) const {
    return Spilled.empty() ? Inline[I] : Spilled[I];
  }

private:
  void push(std::string_view Field) {
    if (RVP_LIKELY(Size < InlineFields))
      Inline[Size] = Field;
    else
      spill(Field);
    ++Size;
  }

  /// Moves the fields to the heap on the first call, then appends there.
  void spill(std::string_view Field) {
    if (Spilled.empty())
      Spilled.assign(Inline.begin(), Inline.end());
    Spilled.push_back(Field);
  }

  std::array<std::string_view, InlineFields> Inline;
  std::vector<std::string_view> Spilled;
  size_t Size = 0;
};

/// The event kind \p Name spells: its first character picks the one
/// candidate (the length splits read/release and begin/branch) and a
/// single compare with eventKindName confirms it.
std::optional<EventKind> eventKindNamed(std::string_view Name) {
  EventKind Kind;
  switch (Name[0]) {
  case 'r':
    Kind = Name.size() == 4 ? EventKind::Read : EventKind::Release;
    break;
  case 'w':
    Kind = EventKind::Write;
    break;
  case 'a':
    Kind = EventKind::Acquire;
    break;
  case 'n':
    Kind = EventKind::Notify;
    break;
  case 'f':
    Kind = EventKind::Fork;
    break;
  case 'j':
    Kind = EventKind::Join;
    break;
  case 'b':
    Kind = Name.size() == 5 ? EventKind::Begin : EventKind::Branch;
    break;
  case 'e':
    Kind = EventKind::End;
    break;
  default:
    return std::nullopt;
  }
  if (Name != eventKindName(Kind))
    return std::nullopt;
  return Kind;
}

} // namespace

bool TraceReader::readLine(std::string_view Raw, std::string_view Line) {
  auto columnOf = [&](std::string_view Field) {
    return static_cast<size_t>(Field.data() - Raw.data()) + 1;
  };
  LineFields Fields(Line);

  // Trailing modifiers: @loc (the leftmost wins), volatile, match=N (the
  // rightmost wins).
  Event E;
  std::string_view Loc;
  bool HasMatch = false;
  size_t NumCore = Fields.size();
  while (NumCore > 0) {
    std::string_view Last = Fields[NumCore - 1];
    if (Last[0] == '@') {
      Loc = Last.substr(1);
    } else if (Last == "volatile") {
      E.Volatile = true;
    } else if (startsWith(Last, "match=")) {
      int64_t Match = 0;
      if (!parseInt(Last.substr(6), Match) || Match < 0)
        return fail(columnOf(Last), "malformed match id", Last);
      if (!HasMatch) {
        E.Aux = static_cast<uint32_t>(Match);
        HasMatch = true;
      }
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
  std::optional<EventKind> Named = eventKindNamed(Kind);
  if (!Named)
    return fail(columnOf(Kind),
                "unknown event kind '" + std::string(Kind) + "'", Kind);
  E.Kind = *Named;
  auto arity = [&](size_t Core, const char *Operands) {
    if (NumCore == Core)
      return true;
    return fail(columnOf(Kind),
                "expected '" + std::string(Kind) + " <thread>" + Operands +
                    "'",
                Kind);
  };
  switch (E.Kind) {
  case EventKind::Read:
  case EventKind::Write: {
    if (!arity(4, " <var> <value>"))
      return false;
    int64_t Value = 0;
    if (!parseInt(Fields[3], Value))
      return fail(columnOf(Fields[3]), "malformed value", Fields[3]);
    E.Data = Value;
    break;
  }
  case EventKind::Acquire:
  case EventKind::Release:
  case EventKind::Notify:
    if (!arity(3, " <lock>"))
      return false;
    break;
  case EventKind::Fork:
  case EventKind::Join:
    if (!arity(3, " <child>"))
      return false;
    break;
  default:
    if (!arity(2, ""))
      return false;
    break;
  }

  // Interning happens last, in the historical order (thread, location,
  // target), so well-formed traces get byte-identical name tables.
  Trace::Mark Before = T.mark();
  E.Tid = T.internThread(Fields[1]);
  E.Loc = Loc.empty() ? UnknownLoc : T.internLoc(Loc);
  switch (E.Kind) {
  case EventKind::Read:
  case EventKind::Write: {
    E.Target = T.internVar(Fields[2]);
    if (E.Target == Before.Vars && !Inits.empty()) {
      auto It = Inits.find(Fields[2]);
      if (It != Inits.end())
        T.setInitialValue(E.Target, It->second);
    }
    break;
  }
  case EventKind::Acquire:
  case EventKind::Release:
  case EventKind::Notify:
    E.Target = T.internLock(Fields[2]);
    break;
  case EventKind::Fork:
  case EventKind::Join:
    E.Target = T.internThread(Fields[2]);
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
  // One event per line at most.
  size_t Lines = 1;
  for (size_t At = Text.find('\n'); At != std::string_view::npos;
       At = Text.find('\n', At + 1))
    ++Lines;
  Reader.trace().reserve(Lines);
  if (!Reader.read(Text)) {
    Error = Reader.error();
    return std::nullopt;
  }
  if (Stats)
    Stats->SkippedEvents = Reader.skippedEvents();
  return std::move(Reader.trace());
}
