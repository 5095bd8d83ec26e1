//===- trace/TraceIO.cpp - Trace text serialization ------------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceIO.h"

#include "support/Compiler.h"
#include "support/FaultInjector.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>

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

namespace {

static_assert(std::endian::native == std::endian::little ||
                  std::endian::native == std::endian::big,
              "the line scanner reads words in one of the two byte orders");

/// \p Byte in every byte of a word.
constexpr uint64_t broadcast(uint8_t Byte) {
  return 0x0101010101010101ull * Byte;
}

/// The high bit of every zero byte of \p Word, and no other bit: no carry
/// crosses a byte, so no flag is a borrow from a neighbour.
constexpr uint64_t zeroBytes(uint64_t Word) {
  constexpr uint64_t Low7 = broadcast(0x7F);
  return ~(((Word & Low7) + Low7) | Word | Low7);
}

/// The offset, in memory order, of the first byte \p Flags marks.
int firstFlagged(uint64_t Flags) {
  if constexpr (std::endian::native == std::endian::little)
    return std::countr_zero(Flags) >> 3;
  else
    return std::countl_zero(Flags) >> 3;
}

/// \p Flags without the mark of its first byte in memory order.
uint64_t dropFirst(uint64_t Flags) {
  if constexpr (std::endian::native == std::endian::little)
    return Flags & (Flags - 1);
  else
    return Flags & ~((uint64_t(1) << 63) >> std::countl_zero(Flags));
}

/// Scans the line that starts at \p P, eight bytes at a time, for the
/// spaces that separate its fields and the newline that ends it. \p Fields
/// receives its runs of bytes other than a space (a tab or any other byte
/// belongs to its field). Returns the line's end: its newline, or \p End.
const char *splitLine(const char *P, const char *End,
                      std::vector<std::string_view> &Fields) {
  Fields.clear();
  const char *Field = P;
  auto cut = [&](const char *Sep) {
    if (Sep != Field)
      Fields.emplace_back(Field, static_cast<size_t>(Sep - Field));
    Field = Sep + 1;
  };
  for (const char *At = P;; At += 8) {
    size_t Left = static_cast<size_t>(End - At);
    // The sub-word tail is padded with zero bytes, which match neither.
    uint64_t Word = 0;
    if (RVP_LIKELY(Left >= 8))
      std::memcpy(&Word, At, 8);
    else
      std::memcpy(&Word, At, Left);
    for (uint64_t Flags = zeroBytes(Word ^ broadcast(' ')) |
                          zeroBytes(Word ^ broadcast('\n'));
         Flags; Flags = dropFirst(Flags)) {
      const char *Sep = At + firstFlagged(Flags);
      cut(Sep);
      if (*Sep == '\n')
        return Sep;
    }
    if (Left <= 8) {
      cut(End);
      return End;
    }
  }
}

/// Trims \p Raw and clips \p Fields, its fields, to the trimmed line: a tab
/// or other whitespace at either end belongs to no field.
std::string_view trimFields(std::string_view Raw,
                            std::vector<std::string_view> &Fields) {
  std::string_view Line = trim(Raw);
  const char *Begin = Line.data(), *End = Begin + Line.size();
  size_t Kept = 0;
  for (std::string_view Field : Fields) {
    const char *From = std::max(Field.data(), Begin);
    const char *To = std::min(Field.data() + Field.size(), End);
    if (From < To)
      Fields[Kept++] = {From, static_cast<size_t>(To - From)};
  }
  Fields.resize(Kept);
  return Line;
}

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

/// Reserves room in \p T for the events of \p Bytes of trace text, from
/// the line density of \p Sample, the text's first block.
void reserveEvents(Trace &T, uint64_t Bytes, std::string_view Sample) {
  if (Sample.empty())
    return;
  uint64_t Lines = std::count(Sample.begin(), Sample.end(), '\n') + 1;
  uint64_t Events = Bytes * Lines / Sample.size();
  // The rest of the text may be denser than its first block.
  if (Sample.size() < Bytes)
    Events += Events / 8;
  T.reserve(Events);
}

} // namespace

bool TraceReader::read(std::string_view Text) {
  const char *P = Text.data(), *End = P + Text.size();
  while (ok() && P != End) {
    const char *LineEnd = splitLine(P, End, Fields);
    std::string_view Raw(P, static_cast<size_t>(LineEnd - P));
    P = LineEnd == End ? End : LineEnd + 1;
    ++LineNo;
    std::string_view Line = Raw;
    if (!Raw.empty() && (isSpace(Raw.front()) || isSpace(Raw.back())))
      Line = trimFields(Raw, Fields);
    if (Line.empty() || Line[0] == '#')
      continue;
    if (!readLine(Raw) && Opts.SkipBadEvents) {
      Error.clear();
      ++Skipped;
    }
  }
  return ok();
}

bool TraceReader::readLine(std::string_view Raw) {
  auto columnOf = [&](std::string_view Field) {
    return static_cast<size_t>(Field.data() - Raw.data()) + 1;
  };

  // Trailing modifiers: @loc (the leftmost wins), volatile, match=N (the
  // rightmost wins), told apart by their first byte.
  Event E;
  std::string_view Loc;
  bool HasMatch = false;
  size_t NumCore = Fields.size();
  while (NumCore > 0) {
    std::string_view Last = Fields[NumCore - 1];
    if (Last[0] == '@') {
      Loc = Last.substr(1);
    } else if (Last[0] == 'v' && Last == "volatile") {
      E.Volatile = true;
    } else if (Last[0] == 'm' && startsWith(Last, "match=")) {
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
  reserveEvents(Reader.trace(), Text.size(),
                Text.substr(0, DefaultTraceBlockBytes));
  if (!Reader.read(Text)) {
    Error = Reader.error();
    return std::nullopt;
  }
  if (Stats)
    Stats->SkippedEvents = Reader.skippedEvents();
  return std::move(Reader.trace());
}

bool rvp::readTraceFile(const std::string &Path, TraceReader &Reader,
                        size_t BlockSize) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  // Injected read failures (docs/ROBUSTNESS.md) on a regular file: a short
  // read stops at half its size, a garble corrupts the byte in the middle
  // of what is read. A pipe has no size to take half of.
  bool ShortRead = FaultInjector::shouldFail(faults::TraceShortRead);
  bool Garble = FaultInjector::shouldFail(faults::TraceGarble);
  std::error_code SizeError;
  uint64_t Size = std::filesystem::file_size(Path, SizeError);
  uint64_t Limit = UINT64_MAX, GarbleAt = UINT64_MAX;
  if (!SizeError) {
    if (ShortRead)
      Size = Limit = Size / 2;
    if (Garble && Size > 0)
      GarbleAt = Size / 2;
  }

  // Buf holds the unfinished last line of what was read (Held bytes),
  // then the next block.
  std::string Buf;
  size_t Held = 0;
  uint64_t Offset = 0;
  while (Reader.ok() && Offset < Limit) {
    size_t Want =
        static_cast<size_t>(std::min<uint64_t>(BlockSize, Limit - Offset));
    if (Buf.size() < Held + Want)
      Buf.resize(Held + Want);
    In.read(Buf.data() + Held, static_cast<std::streamsize>(Want));
    size_t Got = static_cast<size_t>(In.gcount());
    if (Got == 0)
      break;
    if (GarbleAt - Offset < Got)
      Buf[Held + (GarbleAt - Offset)] = '\x01';
    if (Offset == 0 && !SizeError)
      reserveEvents(Reader.trace(), Size, {Buf.data(), Got});
    Offset += Got;
    std::string_view Block(Buf.data(), Held + Got);
    // The held bytes have no newline: only the new ones are searched, so
    // a long line costs linear time however many blocks it spans.
    size_t Cut = Block.substr(Held).rfind('\n');
    if (Cut == std::string_view::npos) {
      Held = Block.size();
      continue;
    }
    Cut += Held;
    Reader.read(Block.substr(0, Cut + 1));
    Held = Block.size() - Cut - 1;
    std::memmove(Buf.data(), Buf.data() + Cut + 1, Held);
  }
  if (Held > 0)
    Reader.read({Buf.data(), Held});
  return !In.bad();
}
