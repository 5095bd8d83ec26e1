//===- trace/Trace.cpp - Execution traces ---------------------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "trace/Trace.h"

#include "support/Compiler.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <charconv>

using namespace rvp;

const char *rvp::eventKindName(EventKind Kind) {
  switch (Kind) {
  case EventKind::Begin:
    return "begin";
  case EventKind::End:
    return "end";
  case EventKind::Read:
    return "read";
  case EventKind::Write:
    return "write";
  case EventKind::Acquire:
    return "acquire";
  case EventKind::Release:
    return "release";
  case EventKind::Fork:
    return "fork";
  case EventKind::Join:
    return "join";
  case EventKind::Branch:
    return "branch";
  case EventKind::Wait:
    return "wait";
  case EventKind::Notify:
    return "notify";
  }
  RVP_UNREACHABLE("unknown event kind");
}

std::string rvp::toString(const Event &E) {
  std::string Out;
  appendEvent(Out, E);
  return Out;
}

void rvp::appendEvent(std::string &Out, const Event &E) {
  auto number = [&](auto V) {
    char Buf[24];
    Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
  };
  Out += eventKindName(E.Kind);
  Out += "(t";
  number(E.Tid);
  switch (E.Kind) {
  case EventKind::Read:
  case EventKind::Write:
    Out += ", v";
    number(E.Target);
    Out += ", ";
    number(static_cast<long long>(E.Data));
    Out += E.Volatile ? ") volatile" : ")";
    return;
  case EventKind::Acquire:
  case EventKind::Release:
  case EventKind::Notify:
    Out += ", l";
    number(E.Target);
    Out += ')';
    return;
  case EventKind::Fork:
  case EventKind::Join:
    Out += ", t";
    number(E.Target);
    Out += ')';
    return;
  case EventKind::Begin:
  case EventKind::End:
  case EventKind::Branch:
  case EventKind::Wait:
    Out += ')';
    return;
  }
  RVP_UNREACHABLE("unknown event kind");
}

uint32_t Trace::internName(const std::string &Name,
                           std::vector<std::string> &Names,
                           std::unordered_map<std::string, uint32_t> &Map) {
  auto It = Map.find(Name);
  if (It != Map.end())
    return It->second;
  uint32_t Id = static_cast<uint32_t>(Names.size());
  Names.push_back(Name);
  Map.emplace(Name, Id);
  return Id;
}

ThreadId Trace::internThread(const std::string &Name) {
  return internName(Name, ThreadNames, ThreadMap);
}
VarId Trace::internVar(const std::string &Name) {
  return internName(Name, VarNames, VarMap);
}
LockId Trace::internLock(const std::string &Name) {
  return internName(Name, LockNames, LockMap);
}
LocId Trace::internLoc(const std::string &Name) {
  return internName(Name, LocNames, LocMap);
}

void Trace::forgetNames(uint32_t Keep, std::vector<std::string> &Names,
                        std::unordered_map<std::string, uint32_t> &Map) {
  for (size_t Id = Keep; Id < Names.size(); ++Id)
    Map.erase(Names[Id]);
  Names.resize(std::min<size_t>(Keep, Names.size()));
}

Trace::Mark Trace::mark() const {
  return {Events.size(), numThreads(), numVars(), numLocks(),
          static_cast<uint32_t>(LocNames.size())};
}

void Trace::rollback(const Mark &M) {
  IsFinalized = false;
  Events.resize(std::min<uint64_t>(M.Events, Events.size()));
  forgetNames(M.Threads, ThreadNames, ThreadMap);
  forgetNames(M.Vars, VarNames, VarMap);
  forgetNames(M.Locks, LockNames, LockMap);
  forgetNames(M.Locs, LocNames, LocMap);
  // Only variables interned since the mark can have gained an entry.
  if (InitValues.size() > M.Vars)
    InitValues.resize(M.Vars);
}

void Trace::setInitialValue(VarId Var, Value V) {
  if (InitValues.size() <= Var)
    InitValues.resize(Var + 1, 0);
  InitValues[Var] = V;
}

EventId Trace::append(const Event &E) {
  assert(E.Kind != EventKind::Wait &&
         "traces store wait() in lowered release/acquire form");
  IsFinalized = false;
  Events.push_back(E);
  return static_cast<EventId>(Events.size() - 1);
}

/// Extends \p Names with synthesized entries so ids up to \p Count are
/// printable even when the trace was built without interned names.
static void padNames(std::vector<std::string> &Names, uint32_t Count,
                     const char *Prefix) {
  while (Names.size() < Count)
    Names.push_back(formatString("%s%zu", Prefix, Names.size()));
}

void Trace::finalize() {
  uint32_t MaxThread = numThreads();
  uint32_t MaxVar = numVars();
  uint32_t MaxLock = numLocks();
  for (const Event &E : Events) {
    MaxThread = std::max(MaxThread, E.Tid + 1);
    if (E.Kind == EventKind::Fork || E.Kind == EventKind::Join)
      MaxThread = std::max(MaxThread, E.Target + 1);
    if (E.isAccess())
      MaxVar = std::max(MaxVar, E.Target + 1);
    if (E.isAcquire() || E.isRelease() || E.Kind == EventKind::Notify)
      MaxLock = std::max(MaxLock, E.Target + 1);
  }
  padNames(ThreadNames, MaxThread, "t");
  padNames(VarNames, MaxVar, "v");
  padNames(LockNames, MaxLock, "l");

  ByThread.assign(MaxThread, {});
  ByVar.assign(MaxVar, {});
  ByLock.assign(MaxLock, {});
  ForkEvent.assign(MaxThread, InvalidEvent);
  BeginEvent.assign(MaxThread, InvalidEvent);
  EndEvent.assign(MaxThread, InvalidEvent);
  JoinEvent.assign(MaxThread, InvalidEvent);
  NotifyByMatch.clear();

  // Pending (unmatched) acquire per lock per thread, for pair building.
  std::vector<std::unordered_map<ThreadId, EventId>> Pending(MaxLock);

  for (EventId Id = 0; Id < Events.size(); ++Id) {
    const Event &E = Events[Id];
    ByThread[E.Tid].push_back(Id);
    switch (E.Kind) {
    case EventKind::Read:
    case EventKind::Write:
      ByVar[E.Target].push_back(Id);
      break;
    case EventKind::Acquire:
      Pending[E.Target][E.Tid] = Id;
      break;
    case EventKind::Release: {
      auto &PerThread = Pending[E.Target];
      auto It = PerThread.find(E.Tid);
      LockPair Pair;
      Pair.ReleaseId = Id;
      Pair.Tid = E.Tid;
      Pair.Lock = E.Target;
      if (It != PerThread.end()) {
        Pair.AcquireId = It->second;
        PerThread.erase(It);
      }
      ByLock[E.Target].push_back(Pair);
      break;
    }
    case EventKind::Fork:
      ForkEvent[E.Target] = Id;
      break;
    case EventKind::Join:
      JoinEvent[E.Target] = Id;
      break;
    case EventKind::Begin:
      BeginEvent[E.Tid] = Id;
      break;
    case EventKind::End:
      EndEvent[E.Tid] = Id;
      break;
    case EventKind::Notify:
      if (E.Aux != 0)
        NotifyByMatch[E.Aux] = Id;
      break;
    case EventKind::Branch:
      break;
    case EventKind::Wait:
      RVP_UNREACHABLE("wait events are lowered before recording");
    }
  }

  // Acquires still held at the end of the trace become half-open pairs.
  for (LockId Lock = 0; Lock < MaxLock; ++Lock) {
    for (const auto &[Tid, AcqId] : Pending[Lock]) {
      LockPair Pair;
      Pair.AcquireId = AcqId;
      Pair.Tid = Tid;
      Pair.Lock = Lock;
      ByLock[Lock].push_back(Pair);
    }
    // Keep pairs sorted by acquire position for deterministic iteration.
    std::sort(ByLock[Lock].begin(), ByLock[Lock].end(),
              [](const LockPair &A, const LockPair &B) {
                EventId KeyA =
                    A.AcquireId != InvalidEvent ? A.AcquireId : A.ReleaseId;
                EventId KeyB =
                    B.AcquireId != InvalidEvent ? B.AcquireId : B.ReleaseId;
                return KeyA < KeyB;
              });
  }

  IsFinalized = true;
}

EventId Trace::notifyOfMatch(uint32_t Aux) const {
  assert(IsFinalized && "finalize() the trace first");
  auto It = NotifyByMatch.find(Aux);
  return It == NotifyByMatch.end() ? InvalidEvent : It->second;
}

TraceStats Trace::stats(Span S) const {
  TraceStats Stats;
  std::vector<bool> SeenThread(ByThread.empty() ? 64 : ByThread.size(),
                               false);
  for (EventId Id = S.Begin; Id < S.End && Id < Events.size(); ++Id) {
    const Event &E = Events[Id];
    ++Stats.Events;
    if (E.Tid < SeenThread.size() && !SeenThread[E.Tid]) {
      SeenThread[E.Tid] = true;
      ++Stats.Threads;
    }
    if (E.isAccess())
      ++Stats.ReadsWrites;
    else if (E.Kind == EventKind::Branch)
      ++Stats.Branches;
    else
      ++Stats.Syncs;
  }
  return Stats;
}
