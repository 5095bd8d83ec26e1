//===- trace/Trace.cpp - Execution traces ---------------------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "trace/Trace.h"

#include "support/Compiler.h"

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

uint32_t Trace::internName(std::string_view Name,
                           std::vector<std::string> &Names, NameMap &Map) {
  auto It = Map.find(Name);
  if (It != Map.end())
    return It->second;
  uint32_t Id = static_cast<uint32_t>(Names.size());
  Names.emplace_back(Name);
  Map.emplace(Names.back(), Id);
  return Id;
}

ThreadId Trace::internThread(std::string_view Name) {
  ThreadId Id = internName(Name, ThreadNames, ThreadMap);
  ByThread.resize(ThreadNames.size());
  return Id;
}
VarId Trace::internVar(std::string_view Name) {
  VarId Id = internName(Name, VarNames, VarMap);
  ByVar.resize(VarNames.size());
  return Id;
}
LockId Trace::internLock(std::string_view Name) {
  LockId Id = internName(Name, LockNames, LockMap);
  ByLock.resize(LockNames.size());
  return Id;
}
LocId Trace::internLoc(std::string_view Name) {
  return internName(Name, LocNames, LocMap);
}

void Trace::forgetNames(uint32_t Keep, std::vector<std::string> &Names,
                        NameMap &Map) {
  for (size_t Id = Keep; Id < Names.size(); ++Id)
    Map.erase(Names[Id]);
  Names.resize(std::min<size_t>(Keep, Names.size()));
}

Trace::Mark Trace::mark() const {
  return {numThreads(), numVars(), numLocks(),
          static_cast<uint32_t>(LocNames.size())};
}

void Trace::rollback(const Mark &M) {
  forgetNames(M.Threads, ThreadNames, ThreadMap);
  forgetNames(M.Vars, VarNames, VarMap);
  forgetNames(M.Locks, LockNames, LockMap);
  forgetNames(M.Locs, LocNames, LocMap);
  // No event names the forgotten ids, so their index entries are empty.
  ByThread.resize(ThreadNames.size());
  ByVar.resize(VarNames.size());
  ByLock.resize(LockNames.size());
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
  assert(E.Tid < numThreads() && "intern the thread first");
  EventId Id = static_cast<EventId>(Events.size());
  Events.push_back(E);
  ByThread[E.Tid].Events.push_back(Id);
  switch (E.Kind) {
  case EventKind::Read:
  case EventKind::Write:
    assert(E.Target < numVars() && "intern the variable first");
    ByVar[E.Target].push_back(Id);
    break;
  case EventKind::Acquire:
    pairAcquire(Id, E);
    break;
  case EventKind::Release:
    pairRelease(Id, E);
    break;
  case EventKind::Fork:
    assert(E.Target < numThreads() && "intern the child first");
    ByThread[E.Target].Fork = Id;
    break;
  case EventKind::Join:
    assert(E.Target < numThreads() && "intern the child first");
    ByThread[E.Target].Join = Id;
    break;
  case EventKind::Begin:
    ByThread[E.Tid].Begin = Id;
    break;
  case EventKind::End:
    ByThread[E.Tid].End = Id;
    break;
  case EventKind::Notify:
    assert(E.Target < numLocks() && "intern the lock first");
    if (E.Aux != 0)
      NotifyByMatch[E.Aux] = Id;
    break;
  case EventKind::Branch:
    break;
  case EventKind::Wait:
    RVP_UNREACHABLE("traces store wait() in lowered release/acquire form");
  }
  return Id;
}

// Pairs are pushed at their first event (the acquire, or a release without
// one), so each lock's list stays in trace order of that event.

void Trace::pairAcquire(EventId Id, const Event &E) {
  assert(E.Target < numLocks() && "intern the lock first");
  LockIndex &L = ByLock[E.Target];
  auto Open = std::find_if(L.Open.begin(), L.Open.end(),
                           [&](const auto &O) { return O.first == E.Tid; });
  if (Open != L.Open.end()) {
    // The holder acquires again: its earlier acquire pairs with nothing.
    uint32_t Dropped = Open->second;
    L.Pairs.erase(L.Pairs.begin() + Dropped);
    L.Open.erase(Open);
    for (auto &[Tid, Index] : L.Open)
      if (Index > Dropped)
        --Index;
  }
  L.Open.emplace_back(E.Tid, static_cast<uint32_t>(L.Pairs.size()));
  L.Pairs.push_back({Id, InvalidEvent, E.Tid, E.Target});
}

void Trace::pairRelease(EventId Id, const Event &E) {
  assert(E.Target < numLocks() && "intern the lock first");
  LockIndex &L = ByLock[E.Target];
  auto Open = std::find_if(L.Open.begin(), L.Open.end(),
                           [&](const auto &O) { return O.first == E.Tid; });
  if (Open == L.Open.end()) {
    L.Pairs.push_back({InvalidEvent, Id, E.Tid, E.Target});
    return;
  }
  L.Pairs[Open->second].ReleaseId = Id;
  L.Open.erase(Open);
}

std::span<const LockPair> Trace::lockPairsStartingIn(LockId Lock,
                                                     Span S) const {
  const std::vector<LockPair> &Pairs = ByLock[Lock].Pairs;
  auto StartsBefore = [](const LockPair &P, EventId Id) {
    return (P.AcquireId != InvalidEvent ? P.AcquireId : P.ReleaseId) < Id;
  };
  auto Begin =
      std::lower_bound(Pairs.begin(), Pairs.end(), S.Begin, StartsBefore);
  return {Begin, std::lower_bound(Begin, Pairs.end(), S.End, StartsBefore)};
}

std::span<const LockPair> Trace::lockPairsTouching(LockId Lock,
                                                   Span S) const {
  std::span<const LockPair> Starting = lockPairsStartingIn(Lock, S);
  const LockPair *First = Starting.data();
  if (First != ByLock[Lock].Pairs.data() && S.contains(First[-1].ReleaseId))
    --First;
  return {First, Starting.data() + Starting.size()};
}

EventId Trace::notifyOfMatch(uint32_t Aux) const {
  auto It = NotifyByMatch.find(Aux);
  return It == NotifyByMatch.end() ? InvalidEvent : It->second;
}

TraceStats Trace::stats(Span S) const {
  TraceStats Stats;
  std::vector<bool> SeenThread(numThreads(), false);
  for (EventId Id = S.Begin; Id < S.End && Id < Events.size(); ++Id) {
    const Event &E = Events[Id];
    ++Stats.Events;
    if (!SeenThread[E.Tid]) {
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
