//===- trace/Trace.cpp - Execution traces ---------------------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "trace/Trace.h"

#include "support/Compiler.h"

#include <algorithm>
#include <charconv>
#include <cstring>

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

namespace {

constexpr size_t HeadBytes = 16;

uint64_t load64(const char *P) {
  uint64_t W;
  std::memcpy(&W, P, sizeof(W));
  return W;
}

uint64_t load32(const char *P) {
  uint32_t W;
  std::memcpy(&W, P, sizeof(W));
  return W;
}

/// One multiply-and-fold round of the name hash.
uint64_t mix(uint64_t H, uint64_t W) {
  H = (H ^ W) * 0x9E3779B97F4A7C15ull;
  return H ^ (H >> 32);
}

} // namespace

Trace::NameTable::Key Trace::NameTable::keyOf(std::string_view Name) {
  const char *P = Name.data();
  size_t N = Name.size();
  Key K{{0, 0}, 0};
  // Overlapping loads cover every byte of a short name without reading
  // past it.
  if (N >= 8) {
    K.Head[0] = load64(P);
    K.Head[1] = load64(P + (N >= HeadBytes ? 8 : N - 8));
  } else if (N >= 4) {
    K.Head[0] = load32(P) << 32 | load32(P + N - 4);
  } else if (N > 0) {
    K.Head[0] = uint64_t(uint8_t(P[0])) << 16 |
                uint64_t(uint8_t(P[N / 2])) << 8 | uint8_t(P[N - 1]);
  }
  uint64_t H = mix(mix(N, K.Head[0]), K.Head[1]);
  for (size_t I = HeadBytes; I < N; I += 8)
    H = mix(H, load64(P + std::min(I, N - 8)));
  K.Hash = H;
  return K;
}

size_t Trace::NameTable::slotOf(std::string_view Name, const Key &K) const {
  size_t Mask = Slots.size() - 1;
  for (size_t I = K.Hash & Mask;; I = (I + 1) & Mask) {
    const Slot &S = Slots[I];
    if (S.Id == Empty ||
        (S.Hash == K.Hash >> 32 && S.Length == Name.size() &&
         S.Head[0] == K.Head[0] && S.Head[1] == K.Head[1] &&
         (Name.size() <= HeadBytes ||
          std::memcmp(Names[S.Id].data() + HeadBytes, Name.data() + HeadBytes,
                      Name.size() - HeadBytes) == 0)))
      return I;
  }
}

uint32_t Trace::NameTable::intern(std::string_view Name) {
  Key K = keyOf(Name);
  if (!Slots.empty())
    if (const Slot &S = Slots[slotOf(Name, K)]; S.Id != Empty)
      return S.Id;
  uint32_t Id = size();
  Names.emplace_back(Name);
  if (2 * Names.size() <= Slots.size()) {
    place(Id, K);
    return Id;
  }
  // Grow to keep the table at most half full, re-inserting in id order.
  Slots.assign(std::max<size_t>(16, 2 * Slots.size()), Slot());
  for (uint32_t Old = 0; Old <= Id; ++Old)
    place(Old, keyOf(Names[Old]));
  return Id;
}

void Trace::NameTable::place(uint32_t Id, const Key &K) {
  const std::string &Name = Names[Id];
  Slot &S = Slots[slotOf(Name, K)];
  assert(S.Id == Empty && "name interned twice");
  S = {static_cast<uint32_t>(K.Hash >> 32), Id, Name.size(),
       {K.Head[0], K.Head[1]}};
}

void Trace::NameTable::truncate(uint32_t Keep) {
  for (uint32_t Id = size(); Id-- > Keep;) {
    const std::string &Name = Names[Id];
    Slots[slotOf(Name, keyOf(Name))].Id = Empty;
    Names.pop_back();
  }
}

void Trace::rollback(const Mark &M) {
  ThreadNames.truncate(M.Threads);
  VarNames.truncate(M.Vars);
  LockNames.truncate(M.Locks);
  LocNames.truncate(M.Locs);
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
