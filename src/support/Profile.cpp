//===- support/Profile.cpp - Chrome/Perfetto trace export -------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Profile.h"

#include "support/Stats.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <fstream>

using namespace rvp;

namespace {

/// Per-thread tid cache. Keyed by the owning collector's serial, not its
/// address, so a tid assigned by one run is never reused against a
/// different collector in a later run, even one built where the first
/// lived (the unit tests create several collectors on one thread).
struct ThreadSlot {
  uint64_t Owner = 0; ///< serials start at 1
  uint32_t Tid = 0;
};

thread_local ThreadSlot CurrentSlot;

} // namespace

uint64_t ProfileCollector::nextSerial() {
  static std::atomic<uint64_t> Next{1};
  return Next.fetch_add(1, std::memory_order_relaxed);
}

uint32_t ProfileCollector::currentTid() {
  if (CurrentSlot.Owner != Serial) {
    CurrentSlot.Owner = Serial;
    CurrentSlot.Tid = NextTid.fetch_add(1, std::memory_order_relaxed);
  }
  return CurrentSlot.Tid;
}

void ProfileCollector::record(ProfileEvent Event) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Events.push_back(std::move(Event));
}

void ProfileCollector::span(const char *Name, const char *Category,
                            uint64_t StartUs, uint64_t DurUs) {
  ProfileEvent E;
  E.Name = Name;
  E.Category = Category;
  E.Phase = 'X';
  E.TsUs = StartUs;
  E.DurUs = DurUs;
  E.Tid = currentTid();
  record(std::move(E));
}

void ProfileCollector::counter(const char *Name, double Value) {
  ProfileEvent E;
  E.Name = Name;
  E.Category = "metric";
  E.Phase = 'C';
  E.TsUs = nowUs();
  E.Tid = currentTid();
  E.Value = Value;
  record(std::move(E));
}

void ProfileCollector::instant(const char *Name, const char *Category) {
  ProfileEvent E;
  E.Name = Name;
  E.Category = Category;
  E.Phase = 'i';
  E.TsUs = nowUs();
  E.Tid = currentTid();
  record(std::move(E));
}

void ProfileCollector::setThreadName(const std::string &Name) {
  uint32_t Tid = currentTid();
  std::lock_guard<std::mutex> Lock(Mutex);
  ThreadNames[Tid] = Name;
}

size_t ProfileCollector::eventCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Events.size();
}

std::string ProfileCollector::toJson() const {
  std::vector<ProfileEvent> Sorted;
  std::map<uint32_t, std::string> Names;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Sorted = Events;
    Names = ThreadNames;
  }
  // Stable: events with equal stamps keep their recording order.
  std::stable_sort(Sorted.begin(), Sorted.end(),
                   [](const ProfileEvent &A, const ProfileEvent &B) {
                     return A.TsUs < B.TsUs;
                   });
  // Any thread that recorded an event gets a track name.
  for (const ProfileEvent &E : Sorted)
    if (!Names.count(E.Tid))
      Names[E.Tid] = formatString("thread-%u", E.Tid);

  std::string Out;
  Out.reserve(Sorted.size() * 96 + 256);
  Out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool First = true;
  auto append = [&](const std::string &Entry) {
    if (!First)
      Out += ",";
    First = false;
    Out += "\n";
    Out += Entry;
  };
  for (const auto &[Tid, Name] : Names)
    append(formatString("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                        "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                        Tid, jsonEscape(Name).c_str()));
  for (const ProfileEvent &E : Sorted) {
    switch (E.Phase) {
    case 'X':
      append(formatString("{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"%s\","
                          "\"ts\":%llu,\"dur\":%llu,\"pid\":1,\"tid\":%u}",
                          jsonEscape(E.Name).c_str(), E.Category,
                          static_cast<unsigned long long>(E.TsUs),
                          static_cast<unsigned long long>(E.DurUs), E.Tid));
      break;
    case 'C':
      append(formatString("{\"ph\":\"C\",\"name\":\"%s\",\"cat\":\"%s\","
                          "\"ts\":%llu,\"pid\":1,\"tid\":%u,"
                          "\"args\":{\"value\":%s}}",
                          jsonEscape(E.Name).c_str(), E.Category,
                          static_cast<unsigned long long>(E.TsUs), E.Tid,
                          jsonNumber(E.Value).c_str()));
      break;
    case 'i':
      append(formatString("{\"ph\":\"i\",\"name\":\"%s\",\"cat\":\"%s\","
                          "\"ts\":%llu,\"pid\":1,\"tid\":%u,\"s\":\"t\"}",
                          jsonEscape(E.Name).c_str(), E.Category,
                          static_cast<unsigned long long>(E.TsUs), E.Tid));
      break;
    default:
      break;
    }
  }
  Out += "\n]}\n";
  return Out;
}

bool ProfileCollector::writeFile(const std::string &Path,
                                 std::string &Error) const {
  std::ofstream Out(Path, std::ios::binary);
  if (!Out) {
    Error = formatString("cannot open profile output '%s'", Path.c_str());
    return false;
  }
  Out << toJson();
  Out.flush();
  if (!Out) {
    Error = formatString("failed writing profile output '%s'", Path.c_str());
    return false;
  }
  return true;
}
