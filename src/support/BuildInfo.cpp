//===- support/BuildInfo.cpp - Run metadata for JSON outputs ----------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/BuildInfo.h"

#include "support/Stats.h"
#include "support/Version.h"

#include <ctime>

using namespace rvp;

const char *rvp::gitSha() { return RVP_GIT_SHA; }

std::string rvp::isoTimestampUtc() {
  std::time_t Now = std::time(nullptr);
  std::tm Utc{};
  gmtime_r(&Now, &Utc);
  char Buf[32];
  std::strftime(Buf, sizeof(Buf), "%Y-%m-%dT%H:%M:%SZ", &Utc);
  return Buf;
}

void rvp::appendRunMetadata(JsonObject &Json) {
  Json.field("schema_version", static_cast<uint64_t>(StatsSchemaVersion))
      .field("git_sha", gitSha())
      .field("timestamp", isoTimestampUtc());
}
