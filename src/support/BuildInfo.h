//===- support/BuildInfo.h - Run metadata for JSON outputs ------*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Build and run identity stamped at the top of every machine-readable
/// output (`--stats-json`, bench JSON) so trajectory tooling can key
/// records: a schema version, the configuring checkout's git sha, and an
/// ISO-8601 UTC timestamp. See docs/OBSERVABILITY.md.
///
//===----------------------------------------------------------------------===//

#ifndef RVP_SUPPORT_BUILDINFO_H
#define RVP_SUPPORT_BUILDINFO_H

#include <string>

namespace rvp {

class JsonObject;

/// Version of the machine-readable output schemas (stats JSON, trace
/// events, bench records). Bump when a consumer-visible field changes
/// meaning or disappears; adding fields is not a bump.
inline constexpr unsigned StatsSchemaVersion = 8;

/// Short git sha captured at configure time, "unknown" if git was
/// unavailable.
const char *gitSha();

/// Current wall-clock time as ISO-8601 UTC ("2026-08-08T12:34:56Z").
std::string isoTimestampUtc();

/// Prepends the standard identity triple to \p Json: schema_version,
/// git_sha, timestamp. Call first so the keys lead the object.
void appendRunMetadata(JsonObject &Json);

} // namespace rvp

#endif // RVP_SUPPORT_BUILDINFO_H
