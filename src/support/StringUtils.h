//===- support/StringUtils.h - String helpers -------------------*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Minimal string utilities shared by the trace serializer, the MiniRV
/// lexer, and the command-line front ends, including the one file reader
/// the tools load their inputs with.
///
//===----------------------------------------------------------------------===//

#ifndef RVP_SUPPORT_STRINGUTILS_H
#define RVP_SUPPORT_STRINGUTILS_H

#include <cctype>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace rvp {

/// Splits \p Text on \p Sep; empty fields are kept.
std::vector<std::string_view> split(std::string_view Text, char Sep);

/// std::isspace, asked only of a byte that is not printable ASCII: no
/// locale makes one of '!'..'~' whitespace.
inline bool isSpace(char C) {
  unsigned char Byte = static_cast<unsigned char>(C);
  return (Byte <= ' ' || Byte > '~') && std::isspace(Byte);
}

/// Removes leading and trailing whitespace (isSpace).
std::string_view trim(std::string_view Text);

/// Returns true if \p Text begins with \p Prefix.
bool startsWith(std::string_view Text, std::string_view Prefix);

/// Joins \p Parts with \p Sep.
std::string join(const std::vector<std::string> &Parts,
                 std::string_view Sep);

/// Parses a signed 64-bit decimal integer. Returns false on any malformed
/// input (empty, overflow, trailing junk).
bool parseInt(std::string_view Text, int64_t &Out);

/// A std::string hash that also takes a std::string_view: with
/// std::equal_to<>, an unordered container keyed by std::string is
/// searched from a view without building a string.
struct StringHash {
  using is_transparent = void;
  size_t operator()(std::string_view Text) const {
    return std::hash<std::string_view>()(Text);
  }
};

/// Replaces \p Out with the contents of the file at \p Path, read straight
/// into the string: a regular file in one read of its size, anything else
/// (a pipe, a FIFO) in blocks until end of file. False when the file cannot
/// be opened or a read fails.
bool readFile(const std::string &Path, std::string &Out);

/// Writes a `--stats-json` object \p Json, plus a trailing newline, to
/// \p Path; "-" means stdout, where a `##rvp:stats-json` marker line
/// precedes it so consumers can split the combined stream
/// (docs/OBSERVABILITY.md). False, after an error on stderr, when the
/// file cannot be written.
bool writeStatsJson(const std::string &Path, const std::string &Json);

/// printf-style formatting into a std::string.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace rvp

#endif // RVP_SUPPORT_STRINGUTILS_H
