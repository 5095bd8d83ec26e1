//===- support/StringUtils.cpp - String helpers ---------------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"

#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>

using namespace rvp;

std::vector<std::string_view> rvp::split(std::string_view Text, char Sep) {
  std::vector<std::string_view> Fields;
  size_t Start = 0;
  for (size_t I = 0; I <= Text.size(); ++I) {
    if (I == Text.size() || Text[I] == Sep) {
      Fields.push_back(Text.substr(Start, I - Start));
      Start = I + 1;
    }
  }
  return Fields;
}

std::string_view rvp::trim(std::string_view Text) {
  size_t Begin = 0;
  size_t End = Text.size();
  while (Begin < End && isSpace(Text[Begin]))
    ++Begin;
  while (End > Begin && isSpace(Text[End - 1]))
    --End;
  return Text.substr(Begin, End - Begin);
}

bool rvp::startsWith(std::string_view Text, std::string_view Prefix) {
  return Text.size() >= Prefix.size() &&
         Text.substr(0, Prefix.size()) == Prefix;
}

std::string rvp::join(const std::vector<std::string> &Parts,
                      std::string_view Sep) {
  std::string Result;
  for (size_t I = 0; I < Parts.size(); ++I) {
    if (I != 0)
      Result += Sep;
    Result += Parts[I];
  }
  return Result;
}

bool rvp::parseInt(std::string_view Text, int64_t &Out) {
  Text = trim(Text);
  if (Text.empty())
    return false;
  bool Negative = false;
  size_t I = 0;
  if (Text[0] == '-' || Text[0] == '+') {
    Negative = Text[0] == '-';
    I = 1;
    if (I == Text.size())
      return false;
  }
  uint64_t Magnitude = 0;
  constexpr uint64_t MaxMagnitude =
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max());
  for (; I < Text.size(); ++I) {
    char C = Text[I];
    if (C < '0' || C > '9')
      return false;
    uint64_t Digit = static_cast<uint64_t>(C - '0');
    if (Magnitude > (MaxMagnitude + (Negative ? 1 : 0) - Digit) / 10)
      return false;
    Magnitude = Magnitude * 10 + Digit;
  }
  // Negate in unsigned arithmetic; C++20 guarantees two's-complement
  // conversion, so INT64_MIN round-trips.
  Out = Negative ? static_cast<int64_t>(0 - Magnitude)
                 : static_cast<int64_t>(Magnitude);
  return true;
}

std::string rvp::formatString(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Needed = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  std::string Result;
  if (Needed > 0) {
    Result.resize(static_cast<size_t>(Needed));
    std::vsnprintf(Result.data(), Result.size() + 1, Fmt, ArgsCopy);
  }
  va_end(ArgsCopy);
  return Result;
}

bool rvp::readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  Out.clear();
  // file_size fails for anything but a regular file; what a short read
  // left, or a file that grew since, is read in blocks below.
  std::error_code Error;
  uintmax_t Size = std::filesystem::file_size(Path, Error);
  if (!Error) {
    Out.resize(Size);
    In.read(Out.data(), static_cast<std::streamsize>(Size));
    Out.resize(static_cast<size_t>(In.gcount()));
    In.clear(In.rdstate() & std::ios::badbit);
  }
  char Block[1 << 16];
  while (In.read(Block, sizeof(Block)) || In.gcount() > 0)
    Out.append(Block, static_cast<size_t>(In.gcount()));
  return !In.bad();
}

bool rvp::writeStatsJson(const std::string &Path, const std::string &Json) {
  if (Path == "-") {
    std::fputs("##rvp:stats-json\n", stdout);
    std::fputs(Json.c_str(), stdout);
    std::fputc('\n', stdout);
    return true;
  }
  std::ofstream File(Path);
  if (!File) {
    std::fprintf(stderr, "error: cannot write '%s'\n", Path.c_str());
    return false;
  }
  File << Json << '\n';
  return true;
}
