//===- rvbench/Harness.cpp - Workloads, results, spans, children ----------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "support/Stats.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

extern char **environ;

using namespace rvp;

namespace rvbench {

const char *propertyName(Property P) {
  switch (P) {
  case Property::Race:
    return "race";
  case Property::Atomicity:
    return "atomicity";
  case Property::Deadlock:
    return "deadlock";
  }
  return "race";
}

uint64_t expectedFindings(const SyntheticSpec &S, Property P) {
  switch (P) {
  case Property::Race:
    return S.expectedRv();
  case Property::Atomicity:
    return S.expectedAtomicity();
  case Property::Deadlock:
    return S.expectedDeadlocks();
  }
  return 0;
}

bool makeWorkload(const Options &O, Workload &W) {
  W = Workload();
  W.Name = O.Workload;
  SyntheticSpec &S = W.Spec;
  const bool Q = O.Quick;
  if (W.Name == "batch-witness") {
    // highcop's shape: many COPs, most of them qc-only pairs the solver
    // refutes, and 40 races whose witnesses dominate detect time.
    S.Workers = 24;
    S.TargetEvents = Q ? 4000 : 40000;
    S.PlainRaces = Q ? 4 : 40;
    S.QcOnlyPairs = Q ? 12 : 120;
    S.BranchPercent = 4;
    S.SyncPercent = 8;
    W.Calls = {{Property::Race, true}};
    W.Panel = 8;
  } else if (W.Name == "batch-scan") {
    // eclipse scaled up so trace ingest and the linear stages lead.
    S = realSystemSpec("eclipse");
    uint32_t K = Q ? 1 : 3;
    S.TargetEvents = Q ? 40000 : 400000;
    S.PlainRaces *= K;
    S.SaidOnlyRaces *= K;
    S.RvOnlyRaces *= K;
    S.QcOnlyPairs *= K;
    S.OrderedPairs *= K;
    W.Calls = {{Property::Race, false}};
    W.Panel = 4;
  } else if (W.Name == "batch-props") {
    S = realSystemSpec("derby");
    S.AtomicityPairs = 20;
    S.DeadlockCycles = 10;
    if (Q) {
      S.TargetEvents = 16000;
      S.PlainRaces = 2;
      S.RvOnlyRaces = 20;
      S.QcOnlyPairs = 8;
      S.OrderedPairs = 12;
      S.AtomicityPairs = 4;
      S.DeadlockCycles = 2;
    }
    W.Calls = {{Property::Atomicity, true}, {Property::Deadlock, true}};
    W.Panel = 12;
  } else if (W.Name == "serve-paced") {
    S = realSystemSpec("eclipse");
    W.Serve = true;
    W.ServeWindow = 1000;
    W.ChunkInterval = Q ? 0.04 : 0.2;
    // One chunk per window and session for the whole run, so the last
    // report arrives about --seconds after the first chunk.
    uint64_t Windows =
        Q ? 12
          : std::max<uint64_t>(10, static_cast<uint64_t>(std::llround(
                                       O.Seconds / W.ChunkInterval)));
    S.TargetEvents = Windows * W.ServeWindow;
    S.AlignWindow = W.ServeWindow;
  } else {
    return false;
  }
  if (Q)
    W.Panel = 1;
  S.Name = W.Name; // each trace's Seed is set per panel slot
  return true;
}

// ---------------------------------------------------------------- results

void Result::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  if (Failures.size() < 8)
    Failures.push_back(What);
}

void Result::metric(std::string Name, double Value, std::string Unit) {
  Metrics.push_back({std::move(Name), Value, std::move(Unit)});
}

void Result::info(std::string Name, double Value) {
  Info.emplace_back(std::move(Name), Value);
}

std::string Result::toJson(const Options &O) const {
  std::string MetricsJson = "{";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    if (I)
      MetricsJson += ",";
    MetricsJson += "\"" + jsonEscape(Metrics[I].Name) + "\":" +
                   JsonObject()
                       .field("value", Metrics[I].Value)
                       .field("unit", Metrics[I].Unit)
                       .str();
  }
  MetricsJson += "}";
  JsonObject InfoJson;
  for (const auto &[Name, Value] : Info)
    InfoJson.field(Name, Value);
  std::string FailuresJson = "[";
  for (size_t I = 0; I < Failures.size(); ++I)
    FailuresJson +=
        (I ? ",\"" : "\"") + jsonEscape(Failures[I]) + "\"";
  FailuresJson += "]";
  return JsonObject()
      .field("workload", O.Workload)
      .field("seed", O.Seed)
      .field("trace", O.Trace)
      .field("quick", O.Quick)
      .field("attempted", Attempted)
      .field("failed", Failed)
      .raw("failures", FailuresJson)
      .raw("metrics", MetricsJson)
      .raw("info", InfoJson.str())
      .str();
}

// -------------------------------------------------------------- utilities

double now() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point Epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - Epoch).count();
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  Out = Buffer.str();
  return true;
}

bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Text;
  return static_cast<bool>(Out.flush());
}

std::string normalizeTiming(const std::string &Report) {
  std::string Out;
  Out.reserve(Report.size());
  size_t I = 0;
  while (I < Report.size()) {
    if (Report.compare(I, 4, " in ") == 0) {
      size_t J = I + 4;
      while (J < Report.size() &&
             (std::isdigit(static_cast<unsigned char>(Report[J])) ||
              Report[J] == '.'))
        ++J;
      if (J < Report.size() && Report[J] == 's') {
        Out += " in Xs";
        I = J + 1;
        continue;
      }
    }
    Out += Report[I++];
  }
  return Out;
}

int64_t headerCount(const std::string &Report) {
  size_t Colon = Report.find(": ");
  size_t Nl = Report.find('\n');
  if (Colon == std::string::npos || (Nl != std::string::npos && Colon > Nl))
    return -1;
  const char *P = Report.c_str() + Colon + 2;
  if (!std::isdigit(static_cast<unsigned char>(*P)))
    return -1;
  return std::strtoll(P, nullptr, 10);
}

// ------------------------------------------------------------------ spans

static std::vector<Span> Spans;

int beginSpan(const std::string &Name, int Parent) {
  Spans.push_back({Name, Parent, now(), 0});
  return static_cast<int>(Spans.size() - 1);
}

double endSpan(int Id) {
  Span &S = Spans[static_cast<size_t>(Id)];
  S.End = now();
  return S.End - S.Start;
}

bool writeSpans(const std::string &Path) {
  std::string Text;
  for (const Span &S : Spans)
    Text += JsonObject()
                .field("name", S.Name)
                .field("parent", static_cast<int64_t>(S.Parent))
                .field("start_ms", S.Start * 1e3)
                .field("dur_ms", (S.End - S.Start) * 1e3)
                .str() +
            "\n";
  return writeFile(Path, Text);
}

// --------------------------------------------------------------- children

/// posix_spawn with stdout on \p OutFd (/dev/null when -1) and stderr in
/// \p ErrPath; -1 with \p Error set on failure.
static pid_t spawn(const std::vector<std::string> &Args, int OutFd,
                   const std::string &ErrPath, std::string &Error) {
  std::vector<char *> Argv;
  for (const std::string &A : Args)
    Argv.push_back(const_cast<char *>(A.c_str()));
  Argv.push_back(nullptr);
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  if (OutFd >= 0)
    posix_spawn_file_actions_adddup2(&Actions, OutFd, STDOUT_FILENO);
  else
    posix_spawn_file_actions_addopen(&Actions, STDOUT_FILENO, "/dev/null",
                                     O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&Actions, STDERR_FILENO, ErrPath.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  pid_t Pid = -1;
  int Rc = posix_spawn(&Pid, Argv[0], &Actions, nullptr, Argv.data(),
                       environ);
  posix_spawn_file_actions_destroy(&Actions);
  if (Rc != 0) {
    Error = Args[0] + ": " + std::strerror(Rc);
    return -1;
  }
  return Pid;
}

static void fillFromWait(int Status, const rusage &Ru, Child &C) {
  C.ExitCode = WIFEXITED(Status)     ? WEXITSTATUS(Status)
               : WIFSIGNALED(Status) ? 128 + WTERMSIG(Status)
                                     : -1;
  auto Secs = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) +
           static_cast<double>(T.tv_usec) * 1e-6;
  };
  C.Cpu = Secs(Ru.ru_utime) + Secs(Ru.ru_stime);
  C.RssMb = static_cast<double>(Ru.ru_maxrss) * 1024.0 / 1e6;
}

static std::string firstErrLine(const std::string &ErrPath) {
  std::string Text;
  readFile(ErrPath, Text);
  return Text.substr(0, Text.find('\n'));
}

Child runChild(const std::vector<std::string> &Args) {
  Child C;
  int Pipe[2];
  if (::pipe2(Pipe, O_CLOEXEC) != 0) {
    C.Err = std::string("pipe: ") + std::strerror(errno);
    return C;
  }
  const std::string ErrPath = "child.err";
  double Start = now();
  pid_t Pid = spawn(Args, Pipe[1], ErrPath, C.Err);
  ::close(Pipe[1]);
  if (Pid < 0) {
    ::close(Pipe[0]);
    return C;
  }
  char Buf[65536];
  for (;;) {
    ssize_t N = ::read(Pipe[0], Buf, sizeof(Buf));
    if (N > 0)
      C.Out.append(Buf, static_cast<size_t>(N));
    else if (N == 0 || errno != EINTR)
      break;
  }
  ::close(Pipe[0]);
  int Status = 0;
  rusage Ru{};
  while (::wait4(Pid, &Status, 0, &Ru) < 0 && errno == EINTR) {
  }
  C.Wall = now() - Start;
  fillFromWait(Status, Ru, C);
  if (C.ExitCode > 1)
    C.Err = firstErrLine(ErrPath);
  return C;
}

Daemon::~Daemon() {
  if (Pid > 0 && !Exited) {
    ::kill(Pid, SIGKILL);
    ::waitpid(Pid, nullptr, 0);
  }
}

bool Daemon::start(const std::vector<std::string> &Args,
                   std::string &Error) {
  Started = now();
  Pid = spawn(Args, -1, "daemon.err", Error);
  return Pid > 0;
}

bool Daemon::alive() {
  if (Pid <= 0 || Exited)
    return false;
  if (::wait4(Pid, &Status, WNOHANG, &Ru) == Pid)
    Exited = true;
  return !Exited;
}

Child Daemon::stop(double GraceSeconds) {
  Child C;
  if (Pid <= 0)
    return C;
  if (!Exited) {
    ::kill(Pid, SIGTERM);
    double Deadline = now() + GraceSeconds;
    for (;;) {
      pid_t Got = ::wait4(Pid, &Status, WNOHANG, &Ru);
      if (Got == Pid)
        break;
      if (Got < 0 && errno != EINTR)
        break;
      if (now() > Deadline) {
        ::kill(Pid, SIGKILL);
        while (::wait4(Pid, &Status, 0, &Ru) < 0 && errno == EINTR) {
        }
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    Exited = true;
  }
  C.Wall = now() - Started;
  fillFromWait(Status, Ru, C);
  if (C.ExitCode != 0)
    C.Err = firstErrLine("daemon.err");
  return C;
}

int connectUnix(const std::string &Path) {
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    errno = ENAMETOOLONG;
    return -1;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return -1;
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    int Saved = errno;
    ::close(Fd);
    errno = Saved;
    return -1;
  }
  return Fd;
}

std::vector<std::string> splitChunks(const std::string &Text,
                                     uint32_t Events) {
  std::vector<std::string> Chunks;
  size_t Start = 0, Pos = 0;
  uint32_t InChunk = 0;
  while (Pos < Text.size()) {
    size_t Nl = Text.find('\n', Pos);
    size_t End = Nl == std::string::npos ? Text.size() : Nl + 1;
    if (End - Pos > 1 && Text[Pos] != '#')
      ++InChunk;
    Pos = End;
    if (InChunk == Events) {
      Chunks.push_back(Text.substr(Start, Pos - Start));
      Start = Pos;
      InChunk = 0;
    }
  }
  if (Start < Text.size())
    Chunks.push_back(Text.substr(Start));
  return Chunks;
}

} // namespace rvbench
