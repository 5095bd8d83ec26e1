//===- rvbench/EndToEnd.cpp - Untraced end-to-end run ---------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The end-to-end half: the program is reached only from outside. Batch
// workloads spawn `rvpredict detect` and time each child spawn to exit;
// serve-paced drives `rvpredictd` with an open-loop generator (one thread,
// two connections) that sends each chunk when it is due, whatever the
// daemon is doing, and times each window from that due moment.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "server/Framing.h"
#include "support/StringUtils.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

using namespace rvp;

namespace rvbench {

namespace {

/// Setup spawns per run; setup_s is their median.
unsigned setupSpawns(const Options &O) { return O.Quick ? 2 : 30; }

std::vector<std::string> detectArgs(const Options &O,
                                    const std::string &TracePath,
                                    const DetectCall &Call) {
  std::vector<std::string> Args = {O.BinDir + "/rvpredict",
                                   "detect",
                                   TracePath,
                                   "--jobs=1",
                                   "--technique=rv",
                                   "--tier=hybrid",
                                   std::string("--property=") +
                                       propertyName(Call.Prop)};
  if (!Call.Witness)
    Args.push_back("--witness=false");
  return Args;
}

/// Runs one detect child and checks its exit code and finding count.
Child detectOnce(const Options &O, const Workload &W,
                 const std::string &TracePath, const DetectCall &Call,
                 Result &R) {
  Child C = runChild(detectArgs(O, TracePath, Call));
  int64_t Expected =
      static_cast<int64_t>(expectedFindings(W.Spec, Call.Prop));
  int64_t Got = headerCount(C.Out);
  R.check(C.ExitCode == (Expected ? 1 : 0) && Got == Expected,
          formatString("detect --property=%s: exit %d, %lld finding(s), "
                       "expected %lld %s",
                       propertyName(Call.Prop), C.ExitCode,
                       static_cast<long long>(Got),
                       static_cast<long long>(Expected), C.Err.c_str()));
  return C;
}

void runBatch(const Options &O, const Workload &W,
              const std::vector<std::string> &Traces, Result &R) {
  // Set-up: process start to a finished analysis of a header-only trace.
  writeFile("empty.txt", "# rvp-trace v1\n");
  std::vector<double> Setup;
  for (unsigned I = 0; I < setupSpawns(O); ++I) {
    Child C = runChild({O.BinDir + "/rvpredict", "detect", "empty.txt",
                        "--jobs=1"});
    R.check(C.ExitCode == 0 && headerCount(C.Out) == 0,
            formatString("setup: detect on an empty trace exited %d %s",
                         C.ExitCode, C.Err.c_str()));
    Setup.push_back(C.Wall);
  }

  // One operation is every call of the workload on one trace; operations
  // cycle through the panel.
  const size_t K = Traces.size();
  std::vector<std::vector<double>> WallOf(K), CpuOf(K);
  std::vector<double> Rss;
  size_t Next = 0;
  auto RunOp = [&] {
    size_t I = Next++ % K;
    double OpWall = 0, OpCpu = 0, OpRss = 0;
    for (const DetectCall &Call : W.Calls) {
      Child C = detectOnce(O, W, Traces[I], Call, R);
      OpWall += C.Wall;
      OpCpu += C.Cpu;
      OpRss = std::max(OpRss, C.RssMb);
    }
    WallOf[I].push_back(OpWall);
    CpuOf[I].push_back(OpCpu);
    Rss.push_back(OpRss);
  };
  if (!O.Quick) {
    RunOp(); // warm-up: page cache and first-touch costs
    Next = 0;
    WallOf[0].clear();
    CpuOf[0].clear();
    Rss.clear();
  }
  double Start = now();
  do
    RunOp();
  while (now() - Start < O.Seconds || Next < K);

  // Every trace of the panel weighs the same, however often it ran.
  auto PanelMean = [&](const std::vector<std::vector<double>> &Of) {
    double Sum = 0;
    for (const std::vector<double> &V : Of)
      Sum += median(V);
    return Sum / static_cast<double>(K);
  };
  R.metric("latency_ms", PanelMean(WallOf) * 1e3, "ms");
  R.metric("cpu_ms", PanelMean(CpuOf) * 1e3, "ms");
  R.metric("peak_rss_mb", median(Rss), "MB");
  R.metric("setup_s", median(Setup), "s");
  R.info("latency_samples", static_cast<double>(Rss.size()));
  R.info("setup_samples", static_cast<double>(Setup.size()));
}

/// The HELLO every serve session sends: the workload's window size.
std::string helloFrame(const Workload &W) {
  return encodeFrame(FrameType::Hello,
                     formatString("window=%u\n", W.ServeWindow));
}

/// Spawns a daemon on \p Socket and waits for the WELCOME that follows a
/// HELLO; returns the connected fd (or -1 with \p Error set).
int startAndGreet(Daemon &D, const Options &O, const Workload &W,
                  const std::string &Socket,
                  const std::vector<std::string> &Extra, std::string &Error) {
  ::unlink(Socket.c_str());
  std::vector<std::string> Args = {O.BinDir + "/rvpredictd",
                                   "--socket=" + Socket, "--jobs=2"};
  Args.insert(Args.end(), Extra.begin(), Extra.end());
  if (!D.start(Args, Error))
    return -1;
  int Fd = -1;
  double Deadline = now() + 20;
  while ((Fd = connectUnix(Socket)) < 0) {
    if (!D.alive() || now() > Deadline) {
      Error = "rvpredictd never accepted on " + Socket;
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  std::string Hello = helloFrame(W);
  if (::write(Fd, Hello.data(), Hello.size()) !=
      static_cast<ssize_t>(Hello.size())) {
    Error = std::string("HELLO write: ") + std::strerror(errno);
    ::close(Fd);
    return -1;
  }
  FrameDecoder Decoder;
  Frame F;
  for (;;) {
    std::string DecodeError;
    FrameDecoder::Result Got = Decoder.next(F, DecodeError);
    if (Got == FrameDecoder::Result::Ready) {
      if (F.Type == FrameType::Welcome)
        return Fd;
      Error = "expected WELCOME, got frame '" +
              std::string(1, static_cast<char>(F.Type)) + "'";
      break;
    }
    if (Got == FrameDecoder::Result::Malformed) {
      Error = "bad frame: " + DecodeError;
      break;
    }
    pollfd P{Fd, POLLIN, 0};
    char Buf[4096];
    ssize_t N = ::poll(&P, 1, 20000) == 1 ? ::read(Fd, Buf, sizeof(Buf)) : 0;
    if (N <= 0) {
      Error = "no WELCOME from rvpredictd";
      break;
    }
    Decoder.feed(std::string_view(Buf, static_cast<size_t>(N)));
  }
  ::close(Fd);
  return -1;
}

double serveSetupOnce(const Options &O, const Workload &W, Result &R) {
  Daemon D;
  std::string Error;
  double Start = now();
  int Fd = startAndGreet(D, O, W, "setup.sock", {}, Error);
  double Ready = now() - Start;
  if (Fd >= 0)
    ::close(Fd);
  Child C = D.stop(30);
  R.check(Fd >= 0 && C.ExitCode == 0,
          formatString("setup: %s daemon exit %d %s", Error.c_str(),
                       C.ExitCode, C.Err.c_str()));
  return Ready;
}

/// One generator connection: its schedule, its output queue, and what
/// came back.
struct Conn {
  int Fd = -1;
  FrameDecoder Decoder;
  std::string Out;
  uint64_t Written = 0;
  std::vector<double> Due;      ///< per chunk
  std::vector<uint64_t> EndAt;  ///< bytes queued through chunk K
  std::vector<double> Sent;     ///< last byte of chunk K written
  std::vector<double> ReportAt; ///< per window; < 0 until it arrives
  size_t NextChunk = 0;
  double SummaryAt = -1;
  std::string Summary;
  uint64_t Degraded = 0, Unexpected = 0;
  bool Dead = false;
  std::string Error;

  bool done() const { return Dead || SummaryAt >= 0; }
};

void readFrames(Conn &C, double At) {
  char Buf[65536];
  for (;;) {
    ssize_t N = ::read(C.Fd, Buf, sizeof(Buf));
    if (N > 0) {
      C.Decoder.feed(std::string_view(Buf, static_cast<size_t>(N)));
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N == 0 && C.SummaryAt < 0) {
      C.Dead = true;
      C.Error = "daemon closed the connection";
    }
    break; // EAGAIN, EOF, or an error
  }
  Frame F;
  std::string Error;
  for (;;) {
    FrameDecoder::Result Got = C.Decoder.next(F, Error);
    if (Got == FrameDecoder::Result::NeedMore)
      return;
    if (Got == FrameDecoder::Result::Malformed) {
      C.Dead = true;
      C.Error = "bad frame: " + Error;
      return;
    }
    if (F.Type == FrameType::Report) {
      unsigned long long K = 0;
      char Mode[16] = {0};
      if (std::sscanf(F.Payload.c_str(), "window %llu %15s", &K, Mode) != 2 ||
          K >= C.ReportAt.size() || C.ReportAt[K] >= 0) {
        ++C.Unexpected;
        continue;
      }
      C.ReportAt[K] = At;
      if (std::strcmp(Mode, "ok") != 0)
        ++C.Degraded;
    } else if (F.Type == FrameType::Summary) {
      C.SummaryAt = At;
      C.Summary = F.Payload;
    } else if (F.Type == FrameType::Error) {
      C.Dead = true;
      C.Error = "ERROR frame: " + F.Payload;
      return;
    }
  }
}

void writeQueued(Conn &C) {
  while (!C.Out.empty()) {
    ssize_t N = ::write(C.Fd, C.Out.data(), C.Out.size());
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        C.Dead = true;
        C.Error = std::string("write: ") + std::strerror(errno);
      }
      break;
    }
    C.Out.erase(0, static_cast<size_t>(N));
    C.Written += static_cast<uint64_t>(N);
  }
  double At = now();
  while (C.Sent.size() < C.EndAt.size() && C.Written >= C.EndAt[C.Sent.size()])
    C.Sent.push_back(At);
}

void setNonBlockingFd(int Fd) {
  ::fcntl(Fd, F_SETFL, ::fcntl(Fd, F_GETFL) | O_NONBLOCK);
}

/// Counter \p Name of a `--stats-json` object, 0 when absent.
double statsCounter(const std::string &Json, const std::string &Name) {
  size_t At = Json.find("\"" + Name + "\":");
  return At == std::string::npos
             ? 0
             : std::strtod(Json.c_str() + At + Name.size() + 3, nullptr);
}

} // namespace

std::string serveReference(const Options &O, const Workload &W,
                           const std::string &TracePath, Result &R) {
  Child C = runChild({O.BinDir + "/rvpredict", "detect", TracePath,
                      formatString("--window=%u", W.ServeWindow),
                      "--jobs=2"});
  int64_t Expected = static_cast<int64_t>(W.Spec.expectedRv());
  bool Ok = C.ExitCode == 1 && headerCount(C.Out) == Expected;
  R.check(Ok, formatString("batch reference: exit %d, %lld race(s), "
                           "expected %lld %s",
                           C.ExitCode,
                           static_cast<long long>(headerCount(C.Out)),
                           static_cast<long long>(Expected), C.Err.c_str()));
  return Ok ? normalizeTiming(C.Out) : std::string();
}

void runServePaced(const Options &O, const Workload &W,
                   const std::vector<std::string> &Chunks,
                   const std::string &Reference, bool StatsJson,
                   Result &R) {
  const size_t N = Chunks.size();
  Daemon D;
  std::vector<std::string> Extra;
  if (StatsJson) {
    ::unlink("daemon-stats.json");
    Extra.push_back("--stats-json=daemon-stats.json");
  }
  std::string Error;
  std::vector<Conn> Conns(2);
  Conns[0].Fd = startAndGreet(D, O, W, "serve.sock", Extra, Error);
  if (Conns[0].Fd >= 0) {
    // The second session says HELLO on its own connection.
    std::string Hello = helloFrame(W);
    Conns[1].Fd = connectUnix("serve.sock");
    if (Conns[1].Fd < 0 ||
        ::write(Conns[1].Fd, Hello.data(), Hello.size()) !=
            static_cast<ssize_t>(Hello.size()))
      Error = "second connection failed";
  }
  if (Conns[0].Fd < 0 || Conns[1].Fd < 0) {
    R.check(false, "serve: " + Error);
    for (Conn &C : Conns)
      if (C.Fd >= 0)
        ::close(C.Fd);
    D.stop(30);
    return;
  }

  const double T0 = now() + 0.05;
  for (size_t I = 0; I < Conns.size(); ++I) {
    Conn &C = Conns[I];
    setNonBlockingFd(C.Fd);
    for (size_t K = 0; K < N; ++K)
      C.Due.push_back(T0 + static_cast<double>(I) * W.ChunkInterval / 2 +
                      static_cast<double>(K) * W.ChunkInterval);
    C.ReportAt.assign(N, -1);
  }
  // Generous: a daemon that falls behind still gets to finish, and the
  // late windows then show in the latency tail.
  const double GiveUp = T0 + static_cast<double>(N) * W.ChunkInterval + 60;

  for (;;) {
    bool AllDone = true;
    double NextDue = GiveUp;
    std::vector<pollfd> Fds;
    for (Conn &C : Conns) {
      double At = now();
      while (C.NextChunk < N && C.Due[C.NextChunk] <= At) {
        C.Out += encodeFrame(FrameType::Data, Chunks[C.NextChunk]);
        if (++C.NextChunk == N)
          C.Out += encodeFrame(FrameType::Fin, "");
        C.EndAt.push_back(C.Written + C.Out.size());
      }
      if (!C.Dead)
        writeQueued(C);
      if (C.NextChunk < N)
        NextDue = std::min(NextDue, C.Due[C.NextChunk]);
      if (!C.done()) {
        AllDone = false;
        Fds.push_back(
            {C.Fd, static_cast<short>(POLLIN | (C.Out.empty() ? 0 : POLLOUT)),
             0});
      }
    }
    if (AllDone || now() > GiveUp)
      break;
    double Wait = std::clamp(NextDue - now(), 0.0, 0.05);
    timespec Ts{0, static_cast<long>(Wait * 1e9)};
    if (::ppoll(Fds.data(), Fds.size(), &Ts, nullptr) <= 0)
      continue;
    double At = now();
    for (const pollfd &P : Fds)
      if (P.revents & (POLLIN | POLLHUP | POLLERR))
        for (Conn &C : Conns)
          if (C.Fd == P.fd)
            readFrames(C, At);
  }
  for (Conn &C : Conns)
    ::close(C.Fd);
  Child Exit = D.stop(30);
  R.check(Exit.ExitCode == 0, formatString("rvpredictd exited %d %s",
                                           Exit.ExitCode, Exit.Err.c_str()));

  std::vector<double> Latency, Late, Summary;
  for (size_t I = 0; I < Conns.size(); ++I) {
    const Conn &C = Conns[I];
    for (size_t K = 0; K < N; ++K) {
      bool Got = C.ReportAt[K] >= 0;
      R.check(Got, formatString("session %zu: no REPORT for window %zu %s",
                                I + 1, K, C.Error.c_str()));
      if (Got)
        Latency.push_back(C.ReportAt[K] - C.Due[K]);
    }
    for (size_t K = 0; K < C.Sent.size(); ++K)
      Late.push_back(C.Sent[K] - C.Due[K]);
    R.check(C.Degraded == 0 && C.Unexpected == 0,
            formatString("session %zu: %llu degraded, %llu unexpected "
                         "REPORT(s)",
                         I + 1, static_cast<unsigned long long>(C.Degraded),
                         static_cast<unsigned long long>(C.Unexpected)));
    bool Same = C.SummaryAt >= 0 && !Reference.empty() &&
                normalizeTiming(C.Summary) == Reference;
    R.check(Same, formatString("session %zu: %s", I + 1,
                               C.SummaryAt < 0
                                   ? ("no SUMMARY " + C.Error).c_str()
                                   : "SUMMARY differs from batch detect"));
    if (C.SummaryAt >= 0)
      Summary.push_back(C.SummaryAt - C.Due.back());
  }

  if (!StatsJson) {
    R.metric("latency_ms", median(Latency) * 1e3, "ms");
    R.metric("cpu_ms",
             Latency.empty()
                 ? 0
                 : Exit.Cpu / static_cast<double>(Latency.size()) * 1e3,
             "ms");
    R.metric("peak_rss_mb", Exit.RssMb, "MB");
    R.info("latency_samples", static_cast<double>(Latency.size()));
    R.info("latency_p95_ms", quantile(Latency, 0.95) * 1e3);
    R.info("summary_ms", median(Summary) * 1e3);
    R.info("gen_late_p95_ms", quantile(Late, 0.95) * 1e3);
    return;
  }
  std::string Stats;
  readFile("daemon-stats.json", Stats);
  R.check(!Stats.empty(), "rvpredictd wrote no --stats-json");
  for (const char *Name : {"server.windows_analyzed",
                           "server.backpressure_events",
                           "server.degraded_windows"})
    R.metric(Name, statsCounter(Stats, Name), "count");
  R.metric("serve.window_p95_ms", quantile(Latency, 0.95) * 1e3, "ms");
  R.metric("serve.gen_late_ms", quantile(Late, 0.95) * 1e3, "ms");
  R.metric("serve.summary_ms", median(Summary) * 1e3, "ms");
}

void runEndToEnd(const Options &O, const Workload &W,
                 const std::vector<std::string> &Traces, Result &R) {
  if (!W.Serve) {
    runBatch(O, W, Traces, R);
    return;
  }
  std::vector<double> Setup;
  for (unsigned I = 0; I < setupSpawns(O); ++I)
    Setup.push_back(serveSetupOnce(O, W, R));
  std::string Text;
  readFile(Traces[0], Text);
  std::string Reference = serveReference(O, W, Traces[0], R);
  runServePaced(O, W, splitChunks(Text, W.ServeWindow), Reference,
                /*StatsJson=*/false, R);
  R.metric("setup_s", median(Setup), "s");
  R.info("setup_samples", static_cast<double>(Setup.size()));
}

} // namespace rvbench
