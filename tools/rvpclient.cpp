//===- tools/rvpclient.cpp - rvpredictd load-test client ----------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Streams a trace to a running rvpredictd and prints what comes back —
/// the ServerGolden harness and the fault drills drive the daemon through
/// this tool (docs/SERVER.md).
///
///   rvpclient <trace.txt|bench:NAME> --socket=/tmp/rvp.sock [--port=N]
///             [--technique=rv|said|cp|hb] [--property=race|...]
///             [--window=N] [--tier=vc|smt|hybrid] [--budget=S]
///             [--skip-bad-events] [--ckpt=KEY]
///             [--chunk=BYTES] [--delay-ms=N] [--connections=N]
///             [--summary-only] [--expect=FILE] [--stall-ms=N]
///             [--inject-faults=spec]
///
/// Each connection sends HELLO, the trace text as DATA frames of --chunk
/// bytes (sleeping --delay-ms between chunks to model a slow producer),
/// then FIN, and reads frames until the SUMMARY arrives. REPORT payloads
/// print as they stream in (suppressed by --summary-only, which golden
/// byte-compares need). --connections=N replays the same trace over N
/// concurrent connections; with N > 1 every printed line is prefixed with
/// its connection index.
///
/// The `net.client_stall` fault site makes a connection write only half of
/// one DATA frame and then sleep --stall-ms before continuing — the
/// mid-frame stall the daemon's --stall-timeout is meant to reap.
///
/// Exit codes: 0 = every connection got its SUMMARY; 2 = usage errors;
/// 3 = a connection failed (ERROR frame, refused, or torn socket).
///
//===----------------------------------------------------------------------===//

#include "server/Framing.h"
#include "support/CommandLine.h"
#include "support/FaultInjector.h"
#include "support/StringUtils.h"
#include "trace/TraceIO.h"
#include "workloads/Catalog.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

using namespace rvp;

namespace {

std::mutex OutMutex;

/// Prints one frame payload, line by line, under the output lock; \p Tag
/// prefixes each line when multiple connections interleave.
void printPayload(const std::string &Tag, std::string_view Payload,
                  std::FILE *To) {
  std::lock_guard<std::mutex> Lock(OutMutex);
  size_t Pos = 0;
  while (Pos < Payload.size()) {
    size_t Nl = Payload.find('\n', Pos);
    size_t End = Nl == std::string_view::npos ? Payload.size() : Nl;
    if (!Tag.empty())
      std::fputs(Tag.c_str(), To);
    std::fwrite(Payload.data() + Pos, 1, End - Pos, To);
    std::fputc('\n', To);
    Pos = End + 1;
  }
}

int connectTo(const std::string &SocketPath, int Port, std::string &Error) {
  if (!SocketPath.empty()) {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0) {
      Error = std::string("socket: ") + std::strerror(errno);
      return -1;
    }
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    if (SocketPath.size() >= sizeof(Addr.sun_path)) {
      Error = "socket path too long";
      ::close(Fd);
      return -1;
    }
    std::memcpy(Addr.sun_path, SocketPath.c_str(), SocketPath.size() + 1);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
        0) {
      Error = "connect " + SocketPath + ": " + std::strerror(errno);
      ::close(Fd);
      return -1;
    }
    return Fd;
  }
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    Error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(static_cast<uint16_t>(Port));
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    Error = "connect 127.0.0.1:" + std::to_string(Port) + ": " +
            std::strerror(errno);
    ::close(Fd);
    return -1;
  }
  return Fd;
}

bool writeAll(int Fd, const char *Data, size_t Len, std::string &Error) {
  size_t Off = 0;
  while (Off < Len) {
    ssize_t N = ::write(Fd, Data + Off, Len - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Error = std::string("write: ") + std::strerror(errno);
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

struct ClientConfig {
  std::string SocketPath;
  int Port = 0;
  std::string Hello;
  std::string TraceText;
  size_t Chunk = 64 << 10;
  unsigned DelayMs = 0;
  unsigned StallMs = 2000;
  bool SummaryOnly = false;
  std::string Tag; ///< line prefix, e.g. "conn2: " (empty for 1 connection)
};

/// Drains whatever the server has sent so far without blocking; returns
/// false once the session is over (SUMMARY or ERROR seen, or the decoder
/// rejected a server frame). \p Summary accumulates the SUMMARY payload.
bool pumpFrames(FrameDecoder &Decoder, const ClientConfig &Cfg,
                std::string &Summary, bool &GotSummary, bool &Failed) {
  for (;;) {
    Frame F;
    std::string Error;
    FrameDecoder::Result R = Decoder.next(F, Error);
    if (R == FrameDecoder::Result::NeedMore)
      return true;
    if (R == FrameDecoder::Result::Malformed) {
      printPayload(Cfg.Tag, "error: bad server frame: " + Error, stderr);
      Failed = true;
      return false;
    }
    switch (F.Type) {
    case FrameType::Welcome:
      break; // banner; nothing to print
    case FrameType::Report:
      if (!Cfg.SummaryOnly)
        printPayload(Cfg.Tag, F.Payload, stdout);
      break;
    case FrameType::Summary:
      Summary = F.Payload;
      GotSummary = true;
      return false;
    case FrameType::Error:
      printPayload(Cfg.Tag, "server error: " + F.Payload, stderr);
      Failed = true;
      return false;
    default:
      printPayload(Cfg.Tag, "error: unexpected frame from server", stderr);
      Failed = true;
      return false;
    }
  }
}

/// One connection's whole life: connect, HELLO, stream, FIN, await
/// SUMMARY. Returns true when the summary arrived; \p SummaryOut gets it.
bool runConnection(const ClientConfig &Cfg, std::string &SummaryOut) {
  std::string Error;
  int Fd = connectTo(Cfg.SocketPath, Cfg.Port, Error);
  if (Fd < 0) {
    printPayload(Cfg.Tag, "error: " + Error, stderr);
    return false;
  }
  FrameDecoder Decoder;
  std::string Summary;
  bool GotSummary = false, Failed = false;

  auto ReadAvailable = [&](int TimeoutMs) -> bool {
    pollfd P{Fd, POLLIN, 0};
    int N = ::poll(&P, 1, TimeoutMs);
    if (N <= 0)
      return true; // nothing to read (or EINTR); not an error
    char Buf[16384];
    ssize_t Got = ::read(Fd, Buf, sizeof(Buf));
    if (Got < 0)
      return errno == EINTR || errno == EAGAIN;
    if (Got == 0) {
      if (!GotSummary && !Failed) {
        printPayload(Cfg.Tag, "error: server closed the connection", stderr);
        Failed = true;
      }
      return false;
    }
    Decoder.feed(std::string_view(Buf, static_cast<size_t>(Got)));
    return pumpFrames(Decoder, Cfg, Summary, GotSummary, Failed);
  };

  auto Send = [&](FrameType Type, std::string_view Payload) -> bool {
    std::string Wire = encodeFrame(Type, Payload);
    // The client-side stall drill: tear the frame in half on the wire and
    // go quiet, leaving the server's decoder mid-frame.
    if (Type == FrameType::Data &&
        FaultInjector::shouldFail(faults::NetClientStall)) {
      size_t Half = Wire.size() / 2;
      if (!writeAll(Fd, Wire.data(), Half, Error))
        return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(Cfg.StallMs));
      return writeAll(Fd, Wire.data() + Half, Wire.size() - Half, Error);
    }
    return writeAll(Fd, Wire.data(), Wire.size(), Error);
  };

  bool Alive = true;
  std::string WriteError;
  if (!Send(FrameType::Hello, Cfg.Hello)) {
    WriteError = Error;
    Alive = false;
  }
  for (size_t Off = 0; Alive && Off < Cfg.TraceText.size();
       Off += Cfg.Chunk) {
    size_t Len = std::min(Cfg.Chunk, Cfg.TraceText.size() - Off);
    if (!Send(FrameType::Data,
              std::string_view(Cfg.TraceText).substr(Off, Len))) {
      WriteError = Error;
      Alive = false;
      break;
    }
    // Interleave reads so REPORT frames print as the analysis streams
    // them, and a long upload cannot pile the server's replies up.
    if (!ReadAvailable(0))
      Alive = false;
    if (Cfg.DelayMs)
      std::this_thread::sleep_for(std::chrono::milliseconds(Cfg.DelayMs));
  }
  if (Alive && !Send(FrameType::Fin, "")) {
    WriteError = Error;
    Alive = false;
  }
  while (Alive && !GotSummary && !Failed)
    Alive = ReadAvailable(-1);
  // A torn write usually means the daemon already answered and hung up —
  // refused the session, errored it, or drained on SIGTERM mid-upload.
  // The verdict frame is still in the socket buffer; drain briefly so the
  // user sees the ERROR (or SUMMARY) instead of just EPIPE.
  if (!WriteError.empty()) {
    auto Deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (!GotSummary && !Failed &&
           std::chrono::steady_clock::now() < Deadline)
      if (!ReadAvailable(100))
        break;
    if (!GotSummary && !Failed) {
      printPayload(Cfg.Tag, "error: " + WriteError, stderr);
      Failed = true;
    }
  }
  ::close(Fd);
  if (GotSummary) {
    printPayload(Cfg.Tag, Summary, stdout);
    SummaryOut = Summary;
  }
  return GotSummary && !Failed;
}

} // namespace

int main(int Argc, const char **Argv) {
  OptionParser Options(
      "rvpclient: stream a trace to rvpredictd (docs/SERVER.md)");
  Options.addOption("socket", "daemon's Unix-domain socket path", "");
  Options.addOption("port", "daemon's TCP port on 127.0.0.1", "0");
  Options.addOption("technique", "technique for HELLO (rv, said, cp, hb)",
                    "");
  Options.addOption("property", "property for HELLO (race, atomicity, "
                                "deadlock)",
                    "");
  Options.addOption("window", "window size for HELLO", "");
  Options.addOption("tier", "race tier for HELLO (vc, smt, hybrid)", "");
  Options.addOption("budget", "per-COP solver budget for HELLO (s)", "");
  Options.addOption("skip-bad-events",
                    "ask the daemon to skip malformed trace lines", "false");
  Options.addOption("ckpt",
                    "crash-recovery checkpoint key for HELLO (daemon must "
                    "run with --checkpoint-root)",
                    "");
  Options.addOption("chunk", "DATA frame payload size in bytes", "65536");
  Options.addOption("delay-ms", "sleep between DATA frames", "0");
  Options.addOption("stall-ms",
                    "how long the net.client_stall fault sleeps mid-frame",
                    "2000");
  Options.addOption("connections",
                    "stream the trace over N concurrent connections", "1");
  Options.addOption("summary-only",
                    "print only the SUMMARY payload (golden byte-compares)",
                    "false");
  Options.addOption("expect",
                    "file the SUMMARY payload must match byte for byte",
                    "");
  Options.addOption("seed", "recording seed for .rv inputs", "1");
  Options.addOption("schedule", "recording schedule for .rv inputs", "rr");
  Options.addOption("inject-faults",
                    "deterministic fault injection spec, e.g. "
                    "'seed=7,net.client_stall' (also read from RV_FAULTS)",
                    "");
  if (!Options.parse(Argc, Argv))
    return ExitUsage;
  if (Options.positional().empty()) {
    std::fprintf(stderr, "usage: rvpclient <trace.txt|bench:NAME> "
                         "--socket=PATH|--port=N\n");
    return ExitUsage;
  }
  std::string FaultSpec = Options.getString("inject-faults", "");
  if (FaultSpec.empty())
    if (const char *Env = std::getenv("RV_FAULTS"))
      FaultSpec = Env;
  if (!FaultSpec.empty()) {
    std::string FaultError;
    if (!FaultInjector::configure(FaultSpec, FaultError)) {
      std::fprintf(stderr, "error: bad --inject-faults spec: %s\n",
                   FaultError.c_str());
      return ExitUsage;
    }
  }

  ClientConfig Cfg;
  Cfg.SocketPath = Options.getString("socket", "");
  Cfg.Port = static_cast<int>(Options.getInt("port", 0));
  if (Cfg.SocketPath.empty() && Cfg.Port == 0) {
    std::fprintf(stderr,
                 "error: pass --socket=PATH or --port=N to reach the "
                 "daemon\n");
    return ExitUsage;
  }
  Cfg.Chunk = static_cast<size_t>(Options.getInt("chunk", 64 << 10));
  if (Cfg.Chunk == 0 || Cfg.Chunk > MaxFramePayload) {
    std::fprintf(stderr, "error: --chunk must be in [1, %zu]\n",
                 MaxFramePayload);
    return ExitUsage;
  }
  Cfg.DelayMs = static_cast<unsigned>(Options.getInt("delay-ms", 0));
  Cfg.StallMs = static_cast<unsigned>(Options.getInt("stall-ms", 2000));
  Cfg.SummaryOnly = Options.getBool("summary-only");

  // The trace: a text trace file, or a catalog row rendered to text — the
  // same bytes `rvpredict detect` would analyze, so summaries byte-match.
  const std::string &Input = Options.positional()[0];
  if (Input.rfind("bench:", 0) == 0) {
    std::optional<BenchmarkCase> Case = findBenchmark(Input.substr(6));
    if (!Case) {
      std::fprintf(stderr, "error: unknown benchmark '%s'\n",
                   Input.substr(6).c_str());
      return ExitUsage;
    }
    Trace T;
    std::string Error;
    if (!benchmarkTrace(*Case, T, Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return ExitUsage;
    }
    Cfg.TraceText = writeTraceText(T);
  } else if (!readFile(Input, Cfg.TraceText)) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Input.c_str());
    return ExitUsage;
  }

  // HELLO carries only the options the user set; the daemon's defaults
  // cover the rest.
  std::string Hello;
  auto AddOpt = [&](const char *Key, const std::string &Value) {
    if (!Value.empty())
      Hello += std::string(Key) + "=" + Value + "\n";
  };
  AddOpt("property", Options.getString("property", ""));
  AddOpt("technique", Options.getString("technique", ""));
  AddOpt("tier", Options.getString("tier", ""));
  AddOpt("window", Options.getString("window", ""));
  AddOpt("budget", Options.getString("budget", ""));
  if (Options.getBool("skip-bad-events"))
    Hello += "skip-bad-events=true\n";
  AddOpt("ckpt", Options.getString("ckpt", ""));
  Cfg.Hello = Hello;

  std::signal(SIGPIPE, SIG_IGN);

  unsigned Connections =
      static_cast<unsigned>(Options.getInt("connections", 1));
  if (Connections == 0) {
    std::fprintf(stderr, "error: --connections must be >= 1\n");
    return ExitUsage;
  }
  std::atomic<unsigned> Failures{0};
  std::string FirstSummary;
  if (Connections == 1) {
    if (!runConnection(Cfg, FirstSummary))
      Failures = 1;
  } else {
    std::vector<std::thread> Threads;
    std::vector<std::string> Summaries(Connections);
    for (unsigned I = 0; I < Connections; ++I)
      Threads.emplace_back([&, I] {
        ClientConfig Mine = Cfg;
        Mine.Tag = "conn" + std::to_string(I + 1) + ": ";
        if (!runConnection(Mine, Summaries[I]))
          ++Failures;
      });
    for (std::thread &T : Threads)
      T.join();
    FirstSummary = Summaries.empty() ? std::string() : Summaries[0];
  }

  std::string ExpectPath = Options.getString("expect", "");
  if (!ExpectPath.empty()) {
    std::string Expected;
    if (!readFile(ExpectPath, Expected)) {
      std::fprintf(stderr, "error: cannot open '%s'\n", ExpectPath.c_str());
      return ExitUsage;
    }
    if (Expected != FirstSummary) {
      std::fprintf(stderr,
                   "error: SUMMARY differs from '%s' (%zu vs %zu bytes)\n",
                   ExpectPath.c_str(), FirstSummary.size(), Expected.size());
      return ExitInternal;
    }
  }
  return Failures ? ExitInternal : ExitSuccess;
}
