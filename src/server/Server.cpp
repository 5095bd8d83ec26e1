//===- server/Server.cpp - rvpredictd daemon core -------------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "server/Server.h"

#include "detect/Checkpoint.h"
#include "server/Framing.h"
#include "support/CommandLine.h"
#include "support/FaultInjector.h"
#include "support/Stats.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

using namespace rvp;

namespace {

double monotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool setNonBlocking(int Fd) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  return Flags >= 0 && ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) == 0;
}

Counter &serverCounter(const char *Name) {
  return MetricsRegistry::global().counter(Name);
}

/// One connected client. Exactly one worker task may own Det at a time
/// (InFlight); the I/O thread buffers arriving DATA in Inbox meanwhile
/// and feeds it between tasks, so the detector is never shared.
struct Session {
  uint64_t Id = 0;
  int Fd = -1;
  FrameDecoder Decoder;
  std::string OutBuf; ///< encoded frames not yet written
  std::string Inbox;  ///< DATA bytes not yet fed to the detector
  std::unique_ptr<StreamDetector> Det;

  bool GotHello = false;
  bool FinReceived = false;
  bool ReadClosed = false; ///< peer EOF seen; stop polling for input
  bool InFlight = false; ///< a pool worker owns Det right now
  bool Paused = false;   ///< POLLIN off: backpressure engaged
  bool Draining = false; ///< close as soon as OutBuf flushes
  bool Dead = false;     ///< torn down; erased at the next sweep
  double LastActivity = 0;
  uint64_t PendingCache = 0; ///< last observed pendingWindows()

  // Crash recovery (ckpt=<key> HELLO option, docs/SERVER.md).
  std::unique_ptr<CheckpointStore> Ckpt;
};

/// What a worker task hands back to the I/O thread.
struct Completion {
  uint64_t SessionId = 0;
  bool Finish = false;
  bool Ok = false;
  bool Aborted = false; ///< worker threw (incl. server.worker_abort)
  StreamStep Step;
  std::vector<StreamStep> TailSteps;
  std::string Summary;
  std::string Error;
};

} // namespace

struct Server::Impl {
  explicit Impl(ServerOptions O) : Opts(std::move(O)) {}

  ServerOptions Opts;
  int UnixFd = -1;
  int TcpFd = -1;
  bool OwnsSocketPath = false; ///< we bound SocketPath; unlink on exit
  int WakeR = -1, WakeW = -1;
  std::atomic<bool> Stop{false};
  bool ListenersClosed = false;
  std::unique_ptr<ThreadPool> Pool;
  std::unordered_map<uint64_t, std::unique_ptr<Session>> Sessions;
  uint64_t NextSessionId = 1;
  std::mutex DoneMutex;
  std::deque<Completion> Done;

  // ------------------------------------------------------------ lifecycle

  bool start(std::string &Error);
  int run();
  void wake() {
    char C = 0;
    // Best-effort: a full pipe already guarantees a pending wake-up.
    (void)::write(WakeW, &C, 1);
  }

  // ------------------------------------------------------------ sessions

  void acceptClients(int ListenFd);
  void readSocket(Session &S);
  bool handleFrame(Session &S, Frame &F);
  bool applyHello(Session &S, std::string_view Payload, std::string &Error);
  void pump(Session &S);
  /// Hands the session's detector to a pool worker for its next window
  /// (\p Finish: the end-of-input tail and summary).
  void submit(Session &S, bool Finish, bool Degrade);
  void handleCompletion(Completion &C);
  void queueFrame(Session &S, FrameType Type, std::string_view Payload);
  void queueReport(Session &S, const StreamStep &Step);
  void sessionError(Session &S, const std::string &Message);
  bool flushOut(Session &S);
  void teardown(Session &S);
  void updatePause(Session &S);
  void checkTimeouts(double Now);
  uint64_t globalPending() const;
};

// --------------------------------------------------------------- startup

/// True if something currently accepts connections on \p Addr — i.e. a
/// live daemon, as opposed to a stale socket file left by a crash.
static bool unixSocketAlive(const sockaddr_un &Addr) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return false;
  bool Alive = ::connect(Fd, reinterpret_cast<const sockaddr *>(&Addr),
                         sizeof(Addr)) == 0;
  ::close(Fd);
  return Alive;
}

static int listenUnix(const std::string &Path, std::string &Error) {
  if (Path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    Error = "socket path too long: " + Path;
    return -1;
  }
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  struct stat St;
  if (::lstat(Path.c_str(), &St) == 0) {
    // Only a socket file may be removed, and only a dead one: unlinking a
    // live daemon's socket would silently steal its name (and this
    // instance's shutdown would later unlink the survivor's socket too).
    if (!S_ISSOCK(St.st_mode)) {
      Error = Path + " exists and is not a socket; refusing to remove it";
      return -1;
    }
    if (unixSocketAlive(Addr)) {
      Error = Path + " is already served by a running daemon";
      return -1;
    }
    ::unlink(Path.c_str());
  }
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Error = formatString("socket: %s", std::strerror(errno));
    return -1;
  }
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0 ||
      ::listen(Fd, 64) != 0) {
    Error = formatString("bind %s: %s", Path.c_str(), std::strerror(errno));
    ::close(Fd);
    return -1;
  }
  return Fd;
}

static int listenTcp(int Port, std::string &Error) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    Error = formatString("socket: %s", std::strerror(errno));
    return -1;
  }
  int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(static_cast<uint16_t>(Port));
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0 ||
      ::listen(Fd, 64) != 0) {
    Error = formatString("bind 127.0.0.1:%d: %s", Port, std::strerror(errno));
    ::close(Fd);
    return -1;
  }
  return Fd;
}

bool Server::Impl::start(std::string &Error) {
  if (Opts.SocketPath.empty() && Opts.TcpPort <= 0) {
    Error = "a listener is required (--socket and/or --port)";
    return false;
  }
  if (!Opts.SocketPath.empty()) {
    UnixFd = listenUnix(Opts.SocketPath, Error);
    if (UnixFd < 0)
      return false;
    OwnsSocketPath = true;
  }
  if (Opts.TcpPort > 0) {
    TcpFd = listenTcp(Opts.TcpPort, Error);
    if (TcpFd < 0) {
      if (UnixFd >= 0) {
        ::close(UnixFd);
        UnixFd = -1;
      }
      return false;
    }
  }
  int Pipe[2];
  if (::pipe(Pipe) != 0) {
    Error = formatString("pipe: %s", std::strerror(errno));
    return false;
  }
  WakeR = Pipe[0];
  WakeW = Pipe[1];
  setNonBlocking(WakeR);
  setNonBlocking(WakeW);
  setNonBlocking(UnixFd);
  if (TcpFd >= 0)
    setNonBlocking(TcpFd);
  Pool = std::make_unique<ThreadPool>(Opts.Jobs);
  return true;
}

// ---------------------------------------------------------------- accept

void Server::Impl::acceptClients(int ListenFd) {
  for (;;) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      return; // EAGAIN or transient failure: poll again later
    if (Sessions.size() >= Opts.MaxSessions) {
      // Budget refusal: one typed error, then the door. Best effort — a
      // client that cannot even read this was not going to fit anyway.
      std::string Refusal = encodeFrame(
          FrameType::Error,
          formatString("session budget exhausted (max %u sessions)\n",
                       Opts.MaxSessions));
      (void)::write(Fd, Refusal.data(), Refusal.size());
      ::close(Fd);
      serverCounter("server.sessions_refused").inc();
      continue;
    }
    setNonBlocking(Fd);
    auto S = std::make_unique<Session>();
    S->Id = NextSessionId++;
    S->Fd = Fd;
    S->LastActivity = monotonicSeconds();
    queueFrame(*S, FrameType::Welcome, "rvpredictd 1\n");
    serverCounter("server.sessions_opened").inc();
    Sessions.emplace(S->Id, std::move(S));
  }
}

// ------------------------------------------------------------------ read

void Server::Impl::readSocket(Session &S) {
  char Buf[65536];
  bool Eof = false;
  size_t PassBytes = 0;
  for (;;) {
    ssize_t N = ::read(S.Fd, Buf, sizeof(Buf));
    if (N > 0) {
      S.LastActivity = monotonicSeconds();
      S.Decoder.feed(std::string_view(Buf, static_cast<size_t>(N)));
      PassBytes += static_cast<size_t>(N);
      // Bound one pass at the high watermark so a client that writes
      // faster than we drain cannot pin this loop: decode what arrived
      // and let updatePause judge first — poll is level-triggered, so
      // anything left in the kernel buffer re-fires immediately.
      if (PassBytes >= Opts.HighWatermark)
        break;
      if (static_cast<size_t>(N) < sizeof(Buf))
        break;
      continue;
    }
    if (N == 0) {
      Eof = true;
      break;
    }
    if (errno == EINTR)
      continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      break;
    serverCounter("server.sessions_errored").inc();
    teardown(S);
    return;
  }

  // Decode before judging the EOF: a client that sends FIN and closes in
  // one burst delivers the FIN frame and the EOF in the same read pass.
  Frame F;
  std::string Error;
  for (;;) {
    FrameDecoder::Result R = S.Decoder.next(F, Error);
    if (R == FrameDecoder::Result::NeedMore)
      break;
    if (R == FrameDecoder::Result::Malformed) {
      serverCounter("server.frames_rejected").inc();
      sessionError(S, "malformed frame: " + Error);
      return;
    }
    if (!handleFrame(S, F))
      return; // the frame handler already tore the session down
  }
  if (Eof) {
    S.ReadClosed = true; // stop polling for input (else EOF spins)
    // After FIN this is the client half-closing while it waits for its
    // summary; before FIN the client vanished mid-stream.
    if (!S.FinReceived && !S.Draining) {
      serverCounter("server.sessions_errored").inc();
      teardown(S);
      return;
    }
  }
  pump(S);
}

bool Server::Impl::handleFrame(Session &S, Frame &F) {
  switch (F.Type) {
  case FrameType::Hello: {
    if (S.GotHello) {
      sessionError(S, "duplicate HELLO");
      return false;
    }
    std::string Error;
    if (!applyHello(S, F.Payload, Error)) {
      sessionError(S, Error);
      return false;
    }
    S.GotHello = true;
    return true;
  }
  case FrameType::Data:
    if (!S.GotHello) {
      sessionError(S, "DATA before HELLO");
      return false;
    }
    if (S.FinReceived) {
      sessionError(S, "DATA after FIN");
      return false;
    }
    S.Inbox.append(F.Payload);
    return true;
  case FrameType::Fin:
    if (!S.GotHello) {
      sessionError(S, "FIN before HELLO");
      return false;
    }
    S.FinReceived = true;
    return true;
  case FrameType::Welcome:
  case FrameType::Report:
  case FrameType::Summary:
  case FrameType::Error:
    sessionError(S, formatString("unexpected client frame type '%c'",
                                 static_cast<char>(F.Type)));
    return false;
  }
  return true;
}

// ----------------------------------------------------------------- hello

bool Server::Impl::applyHello(Session &S, std::string_view Payload,
                              std::string &Error) {
  // HELLO overrides a subset of the analysis keys the batch CLI takes,
  // through the same parser and combination rules (detect/Stream.h); a bad
  // value answers with an ERROR frame where the CLI exits 2.
  static constexpr std::string_view AnalysisKeys[] = {
      "property", "technique", "tier", "window", "budget", "skip-bad-events"};
  StreamOptions SO = Opts.Stream;
  std::string CkptKey;

  for (std::string_view Line : split(Payload, '\n')) {
    for (std::string_view Tok : split(trim(Line), ' ')) {
      if (Tok.empty())
        continue;
      size_t Eq = Tok.find('=');
      if (Eq == std::string_view::npos) {
        Error = "malformed HELLO option '" + std::string(Tok) +
                "' (expected key=value)";
        return false;
      }
      std::string_view Key = Tok.substr(0, Eq);
      std::string_view Val = Tok.substr(Eq + 1);
      if (Key == "ckpt") {
        if (Val.empty() ||
            Val.find_first_not_of("abcdefghijklmnopqrstuvwxyz"
                                  "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                                  "0123456789_-") != std::string::npos) {
          Error = "ckpt key must be non-empty [A-Za-z0-9_-]";
          return false;
        }
        CkptKey = Val;
      } else if (std::find(std::begin(AnalysisKeys), std::end(AnalysisKeys),
                           Key) == std::end(AnalysisKeys)) {
        Error = "unknown HELLO option '" + std::string(Key) + "'";
        return false;
      } else if (!setAnalysisOption(SO, Key, Val, Error)) {
        return false;
      }
    }
  }
  if (!finishAnalysisOptions(SO, Error))
    return false;
  if (Opts.WindowDeadlineSeconds > 0)
    SO.Detect.PerCopBudgetSeconds =
        std::min(SO.Detect.PerCopBudgetSeconds, Opts.WindowDeadlineSeconds);
  SO.Detect.Jobs = 1; // sessions parallelize across the daemon pool

  std::string Snapshot;
  int64_t Last = -1;
  if (!CkptKey.empty() && !Opts.CheckpointRoot.empty()) {
    // Recovery fingerprint pins the session flags (the trace is still
    // streaming in, so unlike batch mode it cannot be pinned here; a
    // snapshot that does not fit the replayed trace fails the next step
    // with "resume state does not match the replayed trace").
    uint64_t Fingerprint = checkpointHash(formatString(
        "server property=%d technique=%s window=%u tier=%s",
        static_cast<int>(SO.Property), techniqueName(SO.Tech),
        SO.Detect.WindowSize, tierName(SO.Detect.Tier)));
    S.Ckpt = std::make_unique<CheckpointStore>(
        Opts.CheckpointRoot + "/" + CkptKey, Fingerprint);
    CheckpointLoad Outcome = CheckpointLoad::None;
    Last = S.Ckpt->loadLatest(Snapshot, &Outcome);
    if (Outcome == CheckpointLoad::FingerprintMismatch) {
      // The batch CLI exits 2 here; the daemon must never exit for one
      // client, so the session gets the equivalent typed refusal.
      Error = "checkpoint directory holds snapshots from a different "
              "analysis; rerun with the original options or a fresh key";
      return false;
    }
  }

  S.Det = std::make_unique<StreamDetector>(std::move(SO));
  if (Last >= 0) {
    // The detector holds analysis until the replayed prefix covers the
    // recovered windows, then continues after them.
    S.Det->restore(std::move(Snapshot), static_cast<uint64_t>(Last) + 1);
    serverCounter("server.sessions_recovered").inc();
  }
  return true;
}

// ------------------------------------------------------------------ pump

uint64_t Server::Impl::globalPending() const {
  uint64_t Total = 0;
  for (const auto &[Id, S] : Sessions)
    Total += S->PendingCache + (S->InFlight ? 1 : 0);
  return Total;
}

void Server::Impl::pump(Session &S) {
  if (S.Dead || S.Draining || !S.GotHello || !S.Det)
    return;
  if (S.InFlight) {
    // A worker owns the detector, so nothing drains Inbox until the
    // completion comes back — the byte watermark must stay live here or
    // a fast client grows the buffer without bound for the whole window
    // analysis (this path is exactly what the high watermark is for).
    updatePause(S);
    return;
  }

  if (!S.Inbox.empty()) {
    S.Det->feed(S.Inbox);
    S.Inbox.clear();
    std::string ParseError;
    if (!S.Det->checkParse(ParseError)) {
      sessionError(S, "trace error: " + ParseError);
      return;
    }
  }

  S.PendingCache = S.Det->pendingWindows();
  if (S.Det->windowReady()) {
    bool Degrade = Opts.DegradeThreshold != 0 &&
                   globalPending() > Opts.DegradeThreshold;
    submit(S, /*Finish=*/false, Degrade);
  } else if (S.FinReceived) {
    submit(S, /*Finish=*/true, /*Degrade=*/false);
  }
  updatePause(S);
}

void Server::Impl::submit(Session &S, bool Finish, bool Degrade) {
  S.InFlight = true;
  StreamDetector *Det = S.Det.get();
  uint64_t Id = S.Id;
  Pool->submit([this, Det, Id, Finish, Degrade] {
    // Sessions run concurrently: their phase timers go to a tree of this
    // task's own (the daemon reports counters, not phases).
    PhaseTree Phases;
    ThreadPhaseScope Scope(&Phases);
    Completion C;
    C.SessionId = Id;
    C.Finish = Finish;
    try {
      if (FaultInjector::shouldFail(faults::ServerWorkerAbort))
        throw std::runtime_error("injected worker abort");
      std::string Error;
      if (Finish) {
        C.Ok = Det->finish(C.Summary, Error, &C.TailSteps);
      } else {
        // Drill hook: a slow window analysis, long enough that a client
        // keeps uploading the whole time — how the byte watermark is hit.
        if (FaultInjector::shouldFail(faults::ServerWorkerStall))
          std::this_thread::sleep_for(std::chrono::milliseconds(600));
        C.Ok = Det->step(C.Step, Degrade, Error);
      }
      C.Error = Error;
    } catch (const std::exception &E) {
      C.Aborted = true;
      C.Error = E.what();
    } catch (...) {
      C.Aborted = true;
      C.Error = "unknown exception";
    }
    {
      std::lock_guard<std::mutex> Guard(DoneMutex);
      Done.push_back(std::move(C));
    }
    wake();
  });
}

void Server::Impl::handleCompletion(Completion &C) {
  auto It = Sessions.find(C.SessionId);
  if (It == Sessions.end())
    return;
  Session &S = *It->second;
  S.InFlight = false;
  if (S.Dead) {
    teardown(S); // deferred teardown now that the worker let go
    return;
  }
  if (C.Aborted) {
    serverCounter("server.worker_aborts").inc();
    sessionError(S, "analysis aborted: " + C.Error);
    return;
  }
  if (!C.Ok && !C.Error.empty()) {
    sessionError(S, "trace error: " + C.Error);
    return;
  }
  if (C.Finish) {
    for (const StreamStep &Step : C.TailSteps)
      queueReport(S, Step);
    queueFrame(S, FrameType::Summary, C.Summary);
    serverCounter("server.sessions_completed").inc();
    S.Draining = true;
    flushOut(S);
    return;
  }
  if (C.Ok) {
    queueReport(S, C.Step);
    if (S.Dead)
      return; // a torn write during the report killed the session
    if (S.Ckpt && S.Ckpt->enabled())
      S.Ckpt->save(S.Det->run().WindowsDone - 1, S.Det->state());
  }
  pump(S);
}

// ---------------------------------------------------------------- output

void Server::Impl::queueFrame(Session &S, FrameType Type,
                              std::string_view Payload) {
  S.OutBuf += encodeFrame(Type, Payload);
  flushOut(S);
}

void Server::Impl::queueReport(Session &S, const StreamStep &Step) {
  serverCounter("server.windows_analyzed").inc();
  if (Step.Degraded)
    serverCounter("server.degraded_windows").inc();
  std::string Payload = formatString(
      "window %llu %s findings=%zu unknowns=%zu\n",
      static_cast<unsigned long long>(Step.Window),
      Step.Degraded ? "degraded" : "ok", Step.NewFindings,
      Step.NewUnknowns);
  Payload += Step.Delta;
  queueFrame(S, FrameType::Report, Payload);
}

void Server::Impl::sessionError(Session &S, const std::string &Message) {
  serverCounter("server.sessions_errored").inc();
  // Quarantine: one typed diagnostic, stop reading, close once it
  // flushes. The error never escalates past this session.
  queueFrame(S, FrameType::Error, Message + "\n");
  S.Draining = true;
  flushOut(S);
}

bool Server::Impl::flushOut(Session &S) {
  if (S.Dead)
    return false;
  while (!S.OutBuf.empty()) {
    // Injected transport failure mid-write: the drills prove the daemon
    // treats a torn write like any peer reset — this session dies, the
    // rest keep streaming.
    if (FaultInjector::shouldFail(faults::NetShortWrite)) {
      serverCounter("server.sessions_errored").inc();
      teardown(S);
      return false;
    }
    ssize_t N = ::write(S.Fd, S.OutBuf.data(), S.OutBuf.size());
    if (N > 0) {
      // Write progress counts as activity: the draining timeout below
      // must only reap peers that stopped reading, not slow ones.
      S.LastActivity = monotonicSeconds();
      S.OutBuf.erase(0, static_cast<size_t>(N));
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return true; // poll for POLLOUT and drain later
    serverCounter("server.sessions_errored").inc();
    teardown(S);
    return false;
  }
  if (S.Draining && S.OutBuf.empty())
    teardown(S);
  return !S.Dead;
}

void Server::Impl::teardown(Session &S) {
  if (S.InFlight) {
    // A worker still owns the detector; close nothing it may touch.
    // handleCompletion finishes the teardown when the task returns.
    S.Dead = true;
    return;
  }
  if (S.Fd >= 0) {
    ::close(S.Fd);
    S.Fd = -1;
    serverCounter("server.sessions_closed").inc();
  }
  S.Dead = true;
}

// ------------------------------------------------------------- pressure

void Server::Impl::updatePause(Session &S) {
  if (S.Dead || S.Draining)
    return;
  // Two bounds: Inbox bytes accumulate while a worker holds the detector
  // (pump drains them to zero once it returns), and the pending-window
  // budget covers bytes already fed but not yet analyzed. Together they
  // keep per-session ingest bounded no matter how fast the client is.
  bool Pause;
  if (S.Paused)
    // Hysteresis: resume only once both signals are comfortably below
    // their high marks, so a session does not flap at the boundary.
    Pause = S.Inbox.size() > Opts.LowWatermark ||
            S.PendingCache >= Opts.MaxQueuedWindows;
  else
    Pause = S.Inbox.size() >= Opts.HighWatermark ||
            S.PendingCache >= Opts.MaxQueuedWindows;
  if (Pause && !S.Paused)
    serverCounter("server.backpressure_events").inc();
  S.Paused = Pause;
}

void Server::Impl::checkTimeouts(double Now) {
  for (auto &[Id, SP] : Sessions) {
    Session &S = *SP;
    if (S.Dead || S.InFlight)
      continue;
    double Quiet = Now - S.LastActivity;
    if (S.Draining) {
      // Write-side timeout: a Draining session persists only while its
      // OutBuf waits on the peer, so a client that never reads its
      // SUMMARY would otherwise hold a slot and fd forever (and wedge a
      // SIGTERM drain). flushOut refreshes LastActivity on progress.
      if (Opts.IdleTimeoutSeconds > 0 && Quiet > Opts.IdleTimeoutSeconds) {
        serverCounter("server.drain_timeouts").inc();
        teardown(S);
      }
      continue;
    }
    if (Opts.StallTimeoutSeconds > 0 && S.Decoder.midFrame() &&
        Quiet > Opts.StallTimeoutSeconds) {
      serverCounter("server.stall_timeouts").inc();
      sessionError(S, formatString("stalled mid-frame for %.1fs", Quiet));
      continue;
    }
    if (Opts.IdleTimeoutSeconds > 0 && !S.FinReceived &&
        S.PendingCache == 0 && Quiet > Opts.IdleTimeoutSeconds) {
      serverCounter("server.idle_timeouts").inc();
      sessionError(S, formatString("idle for %.1fs", Quiet));
    }
  }
}

// -------------------------------------------------------------- run loop

int Server::Impl::run() {
  std::vector<pollfd> Polls;
  std::vector<uint64_t> PollSession; // parallel to Polls; 0 = not a session
  double DrainStart = 0;
  while (true) {
    bool Stopping = Stop.load(std::memory_order_relaxed);
    if (Stopping && !ListenersClosed) {
      DrainStart = monotonicSeconds();
      // Drain: stop accepting, force-FIN every live session so each gets
      // a summary over what it sent, and close handshake stragglers.
      if (UnixFd >= 0)
        ::close(UnixFd);
      if (TcpFd >= 0)
        ::close(TcpFd);
      UnixFd = TcpFd = -1;
      ListenersClosed = true;
      for (auto &[Id, SP] : Sessions) {
        Session &S = *SP;
        if (S.Dead || S.Draining)
          continue;
        if (!S.GotHello) {
          teardown(S);
          continue;
        }
        S.FinReceived = true;
        pump(S);
      }
    }

    // Sweep sessions torn down in the previous iteration.
    for (auto It = Sessions.begin(); It != Sessions.end();)
      It = It->second->Dead && !It->second->InFlight ? Sessions.erase(It)
                                                     : std::next(It);
    if (Stopping && Sessions.empty())
      return ExitSuccess;
    if (Stopping && Opts.DrainTimeoutSeconds > 0 &&
        monotonicSeconds() - DrainStart > Opts.DrainTimeoutSeconds) {
      // The drain must terminate even if a client never reads its
      // summary or a worker is wedged: drop whatever is left. In-flight
      // sessions are only marked Dead here; the pool joins in the
      // destructor before any session memory is released.
      serverCounter("server.drain_forced").inc();
      for (auto &[Id, SP] : Sessions)
        teardown(*SP);
      return ExitSuccess;
    }

    Polls.clear();
    PollSession.clear();
    Polls.push_back({WakeR, POLLIN, 0});
    PollSession.push_back(0);
    if (UnixFd >= 0) {
      Polls.push_back({UnixFd, POLLIN, 0});
      PollSession.push_back(0);
    }
    if (TcpFd >= 0) {
      Polls.push_back({TcpFd, POLLIN, 0});
      PollSession.push_back(0);
    }
    for (auto &[Id, SP] : Sessions) {
      Session &S = *SP;
      if (S.Dead || S.Fd < 0)
        continue;
      short Events = 0;
      if (!Stopping && !S.Paused && !S.Draining && !S.ReadClosed)
        Events |= POLLIN;
      if (!S.OutBuf.empty())
        Events |= POLLOUT;
      Polls.push_back({S.Fd, Events, 0});
      PollSession.push_back(Id);
    }

    int N = ::poll(Polls.data(), static_cast<nfds_t>(Polls.size()), 100);
    if (N < 0 && errno != EINTR)
      return ExitInternal;

    if (Polls[0].revents & POLLIN) {
      char Sink[256];
      while (::read(WakeR, Sink, sizeof(Sink)) > 0) {
      }
    }

    // Worker completions first: they free sessions for the pump below.
    for (;;) {
      Completion C;
      {
        std::lock_guard<std::mutex> Guard(DoneMutex);
        if (Done.empty())
          break;
        C = std::move(Done.front());
        Done.pop_front();
      }
      handleCompletion(C);
    }

    for (size_t I = 1; I < Polls.size(); ++I) {
      if (Polls[I].revents == 0)
        continue;
      if (PollSession[I] == 0) {
        acceptClients(Polls[I].fd);
        continue;
      }
      auto It = Sessions.find(PollSession[I]);
      if (It == Sessions.end())
        continue;
      Session &S = *It->second;
      if (S.Dead)
        continue;
      if (Polls[I].revents & POLLOUT)
        if (!flushOut(S))
          continue;
      if (Polls[I].revents & POLLIN)
        readSocket(S);
      if (S.Dead)
        continue;
      if (Polls[I].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        // HUP with FIN already received is the client half-closing while
        // it waits for its summary — keep going. Anything else is a drop.
        if (!S.FinReceived && !S.Draining) {
          serverCounter("server.sessions_errored").inc();
          teardown(S);
        }
      }
    }

    double Now = monotonicSeconds();
    checkTimeouts(Now);

    // Pump everything idle: newly fed sessions, sessions whose worker
    // finished, sessions unblocked by the watermark hysteresis.
    for (auto &[Id, SP] : Sessions)
      pump(*SP);
  }
}

// ------------------------------------------------------------ public api

Server::Server(ServerOptions Opts) : M(new Impl(std::move(Opts))) {}

Server::~Server() {
  // The pool drains first: in-flight tasks may still touch sessions and
  // the wake pipe, so both must outlive the workers.
  M->Pool.reset();
  if (M->UnixFd >= 0)
    ::close(M->UnixFd);
  if (M->TcpFd >= 0)
    ::close(M->TcpFd);
  if (M->WakeR >= 0)
    ::close(M->WakeR);
  if (M->WakeW >= 0)
    ::close(M->WakeW);
  // Unlink only a path this instance actually bound — a start() refused
  // because a live daemon serves the path must not remove its socket.
  if (M->OwnsSocketPath)
    ::unlink(M->Opts.SocketPath.c_str());
  delete M;
}

bool Server::start(std::string &Error) { return M->start(Error); }

int Server::run() { return M->run(); }

void Server::requestStop() {
  M->Stop.store(true, std::memory_order_relaxed);
  M->wake();
}
