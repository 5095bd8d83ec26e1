//===- support/Telemetry.cpp - Phase tracing and trace events ---------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Telemetry.h"

#include "support/MemStats.h"
#include "support/StringUtils.h"

#include <cassert>

using namespace rvp;

// ---------------------------------------------------------- PhaseSnapshot

double PhaseSnapshot::childSeconds() const {
  double Sum = 0;
  for (const PhaseSnapshot &C : Children)
    Sum += C.Seconds;
  return Sum;
}

const PhaseSnapshot *PhaseSnapshot::find(std::string_view PhaseName) const {
  if (Name == PhaseName)
    return this;
  for (const PhaseSnapshot &C : Children)
    if (const PhaseSnapshot *Found = C.find(PhaseName))
      return Found;
  return nullptr;
}

std::string PhaseSnapshot::toJson() const {
  JsonObject O;
  O.field("name", Name).field("seconds", Seconds).field("count", Count);
  std::string Kids = "[";
  for (size_t I = 0; I < Children.size(); ++I) {
    if (I)
      Kids += ",";
    Kids += Children[I].toJson();
  }
  Kids += "]";
  O.raw("children", Kids);
  return O.str();
}

void PhaseSnapshot::renderInto(std::string &Out, unsigned Indent) const {
  Out += formatString("%*s%-*s %10.6fs x%llu\n", Indent, "",
                      static_cast<int>(Indent < 30 ? 30 - Indent : 1),
                      Name.c_str(), Seconds,
                      static_cast<unsigned long long>(Count));
  for (const PhaseSnapshot &C : Children)
    C.renderInto(Out, Indent + 2);
}

// -------------------------------------------------------------- PhaseTree

void PhaseTree::enter(const char *Name) {
  Node *Parent = Stack.back();
  for (const std::unique_ptr<Node> &C : Parent->Children) {
    if (C->Name == Name) {
      Stack.push_back(C.get());
      return;
    }
  }
  Parent->Children.push_back(std::make_unique<Node>());
  Node *Fresh = Parent->Children.back().get();
  Fresh->Name = Name;
  Stack.push_back(Fresh);
}

void PhaseTree::exit(double Seconds) {
  assert(Stack.size() > 1 && "phase exit without matching enter");
  Node *Current = Stack.back();
  Current->Seconds += Seconds;
  ++Current->Count;
  Stack.pop_back();
}

void PhaseTree::snapshotInto(const Node &N, PhaseSnapshot &Out) {
  Out.Name = N.Name;
  Out.Seconds = N.Seconds;
  Out.Count = N.Count;
  Out.Children.resize(N.Children.size());
  for (size_t I = 0; I < N.Children.size(); ++I)
    snapshotInto(*N.Children[I], Out.Children[I]);
}

PhaseSnapshot PhaseTree::snapshot() const {
  PhaseSnapshot S;
  snapshotInto(*Root, S);
  // The synthetic root's time is the sum over completed top-level phases.
  S.Seconds = S.childSeconds();
  S.Count = 0;
  for (const PhaseSnapshot &C : S.Children)
    S.Count += C.Count;
  return S;
}

void PhaseTree::absorbInto(Node &Dst, const Node &Src) {
  for (const std::unique_ptr<Node> &C : Src.Children) {
    Node *Match = nullptr;
    for (const std::unique_ptr<Node> &D : Dst.Children) {
      if (D->Name == C->Name) {
        Match = D.get();
        break;
      }
    }
    if (!Match) {
      Dst.Children.push_back(std::make_unique<Node>());
      Match = Dst.Children.back().get();
      Match->Name = C->Name;
    }
    Match->Seconds += C->Seconds;
    Match->Count += C->Count;
    absorbInto(*Match, *C);
  }
}

void PhaseTree::absorb(const PhaseTree &Other) {
  absorbInto(*Stack.back(), *Other.Root);
}

void PhaseTree::reset() {
  Root = std::make_unique<Node>();
  Root->Name = "total";
  Stack.assign(1, Root.get());
}

// --------------------------------------------------------- TraceEventSink

bool TraceEventSink::open(const std::string &Path, std::string &Error) {
  close();
  if (Path == "-") {
    // Buffer stdout events and flush them as one marked block at close():
    // writing them live would interleave with the report and any
    // `--stats-json=-` object mid-run.
    BufferToStdout = true;
    return true;
  }
  File = std::fopen(Path.c_str(), "w");
  if (!File) {
    Error = "cannot open '" + Path + "' for writing";
    return false;
  }
  OwnsFile = true;
  return true;
}

void TraceEventSink::write(const JsonObject &Event) {
  if (!File && !BufferToStdout)
    return;
  std::string Line = Event.str();
  Line += "\n";
  if (BufferToStdout)
    Buffer += Line;
  else
    std::fwrite(Line.data(), 1, Line.size(), File);
  ++Written;
}

void TraceEventSink::close() {
  if (BufferToStdout) {
    // Marker first, even with zero events, so splitters always find the
    // block boundary.
    std::fputs(StdoutMarker, stdout);
    std::fputc('\n', stdout);
    std::fwrite(Buffer.data(), 1, Buffer.size(), stdout);
    std::fflush(stdout);
    Buffer.clear();
    BufferToStdout = false;
  }
  if (File && OwnsFile)
    std::fclose(File);
  File = nullptr;
  OwnsFile = false;
}

// -------------------------------------------------------------- Telemetry

bool Telemetry::EnabledFlag = false;
constinit thread_local PhaseTree *Telemetry::ThreadPhases = nullptr;

Telemetry &Telemetry::instance() {
  static Telemetry T;
  return T;
}

TelemetrySnapshot Telemetry::snapshot() const {
  TelemetrySnapshot S;
  S.Captured = true;
  S.Metrics = MetricsRegistry::global().snapshot();
  S.Phases = Phases.snapshot();
  return S;
}

void Telemetry::reset() {
  MetricsRegistry::global().reset();
  MemStats::reset();
  Phases.reset();
}
