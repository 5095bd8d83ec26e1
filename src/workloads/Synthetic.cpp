//===- workloads/Synthetic.cpp - Synthetic real-system traces ---------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads/Synthetic.h"

#include "support/Random.h"
#include "support/StringUtils.h"
#include "trace/TraceBuilder.h"

#include <algorithm>
#include <deque>
#include <functional>

using namespace rvp;

namespace {

/// One pattern instance: an ordered list of event-emitting steps whose
/// internal order must be preserved by the interleaver.
using Step = std::function<void(TraceBuilder &)>;
/// A pattern factory: instantiated with the two threads it runs on when
/// its cluster is emitted.
using PatternFactory =
    std::function<std::vector<Step>(std::string, std::string)>;

class Generator {
public:
  explicit Generator(const SyntheticSpec &Spec) : Spec(Spec), R(Spec.Seed) {}

  Trace run() {
    makeThreads();
    makePatterns();
    emitSkeletonHead();
    emitBody();
    emitSkeletonTail();
    Trace T = B.build();
    return T;
  }

private:
  // ------------------------------------------------------------ threads
  void makeThreads() {
    Threads.push_back("main");
    for (uint32_t I = 0; I < Spec.Workers; ++I)
      Threads.push_back(formatString("w%u", I + 1));
    LastFillerValue.assign(Threads.size(), 0);
  }

  const std::string &worker(uint32_t I) const {
    return Threads[1 + I % Spec.Workers];
  }

  /// Workers are split into pattern threads and filler threads: branch
  /// events are only emitted on filler threads, so no filler branch ever
  /// guards a pattern access (which would add read-concreteness
  /// constraints and change the expected per-technique counts).
  uint32_t numPatternWorkers() const {
    return std::min(Spec.Workers,
                    std::max<uint32_t>(4, Spec.Workers / 2) & ~1u);
  }

  /// Pattern threads are used in disjoint pairs; patterns within one
  /// cluster always run on distinct pairs, so critical sections of
  /// different patterns can never chain through program order (which
  /// would trigger CP's rule (b) across patterns or couple Said queries).
  uint32_t numPairs() const { return std::max(1u, numPatternWorkers() / 2); }

  std::pair<std::string, std::string> pairThreads(uint32_t PairIndex) {
    uint32_t P = PairIndex % numPairs();
    return {worker(2 * P), worker(2 * P + 1)};
  }

  void makePatterns() {
    auto add = [&](PatternFactory Factory) {
      Factories.push_back(std::move(Factory));
    };

    for (uint32_t I = 0; I < Spec.PlainRaces; ++I) {
      std::string X = formatString("plain%u", I);
      std::string La = formatString("plain%u_a", I);
      std::string Lb = formatString("plain%u_b", I);
      add([=](std::string Ta, std::string Tb) -> std::vector<Step> {
        return {[=](TraceBuilder &B) { B.write(Ta, X, 1, La); },
                [=](TraceBuilder &B) { B.write(Tb, X, 2, Lb); }};
      });
    }

    for (uint32_t I = 0; I < Spec.CpOnlyRaces; ++I) {
      std::string X = formatString("cp%u_x", I);
      std::string Z = formatString("cp%u_z", I);
      std::string W = formatString("cp%u_w", I);
      std::string L = formatString("cp%u_l", I);
      std::string La = formatString("cp%u_a", I);
      std::string Lb = formatString("cp%u_b", I);
      add([=](std::string Ta, std::string Tb) -> std::vector<Step> {
        return {[=](TraceBuilder &B) { B.write(Ta, X, 1, La); },
                [=](TraceBuilder &B) { B.acquire(Ta, L); },
                [=](TraceBuilder &B) { B.write(Ta, Z, 1); },
                [=](TraceBuilder &B) { B.release(Ta, L); },
                [=](TraceBuilder &B) { B.acquire(Tb, L); },
                [=](TraceBuilder &B) { B.write(Tb, W, 2); },
                [=](TraceBuilder &B) { B.release(Tb, L); },
                [=](TraceBuilder &B) { B.write(Tb, X, 2, Lb); }};
      });
    }

    for (uint32_t I = 0; I < Spec.SaidOnlyRaces; ++I) {
      std::string X = formatString("said%u_x", I);
      std::string Z = formatString("said%u_z", I);
      std::string L = formatString("said%u_l", I);
      std::string La = formatString("said%u_a", I);
      std::string Lb = formatString("said%u_b", I);
      add([=](std::string Ta, std::string Tb) -> std::vector<Step> {
        return {[=](TraceBuilder &B) { B.write(Ta, X, 1, La); },
                [=](TraceBuilder &B) { B.acquire(Ta, L); },
                [=](TraceBuilder &B) { B.write(Ta, Z, 1); },
                [=](TraceBuilder &B) { B.release(Ta, L); },
                [=](TraceBuilder &B) { B.acquire(Tb, L); },
                [=](TraceBuilder &B) { B.write(Tb, Z, 2); },
                [=](TraceBuilder &B) { B.release(Tb, L); },
                [=](TraceBuilder &B) { B.write(Tb, X, 2, Lb); }};
      });
    }

    if (Spec.HbNotSaidRaces > 0) {
      // One instance holds every hbNotSaid race. Ta writes each x_i, then
      // the flag f; Tb reads f, then each x_i, and every read keeps the
      // value Ta wrote. Keeping Tb's read of f forces f's write and read
      // between x_i's write and read, so Said (which keeps every read's
      // value) refutes each x_i pair. HB and CP see no synchronization,
      // and RV keeps no read no branch depends on, so all three report
      // every x_i pair. The flag pair itself races for every technique.
      std::string F = "hbns_f";
      uint32_t N = Spec.HbNotSaidRaces;
      add([=](std::string Ta, std::string Tb) -> std::vector<Step> {
        std::vector<Step> Steps;
        for (uint32_t I = 0; I < N; ++I)
          Steps.push_back([=](TraceBuilder &B) {
            B.write(Ta, formatString("hbns%u_x", I), 1,
                    formatString("hbns%u_a", I));
          });
        Steps.push_back([=](TraceBuilder &B) { B.write(Ta, F, 1); });
        Steps.push_back([=](TraceBuilder &B) { B.read(Tb, F, 1); });
        for (uint32_t I = 0; I < N; ++I)
          Steps.push_back([=](TraceBuilder &B) {
            B.read(Tb, formatString("hbns%u_x", I), 1,
                   formatString("hbns%u_b", I));
          });
        return Steps;
      });
    }

    for (uint32_t I = 0; I < Spec.RvOnlyRaces; ++I) {
      std::string X = formatString("rv%u_x", I);
      std::string Y = formatString("rv%u_y", I);
      std::string L = formatString("rv%u_l", I);
      std::string La = formatString("rv%u_a", I);
      std::string Lb = formatString("rv%u_b", I);
      add([=](std::string Ta, std::string Tb) -> std::vector<Step> {
        return {[=](TraceBuilder &B) { B.acquire(Ta, L); },
                [=](TraceBuilder &B) { B.write(Ta, X, 1, La); },
                [=](TraceBuilder &B) { B.write(Ta, Y, 1); },
                [=](TraceBuilder &B) { B.release(Ta, L); },
                [=](TraceBuilder &B) { B.acquire(Tb, L); },
                [=](TraceBuilder &B) { B.read(Tb, Y, 1); },
                [=](TraceBuilder &B) { B.release(Tb, L); },
                [=](TraceBuilder &B) { B.read(Tb, X, 1, Lb); }};
      });
    }

    for (uint32_t I = 0; I < Spec.QcOnlyPairs; ++I) {
      std::string Idx = formatString("qc%u_i", I);
      std::string Arr = formatString("qc%u_arr", I);
      std::string L = formatString("qc%u_l", I);
      std::string La = formatString("qc%u_a", I);
      std::string Lb = formatString("qc%u_b", I);
      add([=](std::string Ta, std::string Tb) -> std::vector<Step> {
        return {[=](TraceBuilder &B) { B.acquire(Ta, L); },
                [=](TraceBuilder &B) { B.read(Ta, Idx, 0); },
                [=](TraceBuilder &B) { B.branch(Ta); },
                [=](TraceBuilder &B) { B.write(Ta, Arr, 2, La); },
                [=](TraceBuilder &B) { B.release(Ta, L); },
                [=](TraceBuilder &B) { B.acquire(Tb, L); },
                [=](TraceBuilder &B) { B.write(Tb, Idx, 1); },
                [=](TraceBuilder &B) { B.release(Tb, L); },
                [=](TraceBuilder &B) { B.write(Tb, Arr, 1, Lb); }};
      });
    }

    for (uint32_t I = 0; I < Spec.AtomicityPairs; ++I) {
      std::string V = formatString("atom%u_v", I);
      std::string L = formatString("atom%u_l", I);
      std::string La = formatString("atom%u_r", I);
      std::string Lb = formatString("atom%u_w", I);
      std::string Lc = formatString("atom%u_x", I);
      add([=](std::string Ta, std::string Tb) -> std::vector<Step> {
        return {[=](TraceBuilder &B) { B.acquire(Ta, L); },
                [=](TraceBuilder &B) { B.read(Ta, V, 0, La); },
                [=](TraceBuilder &B) { B.write(Ta, V, 1, Lb); },
                [=](TraceBuilder &B) { B.release(Ta, L); },
                [=](TraceBuilder &B) { B.write(Tb, V, 7, Lc); }};
      });
    }

    for (uint32_t I = 0; I < Spec.DeadlockCycles; ++I) {
      std::string La = formatString("dl%u_a", I);
      std::string Lb = formatString("dl%u_b", I);
      std::string R1 = formatString("dl%u_r1", I);
      std::string R2 = formatString("dl%u_r2", I);
      add([=](std::string Ta, std::string Tb) -> std::vector<Step> {
        return {[=](TraceBuilder &B) { B.acquire(Ta, La); },
                [=](TraceBuilder &B) { B.acquire(Ta, Lb, R1); },
                [=](TraceBuilder &B) { B.release(Ta, Lb); },
                [=](TraceBuilder &B) { B.release(Ta, La); },
                [=](TraceBuilder &B) { B.acquire(Tb, Lb); },
                [=](TraceBuilder &B) { B.acquire(Tb, La, R2); },
                [=](TraceBuilder &B) { B.release(Tb, La); },
                [=](TraceBuilder &B) { B.release(Tb, Lb); }};
      });
    }

    for (uint32_t I = 0; I < Spec.OrderedPairs; ++I) {
      std::string X = formatString("ord%u_x", I);
      std::string L = formatString("ord%u_l", I);
      add([=](std::string Ta, std::string Tb) -> std::vector<Step> {
        return {[=](TraceBuilder &B) { B.acquire(Ta, L); },
                [=](TraceBuilder &B) { B.write(Ta, X, 1); },
                [=](TraceBuilder &B) { B.release(Ta, L); },
                [=](TraceBuilder &B) { B.acquire(Tb, L); },
                [=](TraceBuilder &B) { B.write(Tb, X, 2); },
                [=](TraceBuilder &B) { B.release(Tb, L); }};
      });
    }

    // Deterministic shuffle so pattern classes mix across the trace.
    for (size_t I = Factories.size(); I > 1; --I)
      std::swap(Factories[I - 1], Factories[R.below(I)]);
  }

  // ------------------------------------------------------------- filler
  void emitFiller(uint32_t Count) {
    for (uint32_t I = 0; I < Count; ++I) {
      uint32_t W = static_cast<uint32_t>(R.below(Spec.Workers));
      const std::string &Tid = Threads[1 + W];
      std::string Var = formatString("priv_w%u", W + 1);
      std::string Lock = formatString("privl_w%u", W + 1);
      uint64_t Dice = R.below(100);
      bool BranchAllowed = W >= numPatternWorkers();
      if (BranchAllowed && Dice < Spec.BranchPercent) {
        B.branch(Tid, formatString("fb%u", W));
      } else if (Dice < Spec.BranchPercent + Spec.SyncPercent) {
        // A tiny private critical section (4 events).
        B.acquire(Tid, Lock, formatString("fa%u", W));
        B.write(Tid, Var, ++LastFillerValue[1 + W],
                formatString("fw%u", W));
        B.release(Tid, Lock, formatString("fr%u", W));
        I += 2;
      } else if (R.chance(1, 2)) {
        B.write(Tid, Var, ++LastFillerValue[1 + W],
                formatString("fw%u", W));
      } else {
        B.read(Tid, Var, LastFillerValue[1 + W], formatString("fd%u", W));
      }
    }
  }

  // ------------------------------------------------------------ skeleton
  void emitSkeletonHead() {
    B.begin("main", "sk0");
    for (uint32_t I = 0; I < Spec.Workers; ++I) {
      B.fork("main", Threads[1 + I], formatString("skf%u", I));
      B.begin(Threads[1 + I], formatString("skb%u", I));
    }
  }

  void emitSkeletonTail() {
    for (uint32_t I = 0; I < Spec.Workers; ++I) {
      B.end(Threads[1 + I], formatString("ske%u", I));
      B.join("main", Threads[1 + I], formatString("skj%u", I));
    }
    B.end("main", "sk1");
  }

  // ---------------------------------------------------------------- body
  uint64_t size() { return B.trace().size(); }

  /// Pads with filler so the next \p Needed events stay inside the
  /// current window.
  void alignForCluster(uint64_t Needed) {
    if (Spec.AlignWindow == 0)
      return;
    uint64_t Offset = size() % Spec.AlignWindow;
    if (Offset + Needed + 8 >= Spec.AlignWindow)
      emitFiller(static_cast<uint32_t>(Spec.AlignWindow - Offset));
  }

  void emitBody() {
    const uint64_t TailReserve = 2 * Spec.Workers + 2;
    const size_t ClusterSize = std::min<size_t>(6, numPairs());
    size_t NextPattern = 0;
    while (NextPattern < Factories.size()) {
      // Gather a cluster of patterns, each on its own thread pair.
      std::vector<std::deque<Step>> Streams;
      uint64_t ClusterEvents = 0;
      while (NextPattern < Factories.size() &&
             Streams.size() < ClusterSize) {
        auto [Ta, Tb] =
            pairThreads(static_cast<uint32_t>(Streams.size()));
        std::vector<Step> P = Factories[NextPattern++](Ta, Tb);
        ClusterEvents += P.size();
        Streams.emplace_back(P.begin(), P.end());
      }
      alignForCluster(ClusterEvents * 3);

      // Interleave the streams with a sprinkling of filler, preserving
      // each stream's internal order.
      while (!Streams.empty()) {
        size_t Pick = R.below(Streams.size());
        uint32_t Burst = 1 + static_cast<uint32_t>(R.below(3));
        while (Burst-- > 0 && !Streams[Pick].empty()) {
          Streams[Pick].front()(B);
          Streams[Pick].pop_front();
        }
        if (Streams[Pick].empty())
          Streams.erase(Streams.begin() + Pick);
        if (Spec.PatternSpread > 0)
          emitFiller(static_cast<uint32_t>(R.below(Spec.PatternSpread)));
        else if (R.chance(1, 3))
          emitFiller(1 + static_cast<uint32_t>(R.below(3)));
      }
    }
    // Top up to the target size.
    while (size() + TailReserve < Spec.TargetEvents)
      emitFiller(16);
  }

  SyntheticSpec Spec;
  Rng R;
  TraceBuilder B;
  std::vector<std::string> Threads;
  std::vector<Value> LastFillerValue;
  std::vector<PatternFactory> Factories;
};

} // namespace

Trace rvp::generateSynthetic(const SyntheticSpec &Spec) {
  return Generator(Spec).run();
}

std::vector<SyntheticSpec> rvp::realSystemSpecs() {
  // Pattern counts calibrated to the paper's Table 1 per-technique race
  // counts: HB 68, CP 76, Said < RV with the ftpserver inversion
  // (Said << HB), derby as the largest RV gap, RV total 299.
  std::vector<SyntheticSpec> Specs;

  SyntheticSpec Ftp;
  Ftp.Name = "ftpserver";
  Ftp.Workers = 11;
  Ftp.TargetEvents = 40000;
  Ftp.PlainRaces = 2; // plus the hbNotSaid flag race
  Ftp.HbNotSaidRaces = 24;
  Ftp.CpOnlyRaces = 4;
  Ftp.RvOnlyRaces = 7;
  Ftp.QcOnlyPairs = 12;
  Ftp.OrderedPairs = 20;
  Ftp.Seed = 101;
  Specs.push_back(Ftp);

  SyntheticSpec Jigsaw;
  Jigsaw.Name = "jigsaw";
  Jigsaw.Workers = 10;
  Jigsaw.TargetEvents = 60000;
  Jigsaw.PlainRaces = 4;
  Jigsaw.SaidOnlyRaces = 16;
  Jigsaw.RvOnlyRaces = 4;
  Jigsaw.QcOnlyPairs = 8;
  Jigsaw.OrderedPairs = 30;
  Jigsaw.Seed = 102;
  Specs.push_back(Jigsaw);

  SyntheticSpec Derby;
  Derby.Name = "derby";
  Derby.Workers = 6;
  Derby.TargetEvents = 80000;
  Derby.PlainRaces = 9; // plus the hbNotSaid flag race
  Derby.HbNotSaidRaces = 2;
  Derby.CpOnlyRaces = 2;
  Derby.SaidOnlyRaces = 3;
  Derby.RvOnlyRaces = 101;
  Derby.QcOnlyPairs = 40;
  Derby.OrderedPairs = 60;
  Derby.SyncPercent = 24; // "many fine-grained critical sections"
  Derby.Seed = 103;
  Specs.push_back(Derby);

  SyntheticSpec Sunflow;
  Sunflow.Name = "sunflow";
  Sunflow.Workers = 16;
  Sunflow.TargetEvents = 30000;
  Sunflow.PlainRaces = 6;
  Sunflow.SaidOnlyRaces = 13;
  Sunflow.RvOnlyRaces = 3;
  Sunflow.QcOnlyPairs = 6;
  Sunflow.OrderedPairs = 12;
  Sunflow.Seed = 104;
  Specs.push_back(Sunflow);

  SyntheticSpec Xalan;
  Xalan.Name = "xalan";
  Xalan.Workers = 9;
  Xalan.TargetEvents = 50000;
  Xalan.PlainRaces = 8;
  Xalan.CpOnlyRaces = 2;
  Xalan.SaidOnlyRaces = 12;
  Xalan.RvOnlyRaces = 6;
  Xalan.QcOnlyPairs = 10;
  Xalan.OrderedPairs = 24;
  Xalan.Seed = 105;
  Specs.push_back(Xalan);

  SyntheticSpec Lusearch;
  Lusearch.Name = "lusearch";
  Lusearch.Workers = 10;
  Lusearch.TargetEvents = 30000;
  Lusearch.PlainRaces = 3;
  Lusearch.SaidOnlyRaces = 13;
  Lusearch.RvOnlyRaces = 4;
  Lusearch.QcOnlyPairs = 6;
  Lusearch.OrderedPairs = 12;
  Lusearch.Seed = 106;
  Specs.push_back(Lusearch);

  SyntheticSpec Eclipse;
  Eclipse.Name = "eclipse";
  Eclipse.Workers = 18;
  Eclipse.TargetEvents = 120000;
  Eclipse.PlainRaces = 8;
  Eclipse.SaidOnlyRaces = 26;
  Eclipse.RvOnlyRaces = 15;
  Eclipse.QcOnlyPairs = 16;
  Eclipse.OrderedPairs = 40;
  Eclipse.Seed = 107;
  Specs.push_back(Eclipse);

  return Specs;
}

SyntheticSpec rvp::realSystemSpec(const std::string &Name) {
  for (const SyntheticSpec &Spec : realSystemSpecs())
    if (Spec.Name == Name)
      return Spec;
  return SyntheticSpec();
}
