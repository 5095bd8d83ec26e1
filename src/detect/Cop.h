//===- detect/Cop.h - Conflicting operation pairs ----------------*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// COP extraction (Definition 3): pairs of same-variable accesses from
/// different threads, at least one a write, volatile accesses excluded.
/// Pairs are oriented in trace order (First occurs before Second) and carry
/// the race *signature* — the unordered pair of static program locations —
/// used for reporting and for the signature pruning of Section 4.
///
//===----------------------------------------------------------------------===//

#ifndef RVP_DETECT_COP_H
#define RVP_DETECT_COP_H

#include "trace/Trace.h"

#include <cstdint>
#include <vector>

namespace rvp {

/// Unordered pair of static locations identifying "the same race".
struct RaceSignature {
  LocId LocA = UnknownLoc; ///< min of the two
  LocId LocB = UnknownLoc; ///< max of the two

  static RaceSignature of(const Trace &T, EventId A, EventId B) {
    LocId La = T[A].Loc;
    LocId Lb = T[B].Loc;
    if (La > Lb)
      std::swap(La, Lb);
    return {La, Lb};
  }

  bool operator==(const RaceSignature &O) const {
    return LocA == O.LocA && LocB == O.LocB;
  }
  bool operator<(const RaceSignature &O) const {
    return LocA != O.LocA ? LocA < O.LocA : LocB < O.LocB;
  }
  uint64_t key() const {
    return (static_cast<uint64_t>(LocA) << 32) | LocB;
  }
};

/// A conflicting operation pair, trace-ordered: First < Second.
struct Cop {
  EventId First = InvalidEvent;
  EventId Second = InvalidEvent;
};

/// Enumerates all COPs within \p S, in deterministic order (by variable,
/// then by position). A variable's slice of \p S that a single thread
/// owns is skipped in one linear pass; a slice two or more threads touch
/// costs time quadratic in its accesses, and callers bound that work via
/// windowing.
std::vector<Cop> collectCops(const Trace &T, Span S);

} // namespace rvp

#endif // RVP_DETECT_COP_H
