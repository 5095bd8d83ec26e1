//===- detect/Cop.cpp - Conflicting operation pairs ------------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "detect/Cop.h"

#include <algorithm>

using namespace rvp;

std::vector<Cop> rvp::collectCops(const Trace &T, Span S) {
  std::vector<Cop> Cops;
  for (VarId Var = 0; Var < T.numVars(); ++Var) {
    // The window's slice of the sorted access list.
    const std::vector<EventId> &Accesses = T.accessesOf(Var);
    auto Begin = std::lower_bound(Accesses.begin(), Accesses.end(), S.Begin);
    auto End = std::lower_bound(Begin, Accesses.end(), S.End);
    // A slice one thread owns holds no COP: skip it in one pass.
    if (std::all_of(Begin, End,
                    [&](EventId Id) { return T[Id].Tid == T[*Begin].Tid; }))
      continue;
    for (auto I = Begin; I != End; ++I) {
      const Event &A = T[*I];
      if (A.Volatile)
        continue;
      for (auto J = I + 1; J != End; ++J)
        if (conflicting(A, T[*J]))
          Cops.push_back({*I, *J});
    }
  }
  return Cops;
}
