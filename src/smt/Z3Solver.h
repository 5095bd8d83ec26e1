//===- smt/Z3Solver.h - Z3 as a test oracle ---------------------*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Z3 behind the SmtSolver and SmtSession interfaces, mirroring the
/// paper's use of Z3/Yices with Integer Difference Logic. It is the oracle
/// the tests and bench_solver check the in-tree solver against, and
/// nothing else: product code never includes this header, and only
/// targets that link `rvp_z3` (built when CMake finds Z3, which also
/// defines RVP_HAVE_Z3 for them) get the real factories. Everywhere else
/// they return nullptr, so a caller skips its cross-check.
///
//===----------------------------------------------------------------------===//

#ifndef RVP_SMT_Z3SOLVER_H
#define RVP_SMT_Z3SOLVER_H

#include "smt/Solver.h"

namespace rvp {

#ifdef RVP_HAVE_Z3
/// A one-shot Z3 solve per call.
std::unique_ptr<SmtSolver> createZ3Solver();
/// One persistent z3::solver, queried with check_sat_assuming.
std::unique_ptr<SmtSession> createZ3Session();
#else
inline std::unique_ptr<SmtSolver> createZ3Solver() { return nullptr; }
inline std::unique_ptr<SmtSession> createZ3Session() { return nullptr; }
#endif

} // namespace rvp

#endif // RVP_SMT_Z3SOLVER_H
