# The fixed detect invocations shared by DriverGolden.cmake and
# CounterGolden.cmake: the base flags every row adds to
# `rvpredict detect <props_workload.rv>`, and the rows themselves.

set(BASE_ARGS --schedule=rr --seed=1 --window=24 --witness=true)

# Label | Table-1 block | highest accepted exit code | extra flags.
set(ROWS
  "race_rv_j1|1|1|--technique=rv --jobs=1"
  "race_rv_j4|1|1|--technique=rv --jobs=4"
  "race_rv_smt_j1|1|1|--technique=rv --tier=smt --jobs=1"
  "race_rv_smt_j4|1|1|--technique=rv --tier=smt --jobs=4"
  "race_rv_vc_j1|1|1|--technique=rv --tier=vc --jobs=1"
  "race_rv_nowitness_j1|1|1|--technique=rv --witness=false --jobs=1"
  "race_said_j1|1|1|--technique=said --jobs=1"
  "race_said_j4|1|1|--technique=said --jobs=4"
  "race_hb_j1|1|1|--technique=hb --jobs=1"
  "race_hb_j4|1|1|--technique=hb --jobs=4"
  "race_cp_j1|1|1|--technique=cp --jobs=1"
  "race_cp_j4|1|1|--technique=cp --jobs=4"
  "atomicity_j1|1|1|--property=atomicity --jobs=1"
  "atomicity_j4|1|1|--property=atomicity --jobs=4"
  "atomicity_smt_j1|1|1|--property=atomicity --tier=smt --jobs=1"
  "deadlock_j1|1|1|--property=deadlock --jobs=1"
  "deadlock_j4|1|1|--property=deadlock --jobs=4"
  # Every solve times out: everything lands in the unknown section.
  "race_rv_timeout_j1|1|3|--technique=rv --jobs=1 --inject-faults=solver.timeout"
  "race_rv_timeout_j4|0|3|--technique=rv --jobs=4 --inject-faults=solver.timeout"
  "race_rv_smt_timeout_j1|1|3|--technique=rv --tier=smt --jobs=1 --inject-faults=solver.timeout"
  "atomicity_timeout_j1|1|3|--property=atomicity --jobs=1 --inject-faults=solver.timeout"
  "atomicity_timeout_j4|0|3|--property=atomicity --jobs=4 --inject-faults=solver.timeout"
  "deadlock_timeout_j1|1|3|--property=deadlock --jobs=1 --inject-faults=solver.timeout"
  "deadlock_timeout_j4|0|3|--property=deadlock --jobs=4 --inject-faults=solver.timeout"
  # One early timeout: parked, then superseded or kept as unknown.
  "race_rv_smt_timeout2_j1|1|3|--technique=rv --tier=smt --jobs=1 --inject-faults=solver.timeout=2"
  "atomicity_timeout1_j1|1|3|--property=atomicity --jobs=1 --inject-faults=solver.timeout=1"
  "deadlock_timeout1_j1|1|3|--property=deadlock --jobs=1 --inject-faults=solver.timeout=1"
  # A retried timeout is decided at the next budget.
  "race_rv_smt_retry_j1|1|3|--technique=rv --tier=smt --jobs=1 --retry-budgets=30s,60s --inject-faults=solver.timeout=1"
)
