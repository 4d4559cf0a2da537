#!/usr/bin/env bash
# History-independence gate for update-in-place recovery.  Runs the bank
# hot spot of the layered benchmark under UIP and under DU, from the same
# inputs, and fails unless both runs are correct and UIP allocates at most
# 1.25x, and promotes at most 2x, the words per transaction of DU.  Both
# counts are host-invariant (bench/perf/run.sh pins the GC parameters), so
# the verdict does not depend on the machine.  A UIP manager whose abort
# cost grows with history fails it.  Needs jq.
#   bash bench/perfcheck.sh        (or: make perfcheck)
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
  bash bench/perf/run.sh --workload "$1" --seed 1 --epochs 2 --trace 0 | tail -n 1
}
uip=$(run hotspot_uip)
du=$(run hotspot_du)

verdict=$(jq -rn --argjson u "$uip" --argjson d "$du" '
  def ratio(k): $u.metrics[k].value / $d.metrics[k].value;
  [ratio("alloc_words_per_txn"), ratio("major_words_per_txn")] as [$a, $m]
  | (if $u.correct and $d.correct and $u.failed == 0 and $d.failed == 0
        and $a <= 1.25 and $m <= 2
     then "ok" else "FAIL" end)
    + ": correct \($u.correct and $d.correct), failed \($u.failed + $d.failed),"
    + " UIP/DU alloc_words_per_txn \($a) (max 1.25),"
    + " major_words_per_txn \($m) (max 2)"')
echo "perfcheck $verdict"
[[ $verdict == ok* ]]
