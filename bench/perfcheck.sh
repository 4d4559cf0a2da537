#!/usr/bin/env bash
# Host-invariant performance gates over the layered benchmark.  Needs jq.
#   bash bench/perfcheck.sh        (or: make perfcheck)
#
# 1. History independence of update-in-place recovery: runs the bank hot
#    spot under UIP and under DU, from the same inputs, and fails unless
#    both runs are correct and UIP allocates at most 1.25x, and promotes
#    at most 2x, the words per transaction of DU.  A UIP manager whose
#    abort cost grows with history fails it.
# 2. What an object costs: runs transfer_2pc (1024 accounts over four
#    shards) and fails unless it is correct and the engine keeps at most
#    6.0 MB reachable (live_heap_mb).  A per-object functor instance or
#    per-object validation tables on locking objects fail it.
# 3. What a log record costs: runs restart (load and recover a ~1 MB
#    log image, then append to it) and fails unless it is correct and
#    allocates at most 400 words per transaction (alloc_words_per_txn).
#    A codec that copies each payload, boxes an int32 per CRC byte or
#    builds each frame twice fails it (about 1029 words).
#
# Every count is host-invariant (bench/perf/run.sh pins the GC
# parameters, and live_heap_mb is Obj.reachable_words), so the verdict
# does not depend on the machine.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
  bash bench/perf/run.sh --workload "$1" --seed 1 --epochs 2 --trace 0 | tail -n 1
}
uip=$(run hotspot_uip)
du=$(run hotspot_du)
xfer=$(run transfer_2pc)
restart=$(run restart)

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

footprint=$(jq -rn --argjson x "$xfer" '
  $x.metrics.live_heap_mb.value as $mb
  | (if $x.correct and $x.failed == 0 and $mb <= 6.0 then "ok" else "FAIL" end)
    + ": transfer_2pc correct \($x.correct), failed \($x.failed),"
    + " live_heap_mb \($mb) (max 6.0)"')
echo "perfcheck footprint $footprint"

codec=$(jq -rn --argjson r "$restart" '
  $r.metrics.alloc_words_per_txn.value as $w
  | (if $r.correct and $r.failed == 0 and $w <= 400 then "ok" else "FAIL" end)
    + ": restart correct \($r.correct), failed \($r.failed),"
    + " alloc_words_per_txn \($w) (max 400)"')
echo "perfcheck codec $codec"

[[ $verdict == ok* && $footprint == ok* && $codec == ok* ]]
