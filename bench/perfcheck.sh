#!/usr/bin/env bash
# Host-invariant performance gates over the layered benchmark.  Needs jq.
#   bash bench/perfcheck.sh        (or: make perfcheck)
#
# 1. History independence of update-in-place recovery: runs the bank hot
#    spot under UIP and under DU, from the same inputs, and fails unless
#    both runs are correct and UIP allocates at most 1.23x, and promotes
#    at most 2x, the words per transaction of DU (about 1.22 and 1.0
#    today).  A UIP manager whose abort cost grows with history fails
#    it.  The limit was set at the largest of seeds 1-3 (1.2134, seed
#    1) plus 0.0166, the margin that still failed a bank inverse that
#    builds an operation per undone operation at each of those seeds
#    (1.254, 1.236 and 1.232; the gate runs seed 1).  Since a database
#    shares equal operations the ratio read 1.219 (seeds 1-3: 1.219,
#    1.203, 1.200) and that inverse 1.271, 1.253 and 1.249; since the
#    tid tables and the deadlock search allocate nothing per
#    transaction, which cuts DU's words too, 1.223 (1.223, 1.206, 1.204)
#    and that inverse 1.272, 1.254 and 1.250; since a database keeps its
#    touched objects in its reused record and a metric series resolves
#    without closures, 1.2226 (1.2226, 1.2064, 1.2034).  Until lock
#    holds lost their sequence stamp the limit was 1.25, which that
#    inverse, at about 1.253, cleared by a hair.  The UIP abort pin in
#    test/test_engine.ml catches it too.
# 2. What an object and its log cost: runs transfer_2pc (1024 accounts
#    over four shards) and fails unless it is correct and the engine
#    keeps at most 1.40 MB reachable (live_heap_mb; about 1.27 today, the
#    limit is the largest of seeds 1-3, 1.2730, plus 10%; it was 1.57,
#    from 1.4292, until an object's recovery counts lived in its own
#    record and its first commit registered no metric series: that tree,
#    1.4237 at seed 1, fails the new limit; 1.65,
#    from 1.500, until a live log kept no global copy of its committed
#    operations, 1.99, from 1.811, until each shard's operation table
#    shared invocations and grouped its slots in two-way sets, and 2.31,
#    from 2.101, until each shard's database shared equal operations
#    through that table).  The tree before that copy went, 1.4935 at
#    seed 1, does not fail the new limit: the copy's slot per committed
#    operation is about 0.07 MB here, under the headroom, and the
#    live-log growth pin in test/test_storage.ml catches it instead.
#    Each committed operation costs its recovery manager a slot in a
#    chunk, and its operation is the shard's
#    shared one, which points at the shard's shared invocation: the
#    last epoch's 8,000 committed operations are 4,242 records over 16
#    invocation blocks.  The direct-mapped table whose operations kept
#    their callers' invocations (about 1.81; 4,705 records and as many
#    invocation blocks) fails it, and so does a two-way table that keeps
#    them (about 1.77); the committed-operation retention pin in
#    test/test_storage.ml catches both too.  Operations built afresh,
#    as before the table, read 2.089 and fail it.  The figures that
#    follow were measured before the table, when the engine kept about
#    2.08 MB, and are not re-measured: each is that much above 1.81.
#    Committed logs of list cells (about 2.24) stayed inside then, and
#    the density pin in test/test_engine.ml and the replay-state pin in
#    test/test_storage.ml catch them instead.
#    The four in-memory logs write v3 frames, whose payload integers are
#    varints, and no Begin frame: a v2 writer (about 2.71) and a v2
#    writer without Begin (about 2.60) fail it; v3 frames with a Begin
#    (about 2.30) stayed inside then, and the log-bytes pin in
#    test/test_storage.ml catches that instead.  A recovery manager is data over the spec's module and a
#    rename is one block: the closure-record manager with its own hash
#    table beside a rename that copies the generator list (about 4.08),
#    that rename alone (about 3.35), a per-object functor instance or
#    per-object validation tables on locking objects fail it.
# 3. What a log record costs: runs restart (load and recover a ~1 MB
#    log image with a checkpoint at its midpoint, then append to it) and
#    fails unless it is correct and allocates at most 27.2 words per
#    transaction (alloc_words_per_txn; about 24.3 today, the limit is the
#    largest of seeds 1-5, 24.72, plus 10%).  A load steps the log's
#    replay state from the frame bytes: it builds no Operation or Commit
#    record and no list of the checkpoint's committed operations, its
#    decode cache shares the object and operation names of the
#    operations it builds, and the replay state keeps an unfinished
#    transaction's operations in slots of one vector.  A replay state
#    that keeps them in a hash table bucket per transaction and a list
#    cell per operation (29.16 at seed 1; the limit was 32.5 while it
#    did) fails it, and so does a load that decodes each frame into a
#    record and steps that (31.34); a cache that shares no names (25.87)
#    stays inside, and the load allocation pin in test/test_storage.ml
#    catches both the table and the cache instead.  A restart replays into
#    what it keeps: the plan buckets each object's committed operations
#    into chunks, and the rebuilt object steps its one state through
#    them in place and keeps them as its committed log.  Plan buckets
#    of list cells and a list cell per replay step read about 44.4 and
#    44.3 when a load built records (37.9 then): about 6.5 words more,
#    above today's 2.9 words of headroom (not re-measured since).  Each
#    restart rebuilds its accounts and
#    replays their operations through the spec's fold.  Measured when
#    both were lists (about 50.6, limit 56.2), committed logs of list
#    cells rebuilt by List.rev on each restart read about 56.6, a spec
#    that answers with a list of (response, state) pairs about 68.6,
#    and the closure-record manager beside a rename that copies the
#    generator list about 14 words more: each failed by 6 words or
#    more, more than today's headroom.  Gates 2 and 5 catch that rename
#    alone.  A load verifies the prefix the
#    checkpoint supersedes and decodes only from the checkpoint on; a
#    loader that decodes and steps the superseded prefix (about 15 words
#    more) fails it, and so does a codec that copies each payload, boxes
#    an int32 per CRC byte or builds each frame twice (about 1029).
# 4. What a contended invocation costs: the hotspot_uip run of gate 1
#    must be correct and allocate at most 333.9 words per transaction
#    (alloc_words_per_txn; about 298.7 today, 303.5 before a database
#    kept its touched objects in its reused record; the limit is the
#    largest of seeds 1-3, 303.53, plus 10%; it was 361.9, from 329.04, until a
#    running transaction took a slot of a tid table and a reused record,
#    and a deadlock search after lost edges alone walked nothing, and
#    401.4, from 364.87, until the database's operation table made a
#    blocked poll and a repeated operation allocate none).  The figures
#    that follow were measured before that table, when the run read
#    about 361, 62 words above today, and are not re-measured; a cut
#    that adds more than today's 35 words of headroom fails it.  A
#    generic hash table of running transactions, a record per
#    transaction and a search that walks the whole graph by Hashtbl.iter
#    after every change (329.04 together) stay inside, and the empty
#    transaction and incremental search pins in test/test_engine.ml
#    catch them instead.  An invocation with one legal
#    response tests its one operation without a candidate list, the
#    live suffix of a UIP manager is a chain that commit and abort
#    unlink in place, and the lock holders are a chain too: building
#    the candidate list per invocation, the two-list suffix and the
#    list of holders (about 403.3) fails it.  Each alone (about 25, 9
#    and 5 words) stays inside; the one-response invocation, UIP commit
#    and abort, and lock release pins in test/test_engine.ml catch them
#    instead.
#    Each spec step folds over the responses, building no list of
#    (response, state) pairs: a spec that builds one (about 99 words
#    more) fails it.  A blocked retry allocates only its answer, the lock table walks
#    its chain of holders without a closure, the waits-for graph is
#    cleared from its array of sources with no closure or list, each
#    executed operation is built once, and the recovery manager is
#    called at full arity: a manager applied partially on every call
#    (about 72 words more), a clear that folds the graph into a list of pairs and
#    filters each hit list through a fresh closure (about 106 words
#    more), a hash table of holders walked by Hashtbl.fold, re-sorting
#    the holders, a partially applied or boxing conflict test, or a
#    deadlock search that reruns on an unchanged graph fail it.  The
#    smaller cuts (the list of enabled operations, a pair per lock hold
#    or suffix entry, a clear by Hashtbl.iter: 5 to 19 words each) stay
#    inside the headroom; the allocation pins in test/test_engine.ml
#    catch them instead.
# 5. What a loaded log keeps: the restart run of gate 3 must promote at
#    most 20.4 words per transaction to the major heap
#    (major_words_per_txn; about 18.1 today, the limit is the largest of
#    seeds 1-5, 18.53, plus 10%; it was 22.5, from 20.47, until a
#    recovered log dropped its global copy of the committed operations
#    once the rebuilt objects adopted their buckets, and 24.3, from
#    22.07, until a load stopped building records and shared names).
#    The tree that kept the copy, 20.17 at seed 1, does not fail the new
#    limit; the live-log growth pin and "recovering twice from one
#    loaded log" in test/test_storage.ml catch a log that keeps it.
#    The figures that follow were measured while the log kept it, about
#    2 words above today, and are not re-measured.  A load that builds
#    each record read 20.07, as the tree did then: those blocks die
#    young, so gate 3 catches it instead.  A cache that shares no names
#    (21.63) stays inside; the load allocation pin in
#    test/test_storage.ml catches it.  The accounts each restart rebuilds
#    survive into the major heap: the closure-record manager beside a
#    rename that copies the generator list (about 47.0) and that rename
#    alone (about 41.2) fail it, and so do committed logs of list cells
#    in the managers and the replay state (about 27.6).  A load decodes each frame straight
#    into the log's replay state and builds each repeated operation
#    once; a decoder without its operation cache (about 54 words more),
#    a cache whose empty slot is a static value, so that its pass starts
#    without the minor collection Array.make runs for a fresh one (about
#    33.7 beside list-cell logs), or a log that keeps its records in
#    memory fails it.
# 6. What a deferred-update invocation costs: the hotspot_du run of
#    gate 1 must be correct and allocate at most 274.9 words per
#    transaction (alloc_words_per_txn; about 244.3 today, the limit is
#    the largest of seeds 1-3, 249.91, plus 10%; it was 298.9, from
#    271.70, until the tid tables and the deadlock search allocated
#    nothing per transaction, and 337.0, from 306.39, until the database
#    shared equal operations).  The figures that follow were measured
#    before then, when the run read about 298, and are not re-measured.
#    A spec that answers with a list of (response, state) pairs (about
#    75 words more) fails it.  A candidate list per invocation and a
#    list cell per lock holder (about 32 words more) stayed inside, with
#    about 39 words of headroom then, 29 after the sharing and 31 now;
#    the one-response invocation pin in test/test_engine.ml catches the
#    list.
#    Each live transaction keeps its view, base + its own intentions,
#    and derives it again only after a commit moves the base; a manager
#    that derives the view from the base on every call (about 150 words
#    more per transaction), the closure-and-list clear of gate 4 (about
#    92 more) or a manager applied partially on every call (about 66
#    more) fails it.
# 7. What a finished transaction leaves: the hotspot_uip run of gate 1
#    must promote at most 26.0 words per transaction to the major heap
#    (major_words_per_txn; about 23.6 today, the limit is the largest of
#    seeds 1-3, 23.61, plus 10%; it was 37.3, from 33.90, until the
#    database shared equal operations).  A database keeps only its
#    running transactions and one bit per finished tid, and a committed
#    operation costs its recovery manager one slot in a chunk and
#    nothing more, the operation being the database's shared one:
#    operations built afresh (33.9) fail it.  Measured before the
#    sharing, a table entry per finished tid read about 49.6 beside
#    list-cell logs, and a committed log of list cells about 39.5, 5.6
#    words above the 33.9 of then and so above today's headroom too.
# 9. What a long history keeps: the hotspot_uip run of gate 1 must keep
#    at most 0.253 MB reachable when it ends (live_heap_mb; about 0.23
#    today, the limit is the largest of seeds 1-3, 0.2299, plus 10%; it
#    was 0.269, from 0.2444, until the operation table shared
#    invocations and grouped its slots in two-way sets).  Its committed
#    operations repeat (amounts of 1 and 2 on 75 accounts), and each is
#    one value shared by the lock holds, the UIP suffix, the committed
#    log and the database's operation table, so a committed operation
#    costs its log slot.  Operations built afresh, each about 12 words
#    beside its slot, read 1.259 and fail it.
# 8. What a sharded commit costs: the transfer_2pc run of gate 2 must be
#    correct and allocate at most 142.7 words per transaction
#    (alloc_words_per_txn; about 129.5 today; 151.6 before a metric
#    series resolved without closures, each shard's database kept its
#    touched objects in an array of its reused record, and the router
#    reused its own records with their shards and prepare LSNs in
#    arrays; 165.5 before the router and each shard's database kept
#    their running transactions in tid tables, with each shard's records
#    reused; and 168.8 before each shard shared equal operations.  The
#    limit is the largest of seeds 1-3, 129.73, plus 10%; it was 167.1,
#    from 151.93, until those cuts, 186.2, from 169.23, until the tid
#    tables, and 200.4, from 182.14, until the log's replay state kept
#    unfinished transactions in one vector).  Undoing one of those cuts
#    alone stays inside: series resolved through closures and a sort
#    (136.1), a list of each transaction's touched objects in the
#    database (135.5), or a fresh router record with a shard list and
#    list-walking 2PC phases (139.0).  The series resolution pin in
#    test/test_obs.ml and the Database and two-shard transfer pins in
#    test/test_storage.ml catch them instead.  The figures that
#    follow were measured before the tid tables, with 20.7 words of
#    headroom where there are 13.2 now, and are not re-measured.  A replay state that keeps them
#    in a hash table bucket per transaction and a list cell per
#    operation (179.61) stayed inside, and the append allocation pin in
#    test/test_storage.ml catches it instead.  A spec
#    that answers with a list of (response, state) pairs (about 28 words
#    more) fails it.  A candidate list per invocation and a list cell
#    per lock holder (191.6 beside that hash table, so about 180.7
#    before the tid tables) stayed inside; the one-response invocation pin in
#    test/test_engine.ml catches the list instead.  The router's lock sections, the 2PC phases and the commit
#    walks build no closures and copy no lists, a durable log encodes
#    each frame in place into one scratch buffer, and the recovery
#    manager is called at full arity; closure-built lock sections in
#    the router's invoke or a fresh frame per append (each about 30
#    words more per transaction), or a manager applied partially on
#    every call (about 45 more), fail it.  Transfers never block, so the
#    closure-and-list clear of gate 4 costs nothing here; building each
#    executed operation twice (about 14 words more here, 25 on
#    hotspot_uip) stays inside the headroom of gates 4 and 8, and the
#    contended deposit pin in test/test_engine.ml catches it instead.
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
        and $a <= 1.23 and $m <= 2
     then "ok" else "FAIL" end)
    + ": correct \($u.correct and $d.correct), failed \($u.failed + $d.failed),"
    + " UIP/DU alloc_words_per_txn \($a) (max 1.23),"
    + " major_words_per_txn \($m) (max 2)"')
echo "perfcheck $verdict"

footprint=$(jq -rn --argjson x "$xfer" '
  $x.metrics.live_heap_mb.value as $mb
  | (if $x.correct and $x.failed == 0 and $mb <= 1.40 then "ok" else "FAIL" end)
    + ": transfer_2pc correct \($x.correct), failed \($x.failed),"
    + " live_heap_mb \($mb) (max 1.40)"')
echo "perfcheck footprint $footprint"

codec=$(jq -rn --argjson r "$restart" '
  $r.metrics.alloc_words_per_txn.value as $w
  | (if $r.correct and $r.failed == 0 and $w <= 27.2 then "ok" else "FAIL" end)
    + ": restart correct \($r.correct), failed \($r.failed),"
    + " alloc_words_per_txn \($w) (max 27.2)"')
echo "perfcheck codec $codec"

contention=$(jq -rn --argjson u "$uip" '
  $u.metrics.alloc_words_per_txn.value as $w
  | (if $u.correct and $u.failed == 0 and $w <= 333.9 then "ok" else "FAIL" end)
    + ": hotspot_uip correct \($u.correct), failed \($u.failed),"
    + " alloc_words_per_txn \($w) (max 333.9)"')
echo "perfcheck contention $contention"

loaded=$(jq -rn --argjson r "$restart" '
  $r.metrics.major_words_per_txn.value as $w
  | (if $r.correct and $r.failed == 0 and $w <= 20.4 then "ok" else "FAIL" end)
    + ": restart correct \($r.correct), failed \($r.failed),"
    + " major_words_per_txn \($w) (max 20.4)"')
echo "perfcheck loaded log $loaded"

deferred=$(jq -rn --argjson d "$du" '
  $d.metrics.alloc_words_per_txn.value as $w
  | (if $d.correct and $d.failed == 0 and $w <= 274.9 then "ok" else "FAIL" end)
    + ": hotspot_du correct \($d.correct), failed \($d.failed),"
    + " alloc_words_per_txn \($w) (max 274.9)"')
echo "perfcheck deferred update $deferred"

finished=$(jq -rn --argjson u "$uip" '
  $u.metrics.major_words_per_txn.value as $w
  | (if $u.correct and $u.failed == 0 and $w <= 26.0 then "ok" else "FAIL" end)
    + ": hotspot_uip correct \($u.correct), failed \($u.failed),"
    + " major_words_per_txn \($w) (max 26.0)"')
echo "perfcheck finished transactions $finished"

history=$(jq -rn --argjson u "$uip" '
  $u.metrics.live_heap_mb.value as $mb
  | (if $u.correct and $u.failed == 0 and $mb <= 0.253 then "ok" else "FAIL" end)
    + ": hotspot_uip correct \($u.correct), failed \($u.failed),"
    + " live_heap_mb \($mb) (max 0.253)"')
echo "perfcheck long history $history"

sharded=$(jq -rn --argjson x "$xfer" '
  $x.metrics.alloc_words_per_txn.value as $w
  | (if $x.correct and $x.failed == 0 and $w <= 142.7 then "ok" else "FAIL" end)
    + ": transfer_2pc correct \($x.correct), failed \($x.failed),"
    + " alloc_words_per_txn \($w) (max 142.7)"')
echo "perfcheck sharded commit $sharded"

[[ $verdict == ok* && $footprint == ok* && $codec == ok* && $contention == ok* && $loaded == ok*
   && $deferred == ok* && $finished == ok* && $sharded == ok* && $history == ok* ]]
