# Convenience targets; `make check` is what CI runs.

.PHONY: all check test bench perfcheck crashtest faulttest \
  shardtest stresstest shardreport walsmoke metricsdoc metricsdoc-check golden \
  walformatdoc walformatdoc-check clean

all:
	dune build @all

# The tier-1 gate: full build (executables included) plus every suite.
check:
	dune build @all
	dune runtest

test:
	dune runtest

# Crash-injection torture, generator "append": record the seeded fiber
# run of every scenario x setup, recover at every WAL append point and
# fail on any violation of the shared recovery battery (or if a
# generator yields no states); each run is then repeated onto a
# Disk_wal, reloaded and recovered.  The second leg runs 100
# transactions with no checkpoint, so every recovered history keeps its
# whole run; it must check all 16704 of its states for dynamic atomicity.
crashtest:
	dune exec bin/crashtest.exe
	dune exec bin/crashtest.exe -- -n 100 --checkpoint-every 0 | grep -F \
	  'append 16704 states (16704 atomicity-checked, 0 cross-shard txns, 0 evidence checks); 0 failures'

# Storage-fault torture with a fixed seed, generators "bytes" (every
# byte offset, batch-prefix and acked-durability checked; the runs
# force every commit before acknowledging it, so every commit is a
# barrier), "truncate", "upgrade" and "upgrade-v2" (every byte state of
# the checkpoint-truncation rewrite from v3, from v1 and from v2: must
# roll back or redo atomically) and "flips" (bit-flip corruption detected or
# contained), plus a fault-injected storage run whose bytes must reload
# to the recorded run's log (torn writes / transient errors absorbed by
# the WAL retry loop).
faulttest:
	dune exec bin/crashtest.exe -- --fault --seed 11

# Cross-shard 2PC torture: the same pipeline over 4 shards, so the
# multi-object scenarios commit through 2PC; generators "forced" (every
# forced-frontier state) and "bytes" (every byte offset of every
# shard's log), plus the fault generators in the second run — no shard
# may ever install a cross-shard transaction another shard aborted, and
# no commit acknowledged after the forced decision may be lost.  Runs
# clean and with injected storage faults; both harvest in-doubt states.
shardtest:
	dune exec bin/crashtest.exe -- --shards 4
	dune exec bin/crashtest.exe -- --shards 4 --fault --seed 11 -n 10

# Threaded group-commit stress with a pinned seed: OS threads run
# Concurrent over the sharded engine on slow storage; fails if any
# transaction is lost, the balances diverge from the serial
# expectation, the persisted logs recover wrong, batching does not form
# on one shard (fsyncs >= commits), or no transaction crosses shards on
# four (2PC under the threaded front end).
stresstest:
	dune exec bin/stresstest.exe -- --seed 7 --verbose
	dune exec bin/stresstest.exe -- --shards 4 --seed 7 --verbose

# The paper reproduction harness: Section 6's tables, the worked
# examples, Theorems 9 and 10 and the concurrency sweeps (its output is
# pinned by `dune runtest`).
bench:
	dune exec bench/main.exe

# Host-invariant performance gates; the list of gates and their limits
# is kept at the head of bench/perfcheck.sh.
perfcheck:
	bash bench/perfcheck.sh

# Sharded observability smoke: a traced 4-shard stress run writes its
# trace and metrics dumps, which must be non-empty, and fails unless the
# traced history is dynamic atomic; crashtest harvests a
# real in-doubt multi-shard image (the last forced frontier of a
# recorded run with a decided prepare in doubt: after the forced
# Decision, before phase 2); walinspect --two-phase must name every
# unresolved prepare and its evidence.
shardreport:
	dune build @all
	dune exec bin/stresstest.exe -- --shards 4 --seed 7 -n 40 \
	  --trace _report/shard_trace.jsonl --metrics _report/shard_metrics.prom
	test -s _report/shard_trace.jsonl
	test -s _report/shard_metrics.prom
	dune exec bin/crashtest.exe -- --shards 4 -n 5 --keep-log _report/shard_wal.img
	dune exec bin/walinspect.exe -- _report/shard_wal.img --two-phase \
	  | grep -q "evidence"
	@echo "shardreport: _report/shard_trace.jsonl, _report/shard_metrics.prom and _report/shard_wal.img"

# WAL forensics smoke: persist a crashtest-driven log image, inspect it
# (record histogram, checkpoint coverage, corruption diagnosis), then
# --verify replays it under the restart profiler.
walsmoke:
	dune exec bin/crashtest.exe -- --keep-log _report/wal.img
	dune exec bin/walinspect.exe -- _report/wal.img --verify

# Regenerate the metrics catalog doc from the declarative inventory.
metricsdoc:
	dune exec bin/metricsdoc.exe -- -o docs/METRICS.md

# Fail if docs/METRICS.md drifted from the inventory (CI runs this).
metricsdoc-check:
	dune exec bin/metricsdoc.exe | diff - docs/METRICS.md

# Regenerate the golden WAL frames (test/golden/) after an intentional
# on-disk format change; the test suite fails on any byte drift until
# these are refreshed and committed.
golden:
	dune exec bin/walformatdoc.exe -- --golden test/golden

# Regenerate the on-disk format spec from the codec itself.
walformatdoc:
	dune exec bin/walformatdoc.exe -- -o docs/WAL_FORMAT.md

# Fail if docs/WAL_FORMAT.md drifted from the codec (CI runs this).
walformatdoc-check:
	dune exec bin/walformatdoc.exe | diff - docs/WAL_FORMAT.md

clean:
	dune clean
