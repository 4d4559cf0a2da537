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

# Crash-injection torture, generator "append": recover at every WAL
# append point across the scenario matrix and fail on any violation of
# the shared recovery battery (or if a generator yields no states).
crashtest:
	dune exec bin/crashtest.exe

# Storage-fault torture with a fixed seed, generators "bytes" (every
# byte offset, batch-prefix and acked-durability checked; the runs
# force every commit before acknowledging it, so every commit is a
# barrier), "truncate" and "upgrade" (every byte state of
# the checkpoint-truncation rewrite from v2 and from v1: must roll back
# or redo atomically) and "flips" (bit-flip corruption detected or
# contained), plus a fault-injected storage run that must match the
# fault-free one (torn writes / transient errors absorbed by the WAL
# retry loop).
faulttest:
	dune exec bin/crashtest.exe -- --fault --seed 11

# Cross-shard 2PC torture: drive a 4-shard engine (30% and 100%
# cross-shard mixes), generators "forced" (every forced-frontier state)
# and "bytes" (every byte offset of every shard's log) — no shard may
# ever install a cross-shard transaction another shard aborted, and no
# commit acknowledged after the forced decision may be lost.  Runs clean and
# with injected storage faults.
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

# Host-invariant performance gates.  History independence: on the bank
# hot spot, update-in-place may allocate at most 1.25x and promote at most
# 2x the words per transaction of deferred update from the same inputs.
# Object footprint: transfer_2pc (1024 accounts) may keep at most 6.0 MB
# reachable.  Log record cost: restart may allocate at most 400 words per
# transaction.  Contended invocation cost: hotspot_uip may allocate at
# most 1250 words per transaction.
perfcheck:
	bash bench/perfcheck.sh

# Sharded observability smoke: a traced 4-shard stress run writes its
# trace, metrics and live monitor snapshot; crashtest harvests a real
# in-doubt multi-shard image (cut after the forced Decision, before
# phase 2); walinspect --two-phase must name every unresolved prepare
# and its evidence; shardmon renders one dashboard frame from the
# monitor snapshot and exports its tm-series rings.
shardreport:
	dune build @all
	dune exec bin/stresstest.exe -- --shards 4 --seed 7 -n 40 \
	  --trace _report/shard_trace.jsonl --metrics _report/shard_metrics.prom \
	  --monitor _report/shard_monitor.prom
	dune exec bin/crashtest.exe -- --shards 4 -n 5 --keep-log _report/shard_wal.img
	dune exec bin/walinspect.exe -- _report/shard_wal.img --two-phase \
	  | grep -q "evidence"
	dune exec bin/shardmon.exe -- _report/shard_monitor.prom --once --no-clear \
	  --snapshot _report/shard_series.jsonl
	test -s _report/shard_series.jsonl
	@echo "shardreport: _report/shard_wal.img and _report/shard_series.jsonl"

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
