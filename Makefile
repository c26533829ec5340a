# Single source of truth for the build/test commands; CI runs exactly
# these targets (.github/workflows/ci.yml), so a green `make ci` locally
# means a green pipeline.

GO ?= go

.PHONY: all build test check-globals race fuzz-smoke bench bench-cold bench-contention bench-trace bench-faults bench-avail bench-module stdfs-smoke distfault-smoke fmt vet fmt-check ci

all: build

build:
	$(GO) build ./...

# Shuffled: no test may depend on what another left behind in the
# process, which holds by construction now that configuration is a value.
test:
	$(GO) test -shuffle=on ./...

# Configuration is a value (fsim.Tuning, core.Options) handed to the
# constructors; this keeps process-wide setters from quietly returning.
check-globals:
	@if grep -rnE 'func SetDefault|core\.SetOptions' --include=*.go cmd internal examples; then \
		echo "process-global configuration setter found: pass an fsim.Tuning / core.Options value instead"; exit 1; \
	fi

# The concurrency suite: the sharded buffer cache, concurrent trace
# replay, the page-table fuzz corpus, and the web server all run under
# the race detector. The explicit -run Fuzz pass replays the checked-in
# fuzz seed corpora (trace decode, dump parse, page table) as regular
# race-instrumented tests.
race:
	$(GO) test -race ./...
	$(GO) test -race -run 'Fuzz' ./internal/trace/ ./internal/buffercache/ ./internal/simdisk/ ./internal/netsim/

# Fuzz smoke: `test` and `race` only replay the checked-in corpora;
# this gives every fuzz target ten seconds of real mutation. A crasher
# lands under the package's testdata/fuzz: commit it with the fix.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzRead$$' -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzTraceV2$$' -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzParseDump$$' -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzFaultPlanParse$$' -fuzztime 10s ./internal/simdisk
	$(GO) test -run '^$$' -fuzz '^FuzzElevator$$' -fuzztime 10s ./internal/simdisk
	$(GO) test -run '^$$' -fuzz '^FuzzNetFaultPlanParse$$' -fuzztime 10s ./internal/netsim
	$(GO) test -run '^$$' -fuzz '^FuzzParseRequest$$' -fuzztime 10s ./internal/webserver
	$(GO) test -run '^$$' -fuzz '^FuzzPageTable$$' -fuzztime 10s ./internal/buffercache

# Benchmark smoke: every benchmark runs exactly once so regressions in
# the harness itself (not perf) surface in CI quickly.
bench:
	$(GO) test -bench=. -benchtime=1x ./...

# Cold-path smoke: the miss/evict cycle and the simdisk model benchmarks
# run once, named explicitly. `make bench` already covers them via its
# -bench=. sweep; this target exists so the cold path stays exercised
# even if that pattern is ever narrowed, and as the one-command repro
# for cold-path harness breakage.
bench-cold:
	$(GO) test -run '^$$' -bench 'BenchmarkCacheMissEvict' -benchtime=1x ./internal/buffercache
	$(GO) test -run '^$$' -bench . -benchtime=1x ./internal/simdisk

# Contention smoke: one dispatch out of a thousands-deep pending set
# under each policy, then the partitioned replay through the shared disk
# queue at 1, 4, and 8 lanes. One lane must serve inline (the private
# model nested exactly); 4 and 8 lanes exercise the event-merged
# dispatch gate end to end from the command line.
bench-contention:
	$(GO) test -run '^$$' -bench 'BenchmarkQueueDispatchDeep' -benchtime=1x ./internal/simdisk/sharedq
	$(GO) run ./cmd/tracebench -app Parallel -workers 1 -concurrent -shards 8 -disk-queue shared -sched sstf
	$(GO) run ./cmd/tracebench -app Parallel -workers 4 -concurrent -shards 8 -disk-queue shared -sched sstf
	$(GO) run ./cmd/tracebench -app Parallel -workers 8 -concurrent -shards 8 -disk-queue shared -sched sstf

# Trace-pipeline smoke: the v2 encode/decode/replay benchmarks run once
# (records/sec, bytes/record, 0 allocs/record), then the out-of-core
# example streams a generator -> encoder -> pipe -> Scanner ->
# ReplayStream pipeline end to end and prints bytes/record and peak
# heap. Together they exercise every stage of the out-of-core path from
# the command line.
bench-trace:
	$(GO) test -run '^$$' -bench 'BenchmarkScanV1|BenchmarkScanV2|BenchmarkEncodeV2' -benchtime=1x ./internal/trace
	$(GO) test -run '^$$' -bench 'BenchmarkReplayStream' -benchtime=1x ./internal/tracesim
	$(GO) run ./examples/outofcore -records 100000

# Fault-injection smoke: the degraded-mode path end to end. The
# fault-injected and rebuilding 8-lane replays must be bit-identical
# across runs under the race detector, then tracebench drives the same
# degraded RAID5 array from the command line: a dead member served by
# reconstruct-reads, seeded op-level injection absorbed by
# retry/backoff (budget <= max retries, so nothing fails), and the
# dead member rebuilding onto a spare through the shared queue while
# the foreground lanes replay.
bench-faults:
	$(GO) test -race -count=1 -run 'TestFaultInjectedReplayDeterministic|TestRebuildingReplayDeterministic' ./internal/tracesim
	$(GO) run ./cmd/tracebench -app Parallel -workers 8 -concurrent -shards 8 -disk-queue shared -sched sstf -disks 4 -raid raid5 -faults "fail:1@0s"
	$(GO) run ./cmd/tracebench -app Parallel -workers 8 -concurrent -shards 8 -disk-queue shared -sched sstf -disks 4 -raid raid5 -faults "fail:1@0s" -inject "seed=7,rate=20,budget=4" -retry "max=4,base=50us"
	$(GO) run ./cmd/tracebench -app Parallel -workers 8 -concurrent -shards 8 -disk-queue shared -sched sstf -disks 4 -raid raid5 -faults "fail:1@0s" -rebuild 1

# Availability smoke: the distributed fault-tolerance path end to end.
# The node-kill sweep (consistent-hash failover, RPC deadlines, backoff,
# the availability curve) must be bit-identical across ten runs under
# the race detector; then cmd/distbench drives the three ablation legs
# from the command line — healthy, a server killed at 20 ms, and the
# kill while every server rebuilds two dead mirror members from a
# 2-spare pool.
bench-avail:
	$(GO) test -race -count=10 -run 'TestNodeKillSweepDeterministic' ./internal/distbench
	$(GO) run ./cmd/distbench -nodes 8 -servers 3 -requests 32 -deadline 5ms -retry "max=3,base=200us" -curve=false
	$(GO) run ./cmd/distbench -nodes 8 -servers 3 -requests 32 -deadline 5ms -retry "max=3,base=200us" -net-faults "kill:server0@20ms"
	$(GO) run ./cmd/distbench -nodes 8 -servers 3 -requests 32 -deadline 5ms -retry "max=3,base=200us" -net-faults "kill:server0@20ms" -disks 3 -raid raid1 -faults "fail:1@0s,fail:2@0s" -spares 2 -rebuild 1,2 -curve=false

# The benchmark harness is a nested module (repro/bench, replace
# repro => ../) that `go build ./...` and `go test ./...` at the root
# never compile. It links against internal/ signatures and parses CLI
# output lines, so vet and test it here; bench/README.md is the one
# documented way to measure.
bench-module:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# End-to-end smoke for the io/fs facade: the example runs unmodified
# stdlib code (fs.WalkDir, fs.ReadFile, archive/tar) against the
# simulated store and prints the ledger costs. It exercises directory
# synthesis, the handle Read/Seek path, and session-lane billing in one
# deterministic program.
stdfs-smoke:
	$(GO) run ./examples/stdfs

# Distributed-fault smoke: examples/distributed ends with the node-kill
# demo (three replicas, server0 killed at 20 ms, failover curve), and
# webbench's degraded mode sheds web-tier load while the RAID1 array
# rebuilds two members from the spare pool.
distfault-smoke:
	$(GO) run ./examples/distributed
	$(GO) run ./cmd/webbench -mode degraded -addr 127.0.0.1:0 -clients 12 -requests 40

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

ci: build vet fmt-check check-globals test race fuzz-smoke bench bench-cold bench-contention bench-trace bench-faults bench-avail bench-module stdfs-smoke distfault-smoke
