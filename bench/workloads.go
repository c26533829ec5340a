package main

import (
	"fmt"
	"strconv"

	"repro/bench/gen"
	"repro/internal/fsim"
	"repro/internal/simdisk"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the CLIs sees, measured with tracing off
// on the real binaries. One set of names serves every workload, because
// a run reports every metric; what an "op" is depends on the workload
// (README.md has the table):
//
//	ops_per_s      trace records (replay_*) or OK responses (web) per wall second
//	cpu_us_per_op  child user+sys CPU per record / per request served
//	peak_rss_mb    child peak resident set
//	sim_us_per_op  simulated time: elapsed per record / mean X-IO-Time-Ns
//	lat_p50_us     what the caller waits for: one GET / a whole tracebench run
//	lat_tail_us    p95 over a unit's GETs / the same run time again
//	               (a batch replay has no latency of its own: both are derived
//	               from ops_per_s there, and -compare does not count them)
//	setup_s        build + generate the trace (+ server start and warm-up)
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
	{"peak_rss_mb", "MB"},
	{"sim_us_per_op", "us"},
	{"lat_p50_us", "us"},
	{"lat_tail_us", "us"},
	{"setup_s", "s"},
}

// perLayer is the traced run's ladder, layers named after the modules
// under internal/. A layer a workload never enters reports 0.
var perLayer = []metricDef{
	{"trace.decode_ns_per_record", "ns"},
	{"trace.bytes_per_record", "B"},
	{"trace.decode_allocs_per_record", "count"},
	{"tracesim.self_ns_per_record", "ns"},
	{"tracesim.allocs_per_record", "count"},
	{"tracesim.heap_bytes_per_record", "B"},
	{"tracesim.rows", "count"},
	{"fsim.read_ns_per_op", "ns"},
	{"fsim.write_ns_per_op", "ns"},
	{"fsim.seek_ns_per_op", "ns"},
	{"fsim.openclose_ns_per_op", "ns"},
	{"fsim.ops", "count"},
	{"fsim.failed_ops", "count"},
	{"fsim.retried_ops", "count"},
	{"buffercache.self_ns_per_page", "ns"},
	{"buffercache.hits", "count"},
	{"buffercache.misses", "count"},
	{"buffercache.hit_ratio", "ratio"},
	{"buffercache.evictions", "count"},
	{"buffercache.prefetch_useful_ratio", "ratio"},
	{"buffercache.backend_calls", "count"},
	{"buffercache.pages_per_backend_call", "count"},
	{"buffercache.dirty_flushes", "count"},
	{"buffercache.writeback_pages", "count"},
	{"buffercache.writeback_batches", "count"},
	{"buffercache.writeback_throttles", "count"},
	{"sharedq.self_ns_per_dispatch", "ns"},
	{"sharedq.dispatches", "count"},
	{"sharedq.async_share", "ratio"},
	{"sharedq.max_pending", "count"},
	{"sharedq.queue_delay_ms", "ms"},
	{"simdisk.self_ns_per_access", "ns"},
	{"simdisk.accesses", "count"},
	{"simdisk.batch_requests", "count"},
	{"simdisk.busy_sim_ms", "ms"},
	{"simdisk.seek_sim_ms", "ms"},
	{"simdisk.bytes_read", "B"},
	{"simdisk.bytes_written", "B"},
	{"vm.invoke_ns", "ns"},
	{"vm.filestream_self_ns_per_get", "ns"},
	{"webserver.self_us_per_get", "us"},
	{"webserver.self_us_per_post", "us"},
	{"webserver.served", "count"},
	{"webserver.non200", "count"},
	{"harness.trace_overhead_pct", "%"},
	{"harness.client_cpu_us_per_req", "us"},
}

// cacheShards is the -shards value every workload passes: fixed rather
// than derived from GOMAXPROCS, so hosts with different core counts run
// the same cache.
const cacheShards = 8

// replayCfg is one tracebench workload: the trace to generate and the
// flags to replay it under. args and storeConfig are two renderings of
// the same fields, so the traced run's in-process store is configured
// exactly as the flags configure the binary's.
type replayCfg struct {
	spec gen.Spec
	// materialised replays through -concurrent (the trace loaded whole,
	// ReplayConcurrent) instead of -stream (ReplayStream).
	materialised bool
	// writeback is -writeback's dirty-page threshold; 0 flushes on close.
	writeback int
	// sstf passes -sched sstf (write-back batches and the shared queue).
	sstf bool
	// sharedQ passes -disk-queue shared.
	sharedQ bool
	// traced is the length of the traced run's trace: the same seeded
	// stream as spec's, cut at its own length.
	traced int
}

func (c replayCfg) args(tracePath string) []string {
	a := []string{"-stream"}
	if c.materialised {
		a = []string{"-concurrent"}
	}
	a = append(a, "-trace", tracePath,
		"-filesize", strconv.FormatInt(c.spec.FileSize, 10),
		"-shards", strconv.Itoa(cacheShards))
	if c.writeback > 0 {
		a = append(a, "-writeback", strconv.Itoa(c.writeback))
	}
	if c.sstf {
		a = append(a, "-sched", "sstf")
	}
	if c.sharedQ {
		a = append(a, "-disk-queue", "shared")
	}
	return a
}

func (c replayCfg) storeConfig() fsim.Config {
	cfg := fsim.DefaultConfig()
	cfg.Cache.Shards = cacheShards
	cfg.Cache.WritebackThreshold = c.writeback
	if c.sstf {
		cfg.Cache.WritebackPolicy = simdisk.SSTF
	}
	if c.sharedQ {
		cfg.DiskQueue = fsim.DiskQueueShared
	}
	return cfg
}

// webCfg is the web_loopback workload: a closed loop (the paper's
// clients wait for each reply) of conns persistent connections, each
// sending warm untimed then timed requests, one in sixteen a POST.
type webCfg struct {
	conns, warm, timed int
	postSize           int64
	// traced is the request count of each traced rung.
	traced int
}

type workloadDef struct {
	name   string
	replay *replayCfg
	web    *webCfg
}

// workloads returns the five workloads at the given scale. Sizes at
// scale 1 were chosen on a 2-core host so that one child run takes
// 0.8 to 1.3 s: a dozen or more fit in run_seconds, each on a fresh
// trace drawn from the seed, and the reported medians are over all of
// them. Why each exists is in BENCHMARK.json and README.md.
func workloads(scale float64) []workloadDef {
	n := func(v int) int {
		if s := int(float64(v) * scale); s > 64 {
			return s
		}
		return 64
	}
	const small, paper = 32 << 20, 1 << 30 // fits the 64 MiB cache; the paper's 1 GiB, 16x the cache
	return []workloadDef{
		{name: "replay_warm", replay: &replayCfg{
			spec:   gen.Spec{Records: n(400000), PIDs: 4, FileSize: small, WritePct: 11, JumpPct: 2},
			traced: n(200000)}},
		{name: "replay_cold", replay: &replayCfg{
			spec:   gen.Spec{Records: n(6000), PIDs: 4, FileSize: paper, WritePct: 11, JumpPct: 2},
			traced: n(12000)}},
		{name: "replay_write", replay: &replayCfg{
			spec:      gen.Spec{Records: n(300000), PIDs: 4, FileSize: small, WritePct: 50, JumpPct: 10},
			writeback: 8, sstf: true, traced: n(200000)}},
		{name: "replay_sharedq", replay: &replayCfg{
			spec:         gen.Spec{Records: n(6000), PIDs: 8, FileSize: paper, WritePct: 11, JumpPct: 2},
			materialised: true, sstf: true, sharedQ: true, traced: n(12000)}},
		{name: "web_loopback", web: &webCfg{
			conns: 2, warm: n(1000), timed: n(7500), postSize: 2048, traced: n(20000)}},
	}
}

func findWorkload(ws []workloadDef, name string) (workloadDef, error) {
	for _, w := range ws {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}
