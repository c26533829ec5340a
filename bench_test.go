// Package repro's top-level benchmark harness: one testing.B benchmark
// per table and figure of the paper, plus ablation benchmarks for the
// design choices called out in DESIGN.md §5. Run with
//
//	go test -bench=. -benchmem .
//
// Fidelity note: each benchmark regenerates its artifact end to end, so
// b.N iterations measure the full experiment pipeline (generation,
// replay/simulation, rendering), not a single I/O operation.
package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/appmodel"
	"repro/internal/distbench"
	"repro/internal/fsim"
	"repro/internal/simdisk"
	"repro/internal/trace"
	"repro/internal/tracegen"
	"repro/internal/tracesim"
	"repro/internal/vm"
	"repro/internal/vmcompare"
	"repro/internal/webserver"
	"repro/internal/workload"
)

// benchBase keeps the behavioral-model benchmarks quick per iteration
// while exercising the identical code path as the full-scale experiment.
const benchBase = 2 * time.Second

// benchTraceParams shrinks trace replay to benchmark scale.
func benchTraceParams() tracegen.Params {
	p := tracegen.DefaultParams()
	p.FileSize = 64 << 20
	p.Requests = 64
	return p
}

// --- Benchmark 1: the application behavioral model (Figures 2-5) ---

func BenchmarkFig2QCRDExecution(b *testing.B) {
	machine := appmodel.DefaultMachine()
	for i := 0; i < b.N; i++ {
		if _, _, err := appmodel.Figure2(machine, benchBase); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3QCRDPercentage(b *testing.B) {
	machine := appmodel.DefaultMachine()
	for i := 0; i < b.N; i++ {
		if _, _, err := appmodel.Figure3(machine, benchBase); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4DiskSpeedup(b *testing.B) {
	machine := appmodel.DefaultMachine()
	for i := 0; i < b.N; i++ {
		if _, _, err := appmodel.Figure4(machine, benchBase); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5CPUSpeedup(b *testing.B) {
	machine := appmodel.DefaultMachine()
	for i := 0; i < b.N; i++ {
		if _, _, err := appmodel.Figure5(machine, benchBase); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkErrorCheckSimVsAnalytic(b *testing.B) {
	machine := appmodel.DefaultMachine()
	app := appmodel.QCRD()
	for i := 0; i < b.N; i++ {
		if _, err := appmodel.SimulatorError(app, machine, benchBase); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Benchmark 2: the trace-driven simulator (Tables 1-4) ---

func BenchmarkTable1Dmine(b *testing.B) {
	params := benchTraceParams()
	for i := 0; i < b.N; i++ {
		if _, _, err := tracesim.Table1(params, fsim.Tuning{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Titan(b *testing.B) {
	params := benchTraceParams()
	for i := 0; i < b.N; i++ {
		if _, _, err := tracesim.Table2(params, fsim.Tuning{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3LU(b *testing.B) {
	params := benchTraceParams()
	for i := 0; i < b.N; i++ {
		if _, _, err := tracesim.Table3(params, fsim.Tuning{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4Cholesky(b *testing.B) {
	params := benchTraceParams()
	for i := 0; i < b.N; i++ {
		if _, _, err := tracesim.Table4(params, fsim.Tuning{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPgrepReplay(b *testing.B) {
	// Pgrep has no table of its own in the paper but is part of the §3.1
	// application set; benchmark its replay alongside the others.
	params := benchTraceParams()
	for i := 0; i < b.N; i++ {
		if _, err := tracesim.RunApp("Pgrep", params, fsim.Tuning{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Benchmark 3: the web server (Tables 5-6, Figure 6) ---

func BenchmarkTable5WebServer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := webserver.Table5(fsim.Tuning{}, webserver.ShedPolicy{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6RepeatedReads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := webserver.Table6(fsim.Tuning{}, webserver.ShedPolicy{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6ReadWarmup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := webserver.Figure6(fsim.Tuning{}, webserver.ShedPolicy{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationPrefetch measures Cholesky replay with read-ahead on
// vs off: without prefetch, the sequential supernode scans fault page by
// page and the Table 4 spike pattern collapses into uniform slowness.
func BenchmarkAblationPrefetch(b *testing.B) {
	run := func(b *testing.B, prefetchPages int) {
		params := benchTraceParams()
		for i := 0; i < b.N; i++ {
			tr, err := tracegen.Cholesky(params)
			if err != nil {
				b.Fatal(err)
			}
			cfg := fsim.DefaultConfig()
			cfg.Cache.PrefetchPages = prefetchPages
			store, err := fsim.NewFileStore(cfg)
			if err != nil {
				b.Fatal(err)
			}
			rp := tracesim.NewReplayer(store)
			rp.SampleFileSize = params.FileSize
			rep, err := rp.Replay("Cholesky", tr)
			if err != nil {
				b.Fatal(err)
			}
			// The interesting output is the warm/cold contrast on the
			// sequential mid-size rows: with read-ahead, request 4
			// (133692 B, continuing the supernode scan) is served from
			// prefetched pages; without it, the same row faults cold.
			var warmRow, coldRow float64
			nread := 0
			for _, r := range rep.Requests {
				if r.Op != trace.OpRead {
					continue
				}
				if nread == 3 {
					warmRow = r.ReadMS * 1000
				}
				if nread == 2 {
					coldRow = r.ReadMS * 1000
				}
				nread++
			}
			b.ReportMetric(warmRow, "seq-row-us")
			b.ReportMetric(coldRow, "jump-row-us")
		}
	}
	b.Run("prefetch=on", func(b *testing.B) { run(b, 64) })
	b.Run("prefetch=off", func(b *testing.B) { run(b, 0) })
}

// BenchmarkAblationJIT measures the Table 6 pipeline with the JIT cost
// model on vs off, isolating how much of the first-trial spike is
// compilation rather than cold cache.
func BenchmarkAblationJIT(b *testing.B) {
	run := func(b *testing.B, jit bool) {
		for i := 0; i < b.N; i++ {
			store, err := fsim.NewFileStore(fsim.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			if err := workload.Install(store, workload.WebCorpus()); err != nil {
				b.Fatal(err)
			}
			store.Cache().Invalidate()
			vmCfg := vm.DefaultConfig()
			vmCfg.JITEnabled = jit
			rt := vm.MustNew(vmCfg, nil)
			rt.RegisterBCL()
			name := workload.WebCorpus()[3].Name
			var firstTrial time.Duration
			for trial := 0; trial < 6; trial++ {
				fs, openDur, err := vm.OpenFileStream(rt, store, name)
				if err != nil {
					b.Fatal(err)
				}
				_, readDur, err := fs.ReadAll()
				if err != nil {
					b.Fatal(err)
				}
				closeDur, _ := fs.Close()
				if trial == 0 {
					firstTrial = openDur + readDur + closeDur
				}
			}
			b.ReportMetric(float64(firstTrial.Microseconds()), "first-trial-us")
		}
	}
	b.Run("jit=on", func(b *testing.B) { run(b, true) })
	b.Run("jit=off", func(b *testing.B) { run(b, false) })
}

// BenchmarkAblationStripe sweeps the disk-array stripe unit for a large
// striped read, the knob behind Figure 4's sensitivity.
func BenchmarkAblationStripe(b *testing.B) {
	for _, unit := range []int64{16 << 10, 64 << 10, 256 << 10, 1 << 20} {
		b.Run(byteLabel(unit), func(b *testing.B) {
			array := simdisk.MustNewArray(8, unit, simdisk.DefaultParams())
			now := time.Unix(0, 0)
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				_, d := array.Access(now, simdisk.Request{Offset: 0, Length: 16 << 20})
				elapsed = d
				array.Reset()
			}
			b.ReportMetric(float64(elapsed.Microseconds()), "simulated-us/16MB-read")
		})
	}
}

// BenchmarkAblationCacheSize sweeps the page-cache capacity for the
// Dmine replay: once the working set outgrows the cache, rescans stop
// hitting.
func BenchmarkAblationCacheSize(b *testing.B) {
	for _, pages := range []int{256, 1024, 4096, 16384} {
		b.Run(byteLabel(int64(pages)*4096), func(b *testing.B) {
			params := benchTraceParams()
			for i := 0; i < b.N; i++ {
				tr, err := tracegen.Dmine(params)
				if err != nil {
					b.Fatal(err)
				}
				cfg := fsim.DefaultConfig()
				cfg.Cache.NumPages = pages
				store, err := fsim.NewFileStore(cfg)
				if err != nil {
					b.Fatal(err)
				}
				rp := tracesim.NewReplayer(store)
				rp.SampleFileSize = params.FileSize
				rep, err := rp.Replay("Dmine", tr)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.Read.Mean()*1000, "read-us-mean")
			}
		})
	}
}

// BenchmarkAblationServerModel compares thread-per-connection (the
// paper's design) with a fixed worker pool under a burst of sequential
// clients.
func BenchmarkAblationServerModel(b *testing.B) {
	run := func(b *testing.B, poolSize int) {
		store, err := fsim.NewFileStore(fsim.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if err := workload.Install(store, workload.WebCorpus()); err != nil {
			b.Fatal(err)
		}
		rt := vm.MustNew(vm.DefaultConfig(), nil)
		rt.RegisterBCL()
		srv, err := webserver.New(webserver.Config{Store: store, Runtime: rt, PoolSize: poolSize})
		if err != nil {
			b.Fatal(err)
		}
		addr, err := srv.Start()
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		name := workload.WebCorpus()[0].Name
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cl, err := webserver.Dial(addr)
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < 4; j++ {
				if _, err := cl.Get(name); err != nil {
					b.Fatal(err)
				}
			}
			cl.Close()
		}
	}
	b.Run("thread-per-conn", func(b *testing.B) { run(b, 0) })
	b.Run("pool=4", func(b *testing.B) { run(b, 4) })
}

// byteLabel renders a byte count compactly for sub-benchmark names.
func byteLabel(n int64) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return itoa(n>>20) + "MB"
	case n >= 1<<10 && n%(1<<10) == 0:
		return itoa(n>>10) + "KB"
	default:
		return itoa(n) + "B"
	}
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// --- Extension benchmarks (§5 future work) ---

// BenchmarkVMCompare regenerates the cross-runtime Table 6 comparison.
func BenchmarkVMCompare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := vmcompare.Compare(nil, fsim.Tuning{})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Profile.Name == "SSCLI" {
				b.ReportMetric(r.WarmupFactor(), "sscli-warmup-x")
			}
		}
	}
}

// BenchmarkDistLoad runs the distributed scaling sweep.
func BenchmarkDistLoad(b *testing.B) {
	cfg := distbench.DefaultConfig()
	cfg.RequestsPerNode = 16
	for i := 0; i < b.N; i++ {
		results, err := distbench.Sweep(cfg, []int{1, 4, 16})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(results[len(results)-1].Throughput, "req-per-s-at-16-nodes")
	}
}

// BenchmarkAblationScheduler compares disk scheduling policies on a
// scattered 32-request batch.
func BenchmarkAblationScheduler(b *testing.B) {
	for _, policy := range []simdisk.SchedPolicy{simdisk.FCFS, simdisk.SSTF, simdisk.SCAN} {
		b.Run(policy.String(), func(b *testing.B) {
			// A 1 GB region makes the hashed offsets wrap many times, so
			// the batch arrives genuinely scattered (near-ascending
			// offsets would make all policies equivalent).
			params := simdisk.DefaultParams()
			params.Capacity = 1 << 30
			var makespan time.Duration
			for i := 0; i < b.N; i++ {
				d := simdisk.MustNew(params)
				reqs := make([]simdisk.Request, 32)
				for j := range reqs {
					off := int64(j*2654435761) % params.Capacity
					if off < 0 {
						off += params.Capacity
					}
					reqs[j] = simdisk.Request{Offset: off, Length: 64 << 10}
				}
				_, end := d.ServeBatch(time.Unix(0, 0), reqs, policy)
				makespan = end.Sub(time.Unix(0, 0))
			}
			b.ReportMetric(float64(makespan.Microseconds()), "simulated-us/batch")
		})
	}
}

// BenchmarkConcurrentReplay compares sequential and goroutine-per-process
// replay of the four-worker Pgrep trace.
func BenchmarkConcurrentReplay(b *testing.B) {
	params := benchTraceParams()
	tr, err := tracegen.Pgrep(params)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			store, err := fsim.NewFileStore(fsim.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			rp := tracesim.NewReplayer(store)
			rp.SampleFileSize = params.FileSize
			if _, err := rp.Replay("Pgrep", tr); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("concurrent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			store, err := fsim.NewFileStore(fsim.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			rp := tracesim.NewReplayer(store)
			rp.SampleFileSize = params.FileSize
			if _, err := rp.ReplayConcurrent("Pgrep", tr); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The same goroutine-per-process replay with the page cache
	// lock-striped (fsim.ShardedConfig): the end-to-end trajectory of the
	// sharded-cache work, comparable against "concurrent" above.
	b.Run("concurrent-sharded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			store, err := fsim.NewFileStore(fsim.ShardedConfig())
			if err != nil {
				b.Fatal(err)
			}
			rp := tracesim.NewReplayer(store)
			rp.SampleFileSize = params.FileSize
			if _, err := rp.ReplayConcurrent("Pgrep", tr); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSimulatedParallel is the virtual-time scaling trajectory:
// the n-worker partitioned workload replayed concurrently on an
// 8-stripe write-back store, one virtual-clock lane per worker. The
// headline metric is simulated throughput (operations per simulated
// second): per-worker lanes overlap, so it scales with workers, where
// the old shared clock kept it flat. overlap-x is WorkerTime/Elapsed,
// the simulated-parallel speedup; both are deterministic run to run.
func BenchmarkSimulatedParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			params := tracegen.Params{
				SampleFile: "sample.dat", FileSize: 32 << 20,
				Requests: 256, Workers: workers,
			}
			tr, err := tracegen.Parallel(params)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				cfg := fsim.DefaultConfig()
				cfg.Cache.Shards = 8
				cfg.Cache.WritebackThreshold = 8
				cfg.Cache.WritebackPolicy = simdisk.SSTF
				store, err := fsim.NewFileStore(cfg)
				if err != nil {
					b.Fatal(err)
				}
				rp := tracesim.NewReplayer(store)
				rp.SampleFileSize = params.FileSize
				rep, err := rp.ReplayConcurrent("Parallel", tr)
				store.Close()
				if err != nil {
					b.Fatal(err)
				}
				ops := float64(rep.Read.N() + rep.Write.N() + rep.Seek.N())
				b.ReportMetric(ops/rep.Elapsed.Seconds(), "sim-ops/sec")
				b.ReportMetric(float64(rep.WorkerTime)/float64(rep.Elapsed), "overlap-x")
			}
		})
	}
}

// BenchmarkAblationRAID replays the write-heavy LU trace over RAID-0,
// RAID-1 and RAID-5 arrays, exposing the redundancy write penalties.
func BenchmarkAblationRAID(b *testing.B) {
	for _, level := range []simdisk.Level{simdisk.RAID0, simdisk.RAID1, simdisk.RAID5} {
		b.Run(level.String(), func(b *testing.B) {
			params := benchTraceParams()
			for i := 0; i < b.N; i++ {
				tr, err := tracegen.LU(params)
				if err != nil {
					b.Fatal(err)
				}
				cfg := fsim.DefaultConfig()
				cfg.Disks = 4
				cfg.RAIDLevel = level
				store, err := fsim.NewFileStore(cfg)
				if err != nil {
					b.Fatal(err)
				}
				rp := tracesim.NewReplayer(store)
				rp.SampleFileSize = params.FileSize
				rep, err := rp.Replay("LU", tr)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.Close.Mean()*1000, "close-flush-us")
				b.ReportMetric(float64(rep.Elapsed.Microseconds()), "simulated-us/replay")
			}
		})
	}
}

// BenchmarkMixedWorkloadReplay replays the five applications' traces
// interleaved through one cache — the consolidation/contention case.
func BenchmarkMixedWorkloadReplay(b *testing.B) {
	params := benchTraceParams()
	tr, err := tracegen.Mixed(params)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		store, err := fsim.NewFileStore(fsim.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		rp := tracesim.NewReplayer(store)
		rp.SampleFileSize = params.FileSize
		rep, err := rp.ReplayConcurrent("Mixed", tr)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(store.Cache().Stats().HitRate()*100), "cache-hit-%")
		b.ReportMetric(float64(rep.Elapsed.Microseconds()), "simulated-us/replay")
	}
}
