// Tracebench runs the paper's second benchmark standalone: it replays an
// application I/O trace — loaded from a UMDT file or synthesized on the
// fly — against the simulated file store (or a real directory with -real)
// and prints the per-operation timing report.
//
// Usage:
//
//	tracebench -app Cholesky
//	tracebench -trace ./traces/lu.trace
//	tracebench -app Dmine -real -dir /tmp/replaydir
//	tracebench -tables            # regenerate Tables 1-4
//	tracebench -app Pgrep -concurrent -shards 0   # striped cache, auto
//	tracebench -app Mixed -sweep                  # shard scaling sweep
//	tracebench -app Parallel -workers 8 -concurrent -shards 8 -writeback 8 -sched sstf
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
	"time"

	"repro/internal/buffercache"
	"repro/internal/fsim"
	"repro/internal/trace"
	"repro/internal/tracegen"
	"repro/internal/tracesim"
)

// storeFlags are the simulated-store flags tracebench accepts.
var storeFlags = []string{"shards", "writeback", "writeback-batch", "writeback-highwater", "sched",
	"disk-queue", "disks", "raid", "faults", "inject", "retry", "spares"}

func main() {
	var (
		app        = flag.String("app", "", "application to synthesize: Dmine, Pgrep, LU, Titan, Cholesky")
		tracePath  = flag.String("trace", "", "path to a UMDT trace file to replay instead")
		fileSize   = flag.Int64("filesize", 1<<30, "sample file size in bytes")
		requests   = flag.Int("requests", 0, "request count override for synthesis (0 = default)")
		real       = flag.Bool("real", false, "replay against a real directory instead of the simulator")
		dir        = flag.String("dir", "", "directory for -real mode (default: a temp dir)")
		tables     = flag.Bool("tables", false, "regenerate the paper's Tables 1-4 and exit")
		perReq     = flag.Bool("requests-detail", false, "print per-request rows")
		concurrent = flag.Bool("concurrent", false, "replay with one goroutine per traced process")
		stream     = flag.Bool("stream", false, "replay out of core: decode records straight off the trace stream into per-process worker queues (implies concurrent; private disk-queue mode only)")
		dump       = flag.Bool("dump", false, "print the trace in text form instead of replaying")
		paced      = flag.Bool("paced", false, "honour the trace's wall-clock stamps as think time (serial replay only)")
		sweep      = flag.Bool("sweep", false, "replay concurrently at shard counts 1,2,4,...,auto and report scaling")
		workers    = flag.Int("workers", 0, "worker processes for -app Parallel (0 = its default)")
		rebuild    = flag.String("rebuild", "", `rebuild these members onto spares during -concurrent replay, e.g. "1" or "1,2" (empty = off)`)
		tune       fsim.Tuning
	)
	tune.RegisterFlags(flag.CommandLine, storeFlags...)
	flag.Parse()

	rebuildMembers, err := fsim.ParseMembers(*rebuild)
	if err != nil {
		fatal(err)
	}
	if len(rebuildMembers) > 0 && !*concurrent {
		fatal(fmt.Errorf("-rebuild runs alongside -concurrent replay; add -concurrent"))
	}
	if *paced && (*concurrent || *stream || *sweep) {
		fatal(fmt.Errorf("-paced charges think time on serial replay only; drop -concurrent/-stream/-sweep"))
	}
	// A mode that builds no store, sweeps the stripe count itself, or
	// opens no session lane must not swallow the flags it cannot honour.
	// Injection rolls on session lanes only: serial replay and -tables
	// run on the store's default session, which never injects, and the
	// retry policy only bounds recovery from injected faults.
	lanes := (*concurrent || *stream || *sweep) && !*tables
	flag.Visit(func(f *flag.Flag) {
		switch {
		case *real && slices.Contains(storeFlags, f.Name):
			fatal(fmt.Errorf("-%s configures the simulated store; drop it or -real", f.Name))
		case *sweep && f.Name == "shards":
			fatal(fmt.Errorf("-sweep picks the stripe counts itself; drop -shards"))
		case (f.Name == "inject" || f.Name == "retry") && !lanes:
			fatal(fmt.Errorf("-%s acts on session lanes, which serial replay and -tables never open; add -concurrent, -stream or -sweep", f.Name))
		case f.Name == "retry" && !tune.Inject.Enabled():
			fatal(fmt.Errorf("-retry bounds recovery from injected faults; add -inject"))
		}
	})

	params := tracegen.Params{SampleFile: "sample-1gb.dat", FileSize: *fileSize, Requests: *requests, Workers: *workers}

	if *tables {
		tbs, _, err := tracesim.AllTables(params, tune)
		if err != nil {
			fatal(err)
		}
		for _, tb := range tbs {
			fmt.Println(tb.Render())
		}
		return
	}

	var tr *trace.Trace
	var name string
	switch {
	case *stream:
		// Out-of-core mode: the trace is never materialized. Decide the
		// source here; the scanner is opened at replay time.
		if *dump || *sweep {
			fatal(fmt.Errorf("-stream replays out of core; drop -dump/-sweep"))
		}
		switch {
		case *tracePath != "":
			name = *tracePath
		case *app != "":
			name = *app
		default:
			fmt.Fprintln(os.Stderr, "tracebench: -stream needs -app or -trace")
			flag.Usage()
			os.Exit(2)
		}
	case *tracePath != "":
		f, err := os.Open(*tracePath)
		if err != nil {
			fatal(err)
		}
		tr, err = trace.Read(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		name = *tracePath
	case *app == "Parallel":
		// The n-worker partitioned workload: the simulated-parallel
		// scaling subject (disjoint regions, per-worker opens).
		var err error
		tr, err = tracegen.Parallel(params)
		if err != nil {
			fatal(err)
		}
		name = *app
	case *app == "Mixed":
		// The five applications interleaved through one cache — the
		// consolidation workload, and the natural -sweep subject.
		var err error
		tr, err = tracegen.Mixed(params)
		if err != nil {
			fatal(err)
		}
		name = *app
	case *app != "":
		var err error
		tr, err = tracegen.Generate(*app, params)
		if err != nil {
			fatal(err)
		}
		name = *app
	default:
		fmt.Fprintln(os.Stderr, "tracebench: need -app, -trace, or -tables")
		flag.Usage()
		os.Exit(2)
	}

	if *dump {
		if err := trace.Dump(os.Stdout, tr); err != nil {
			fatal(err)
		}
		return
	}

	if *sweep {
		if *real {
			fatal(fmt.Errorf("-sweep replays against the simulator; drop -real"))
		}
		if err := sweepShards(name, tr, *fileSize, tune); err != nil {
			fatal(err)
		}
		return
	}

	var store fsim.Store
	if *real {
		d := *dir
		if d == "" {
			var err error
			d, err = os.MkdirTemp("", "tracebench-")
			if err != nil {
				fatal(err)
			}
			fmt.Printf("replaying in %s\n", d)
		}
		s, err := fsim.NewOSStore(d)
		if err != nil {
			fatal(err)
		}
		store = s
	} else {
		cfg, err := tune.Apply(fsim.DefaultConfig())
		if err != nil {
			fatal(err)
		}
		s, err := fsim.NewFileStore(cfg)
		if err != nil {
			fatal(err)
		}
		defer s.Close()
		store = s
	}

	rp := tracesim.NewReplayer(store)
	rp.SampleFileSize = *fileSize
	rp.Paced = *paced
	rp.RebuildMembers = rebuildMembers
	var rep *tracesim.Report
	var replayed int64
	switch {
	case *stream:
		var sc *trace.Scanner
		var done func() error
		sc, done, err = openScanner(*tracePath, name, params)
		if err != nil {
			fatal(err)
		}
		rep, err = rp.ReplayStream(name, sc)
		if cerr := done(); err == nil {
			err = cerr
		}
		replayed = sc.Count()
	case *concurrent:
		rep, err = rp.ReplayConcurrent(name, tr)
		replayed = int64(len(tr.Records))
	default:
		rep, err = rp.Replay(name, tr)
		replayed = int64(len(tr.Records))
	}
	if err != nil {
		fatal(err)
	}
	fmt.Println(rep.Table().Render())
	fmt.Printf("replayed %d records in %v (simulated elapsed time)\n", replayed, rep.Elapsed)
	if (*concurrent || *stream) && rep.WorkerTime > rep.Elapsed {
		fmt.Printf("worker time %v overlapped %.2fx across lanes\n",
			rep.WorkerTime, float64(rep.WorkerTime)/float64(rep.Elapsed))
	}
	if fs, ok := store.(*fsim.FileStore); ok && fs.Cache().WritebackEnabled() {
		// Quiesce the flushers before reading their counters: serial
		// replay does not settle on its own, and in-flight drains would
		// otherwise race the print (and leave sub-threshold residue dirty).
		fs.Settle()
		st := fs.Cache().Stats()
		horizon := time.Duration(0)
		if h := fs.Cache().WritebackHorizon(); !h.IsZero() {
			horizon = h.Sub(fs.Timeline().Start())
		}
		fmt.Printf("write-back: %d pages in %d scheduled batches, horizon %v\n",
			st.WritebackPages, st.WritebackBatches, horizon)
	}
	if fs, ok := store.(*fsim.FileStore); ok && fs.SharedQueue() != nil {
		q := fs.SharedQueue()
		qs := q.Stats()
		fmt.Printf("shared queue (%s): %d dispatches (%d sync, %d async), max depth %d, queue delay %v\n",
			q.Policy(), qs.Dispatches, qs.SyncDispatches, qs.AsyncDispatches, qs.MaxPending, qs.QueueDelay)
	}
	if rec := rep.Recovery; rec.Any() {
		fmt.Printf("fault recovery: %d injected, %d retried, %d recovered, %d failed\n",
			rec.Injected, rec.Retried, rec.Recovered, rec.Failed)
	}
	if rep.RebuildRows > 0 {
		for _, m := range rep.RebuildMembers {
			fmt.Printf("rebuild: member %d reconstructed, %d blocks (%d spare writes)\n",
				m.Member, m.Rows, m.Writes)
		}
		fmt.Printf("rebuild: %d blocks total in %v (simulated)\n", rep.RebuildRows, rep.RebuildTime)
	}
	if fs, ok := store.(*fsim.FileStore); ok {
		if ds := fs.TotalDiskStats(); ds.DegradedReads+ds.ReconstructReads+ds.MediaErrors+ds.Unrecoverable > 0 {
			fmt.Printf("degraded mode: %d failover reads, %d reconstruct reads, %d media errors, %d unrecoverable, slowdown %v\n",
				ds.DegradedReads, ds.ReconstructReads, ds.MediaErrors, ds.Unrecoverable, ds.SlowdownTime)
		}
	}
	if *perReq {
		for _, r := range rep.Requests {
			fmt.Printf("  #%-4d %-5s size=%-10d seek=%.6f ms read=%.6f ms write=%.6f ms\n",
				r.Index, r.Op, r.Size, r.SeekMS, r.ReadMS, r.WriteMS)
		}
	}
}

// openScanner returns the -stream mode record source: a scanner over
// the trace file when one was given, else over a pipe fed by the
// streaming generator encoding v2 on the fly — either way no record
// slice ever exists. done must be called after the replay drains the
// scanner; it surfaces the source's close/generate error.
func openScanner(tracePath, app string, params tracegen.Params) (*trace.Scanner, func() error, error) {
	if tracePath != "" {
		f, err := os.Open(tracePath)
		if err != nil {
			return nil, nil, err
		}
		sc, err := trace.NewScanner(f)
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		return sc, f.Close, nil
	}
	pr, pw := io.Pipe()
	go func() {
		_, err := tracegen.EncodeV2(pw, app, params)
		pw.CloseWithError(err)
	}()
	sc, err := trace.NewScanner(pr)
	if err != nil {
		pr.Close()
		return nil, nil, err
	}
	return sc, func() error { return pr.Close() }, nil
}

// sweepShards replays the trace concurrently once per shard count from 1
// (the single-mutex baseline) doubling up to the machine-derived stripe
// count, and prints wall-clock scaling alongside the simulated-parallel
// numbers: elapsed (max over lanes), summed worker time, and the overlap
// factor — the lock-striping + virtual-time ablation as a command.
func sweepShards(name string, tr *trace.Trace, fileSize int64, tune fsim.Tuning) error {
	max := buffercache.AutoShards()
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "shards\twall time\tspeedup\tsim elapsed\tworker time\toverlap\tcache hit rate")
	var baseline time.Duration
	for n := 1; n <= max; n *= 2 {
		tune.Shards = n
		cfg, err := tune.Apply(fsim.DefaultConfig())
		if err != nil {
			return err
		}
		store, err := fsim.NewFileStore(cfg)
		if err != nil {
			return err
		}
		rp := tracesim.NewReplayer(store)
		rp.SampleFileSize = fileSize
		start := time.Now()
		rep, err := rp.ReplayConcurrent(name, tr)
		if err != nil {
			return err
		}
		wall := time.Since(start)
		store.Close()
		if n == 1 {
			baseline = wall
		}
		speedup := float64(baseline) / float64(wall)
		overlap := 1.0
		if rep.Elapsed > 0 {
			overlap = float64(rep.WorkerTime) / float64(rep.Elapsed)
		}
		fmt.Fprintf(w, "%d\t%v\t%.2fx\t%v\t%v\t%.2fx\t%.1f%%\n",
			n, wall.Round(time.Microsecond), speedup, rep.Elapsed.Round(time.Microsecond),
			rep.WorkerTime.Round(time.Microsecond), overlap,
			store.Cache().Stats().HitRate()*100)
	}
	return w.Flush()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "tracebench: %v\n", err)
	os.Exit(1)
}
