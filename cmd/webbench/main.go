// Webbench runs the paper's third benchmark standalone. It can regenerate
// Tables 5-6 and Figure 6, serve the benchmark corpus on a real port
// (the paper's 5050 by default), or drive load against a running server.
//
// Usage:
//
//	webbench -mode tables
//	webbench -mode serve -addr :5050
//	webbench -mode serve -shards 0        # lock-striped page cache, auto
//	webbench -mode serve -lanes -writeback 8 -sched scan   # per-connection lanes
//	webbench -mode servefs -addr :5050    # stdlib http.FileServer over the io/fs facade
//	webbench -mode load -target 127.0.0.1:5050 -clients 8 -requests 100
//	webbench -mode degraded -clients 16 -requests 50   # shed under overload while the array rebuilds
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/fsim"
	"repro/internal/metrics"
	"repro/internal/simdisk"
	"repro/internal/vm"
	"repro/internal/webserver"
	"repro/internal/workload"
)

// modeFlags lists, per mode, the flags the mode honours; any other flag
// given with it is a usage error rather than silently dropped.
var modeFlags = map[string][]string{
	"tables": {},
	"serve": {"addr", "lanes", "shed", "shards", "writeback", "writeback-highwater", "sched",
		"disk-queue", "disks", "raid", "faults"},
	"servefs":  {"addr", "shards"},
	"load":     {"target", "clients", "requests", "posts"},
	"degraded": {"addr", "clients", "requests", "shed", "rebuild", "disks", "raid", "faults", "spares"},
}

func main() {
	var (
		mode     = flag.String("mode", "tables", "tables | serve | servefs | load | degraded")
		addr     = flag.String("addr", fmt.Sprintf("127.0.0.1:%d", webserver.DefaultPort), "listen address (serve, servefs, degraded)")
		target   = flag.String("target", fmt.Sprintf("127.0.0.1:%d", webserver.DefaultPort), "server address for load mode")
		clients  = flag.Int("clients", 4, "concurrent clients (load, degraded)")
		requests = flag.Int("requests", 50, "requests per client (load, degraded)")
		posts    = flag.Bool("posts", false, "mix POSTs into the load")
		lanes    = flag.Bool("lanes", false, "serve mode: give every connection its own virtual-time session")
		shedSpec = flag.String("shed", "", `load-shedding policy, e.g. "max=8,deadline=2ms" (serve; degraded default "max=8,deadline=2ms")`)
		rebuild  = flag.String("rebuild", "", `degraded mode: members to rebuild, e.g. "1,2" (empty = scenario default)`)
		tune     fsim.Tuning
	)
	// Store flags: serve honours all but -spares, servefs only -shards,
	// degraded the array ones (see modeFlags).
	tune.RegisterFlags(flag.CommandLine, "shards", "writeback", "writeback-highwater", "sched",
		"disk-queue", "disks", "raid", "faults", "spares")
	flag.Parse()

	allowed, ok := modeFlags[*mode]
	if !ok {
		fmt.Fprintf(os.Stderr, "webbench: unknown mode %q\n", *mode)
		os.Exit(2)
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "mode" && !slices.Contains(allowed, f.Name) {
			fatal(fmt.Errorf("-mode %s does not take -%s", *mode, f.Name))
		}
	})
	shed, err := webserver.ParseShedPolicy(*shedSpec)
	if err != nil {
		fatal(err)
	}

	switch *mode {
	case "tables":
		runTables()
	case "serve":
		runServe(*addr, *lanes, tune, shed)
	case "servefs":
		runServeFS(*addr, tune)
	case "load":
		runLoad(*target, *clients, *requests, *posts)
	case "degraded":
		runDegraded(*addr, *clients, *requests, tune, shed, *rebuild)
	}
}

func runTables() {
	t5, _, err := webserver.Table5(fsim.Tuning{}, webserver.ShedPolicy{})
	if err != nil {
		fatal(err)
	}
	fmt.Println(t5.Render())
	t6, _, err := webserver.Table6(fsim.Tuning{}, webserver.ShedPolicy{})
	if err != nil {
		fatal(err)
	}
	fmt.Println(t6.Render())
	fig, _, err := webserver.Figure6(fsim.Tuning{}, webserver.ShedPolicy{})
	if err != nil {
		fatal(err)
	}
	fmt.Println(fig.RenderLines(44, 10))
}

func runServe(addr string, lanes bool, tune fsim.Tuning, shed webserver.ShedPolicy) {
	if tune.DiskQueue == fsim.DiskQueueShared && !lanes {
		fatal(fmt.Errorf("-disk-queue shared needs -lanes: the queue contends connection sessions"))
	}
	cfg, err := tune.Apply(fsim.DefaultConfig())
	if err != nil {
		fatal(err)
	}
	store, err := fsim.NewFileStore(cfg)
	if err != nil {
		fatal(err)
	}
	defer store.Close()
	if err := workload.Install(store, workload.WebCorpus()); err != nil {
		fatal(err)
	}
	rt, err := vm.New(vm.DefaultConfig(), nil)
	if err != nil {
		fatal(err)
	}
	rt.RegisterBCL()
	srv, err := webserver.New(webserver.Config{Addr: addr, Store: store, Runtime: rt, Lanes: lanes, Shed: shed})
	if err != nil {
		fatal(err)
	}
	bound, err := srv.Start()
	if err != nil {
		fatal(err)
	}
	mode := "shared clock"
	if lanes {
		mode = "per-connection lanes"
		if cfg.DiskQueue == fsim.DiskQueueShared {
			mode = fmt.Sprintf("per-connection lanes, shared %s disk queue", cfg.Cache.WritebackPolicy)
		}
	}
	fmt.Printf("serving benchmark corpus on %s with %d cache stripes, %s (ctrl-c to stop)\n",
		bound, store.Cache().NumShards(), mode)
	for _, spec := range workload.WebCorpus() {
		fmt.Printf("  GET /%s  (%d bytes)\n", spec.Name, spec.Size)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	srv.Close()
	printRecords(srv.Records())
}

// runServeFS serves the benchmark corpus as plain HTTP through
// http.FileServer over the stdfs facade: any HTTP client (curl, a
// browser, hey) becomes a workload generator against the simulator.
// Each request runs on its own session lane; records carry the
// simulated per-request I/O time, like the native server's.
func runServeFS(addr string, tune fsim.Tuning) {
	cfg, err := tune.Apply(fsim.DefaultConfig())
	if err != nil {
		fatal(err)
	}
	store, err := fsim.NewFileStore(cfg)
	if err != nil {
		fatal(err)
	}
	defer store.Close()
	if err := workload.Install(store, workload.WebCorpus()); err != nil {
		fatal(err)
	}
	handler := webserver.NewHTTPFS(store)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Handler: handler}
	go hs.Serve(ln)
	fmt.Printf("serving benchmark corpus on http://%s via http.FileServer over the io/fs facade (%d cache stripes, ctrl-c to stop)\n",
		ln.Addr(), store.Cache().NumShards())
	for _, spec := range workload.WebCorpus() {
		fmt.Printf("  GET /%s  (%d bytes)\n", spec.Name, spec.Size)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	hs.Close()
	printRecords(handler.Records())
}

func runLoad(target string, clients, requests int, posts bool) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var lat metrics.Sample
	errs := make(chan error, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl, err := webserver.Dial(target)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			corpus := workload.WebCorpus()
			for i := 0; i < requests; i++ {
				spec := corpus[(id+i)%len(corpus)]
				var ioTime time.Duration
				if posts && i%4 == 3 {
					resp, err := cl.Post(spec.Name, workload.Payload(uint64(i), spec.Size))
					if err != nil {
						errs <- err
						return
					}
					ioTime = resp.ServerIOTime
				} else {
					resp, err := cl.Get(spec.Name)
					if err != nil {
						errs <- err
						return
					}
					ioTime = resp.ServerIOTime
				}
				mu.Lock()
				lat.AddDuration(ioTime)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		fatal(err)
	}
	elapsed := time.Since(start)
	total := clients * requests
	fmt.Printf("%d requests from %d clients in %v (%.0f req/s)\n",
		total, clients, elapsed, float64(total)/elapsed.Seconds())
	fmt.Printf("server-side I/O time: mean %.4f ms, p50 %.4f ms, p99 %.4f ms\n",
		lat.Mean(), lat.Quantile(0.5), lat.Quantile(0.99))
	cdf := metrics.NewFigure("server I/O latency distribution", "quantile", "ms")
	cdf.Add(lat.CDF(11))
	fmt.Println(cdf.RenderLines(44, 8))
}

// runDegraded is the combined robustness scenario: the web tier sheds
// load under overload while the store's RAID array rebuilds dead
// members onto hot spares. One report at the end joins the web-side
// tallies (served / shed / deadlined) with the rebuild's per-member
// outcome and the array's degraded-mode counters. Flags left at their
// zero values take the scenario defaults: a 3-way RAID1 mirror that
// lost two members at t0, a 2-spare pool rebuilding both, and an
// 8-in-flight / 2 ms-deadline shed policy.
func runDegraded(addr string, clients, requests int, tune fsim.Tuning, shed webserver.ShedPolicy, rebuild string) {
	base := fsim.DefaultConfig()
	base.Disks, base.RAIDLevel, base.Spares = 3, simdisk.RAID1, 2
	base.Faults = &simdisk.FaultPlan{Faults: []simdisk.Fault{
		{Disk: 1, Kind: simdisk.FaultDevice}, {Disk: 2, Kind: simdisk.FaultDevice}}}
	cfg, err := tune.Apply(base)
	if err != nil {
		fatal(err)
	}
	if !shed.Enabled() {
		shed = webserver.ShedPolicy{MaxInFlight: 8, Deadline: 2 * time.Millisecond}
	}
	if rebuild == "" {
		rebuild = "1,2"
	}
	members, err := fsim.ParseMembers(rebuild)
	if err != nil {
		fatal(err)
	}
	store, err := fsim.NewFileStore(cfg)
	if err != nil {
		fatal(err)
	}
	defer store.Close()
	if err := workload.Install(store, workload.WebCorpus()); err != nil {
		fatal(err)
	}
	rt, err := vm.New(vm.DefaultConfig(), nil)
	if err != nil {
		fatal(err)
	}
	rt.RegisterBCL()
	srv, err := webserver.New(webserver.Config{Addr: addr, Store: store, Runtime: rt, Lanes: true, Shed: shed})
	if err != nil {
		fatal(err)
	}
	bound, err := srv.Start()
	if err != nil {
		fatal(err)
	}

	rb, err := store.BeginRebuilds(members)
	if err != nil {
		fatal(err)
	}
	rebuildDone := make(chan struct{})
	go func() {
		rb.Run()
		close(rebuildDone)
	}()

	fmt.Printf("degraded scenario on %s: %d clients x %d requests against a %s array (faults %q), rebuilding members %v from a %d-spare pool, shed policy %s\n",
		bound, clients, requests, strings.ToLower(cfg.RAIDLevel.String()), cfg.Faults.String(), members, cfg.Spares, shed)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var lat metrics.Sample
	var ok200, ok503 int
	errs := make(chan error, clients)
	corpus := workload.WebCorpus()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl, err := webserver.Dial(bound)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for i := 0; i < requests; i++ {
				spec := corpus[(id+i)%len(corpus)]
				resp, err := cl.Get(spec.Name)
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				if resp.Status == 503 {
					ok503++
				} else {
					ok200++
					lat.AddDuration(resp.ServerIOTime)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		fatal(err)
	}
	<-rebuildDone
	srv.Close()

	rows, elapsed := rb.Rows(), rb.Elapsed()
	if err := rb.Finish(); err != nil {
		fatal(err)
	}

	served, shedN, deadlined := 0, 0, 0
	for _, r := range srv.Records() {
		switch {
		case r.Shed:
			shedN++
		case r.Deadlined:
			deadlined++
		default:
			served++
		}
	}
	fmt.Printf("web tier: %d served, %d shed, %d deadlined (%d clients saw 200, %d saw 503)\n",
		served, shedN, deadlined, ok200, ok503)
	if lat.N() > 0 {
		fmt.Printf("server-side I/O time: mean %.4f ms, p99 %.4f ms\n", lat.Mean(), lat.Quantile(0.99))
	}
	for _, m := range rb.Members() {
		fmt.Printf("rebuild: member %d reconstructed, %d blocks (%d spare writes)\n", m.Member, m.Rows, m.Writes)
	}
	fmt.Printf("rebuild: %d blocks total in %v (simulated)\n", rows, elapsed)
	ds := store.TotalDiskStats()
	fmt.Printf("degraded mode: %d failover reads, %d reconstruct reads, %d rebuild writes\n",
		ds.DegradedReads, ds.ReconstructReads, ds.RebuildWrites)
}

func printRecords(recs []webserver.RequestRecord) {
	if len(recs) == 0 {
		return
	}
	served, shed, deadlined := 0, 0, 0
	for _, r := range recs {
		switch {
		case r.Shed:
			shed++
		case r.Deadlined:
			deadlined++
		default:
			served++
		}
	}
	fmt.Printf("served %d requests (%d shed, %d deadlined):\n", served, shed, deadlined)
	for i, r := range recs {
		if i >= 20 {
			fmt.Printf("  ... and %d more\n", len(recs)-20)
			return
		}
		note := ""
		if r.Shed {
			note = "  [503 shed]"
		} else if r.Deadlined {
			note = "  [503 deadlined]"
		}
		fmt.Printf("  %-4s %-16s %8d bytes  %.4f ms%s\n", r.Kind, r.File, r.Size, r.IOTimeMS(), note)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "webbench: %v\n", err)
	os.Exit(1)
}
