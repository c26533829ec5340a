package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/bench/gen"
	"repro/internal/metrics"
	"repro/internal/webserver"
	"repro/internal/workload"
)

// binaries are the commands the end-to-end run and the golden check
// drive, built from the checkout the harness sits in.
var binaries = []string{"tracebench", "webbench", "qcrdsim", "distbench"}

// harness holds what every unit of one invocation shares.
type harness struct {
	root string // the checkout: the directory holding BENCHMARK.json and go.mod
	out  string // bench/out: binaries, traces, results; ignored by git
	work string // per-invocation scratch under out, removed on exit
	seed uint64
}

func (h *harness) bin(name string) string { return filepath.Join(h.out, "bin", name) }

// build compiles the binaries into out/bin. The first call in a
// checkout compiles; later calls find everything up to date, which is
// the state a user re-running a benchmark is in, so set-up times it on
// every unit and the median discards the cold one.
func (h *harness) build(ctx context.Context) error {
	args := []string{"build", "-o", filepath.Join(h.out, "bin") + string(filepath.Separator)}
	for _, b := range binaries {
		args = append(args, "./cmd/"+b)
	}
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = h.root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %w\n%s", err, msg)
	}
	return nil
}

// child is one finished child process.
type child struct {
	wall   time.Duration // exec to exit
	cpu    time.Duration // user + sys
	sys    time.Duration
	rssMB  float64
	stdout []byte
}

// vmHWM reads a process's peak resident set from /proc, in MiB; 0 when
// it cannot (no procfs, or the process has released its memory).
func vmHWM(pid string) float64 {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	_, rest, ok := strings.Cut(string(data), "VmHWM:")
	if !ok {
		return 0
	}
	var kb float64
	fmt.Sscan(rest, &kb)
	return kb / 1024
}

// rssWatch finds a child's peak RSS. ru_maxrss alone will not do: a
// child starts life sharing the harness's address space, so the kernel
// seeds its ru_maxrss with the harness's own peak, and a 9 MB tracebench
// run reports whatever the harness weighed when it forked. A reading
// above that seed is the child's own and exact; below it, the best
// figure is the child's VmHWM as last polled while it ran.
type rssWatch struct {
	seed   float64 // the harness's peak when the child started
	polled float64
	stop   chan struct{}
	done   chan struct{}
}

func watchRSS(pid int) *rssWatch {
	w := &rssWatch{seed: vmHWM("self"), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				if v := vmHWM(fmt.Sprint(pid)); v > w.polled {
					w.polled = v
				}
			}
		}
	}()
	return w
}

// peakMB ends the watch once the child has been waited for.
func (w *rssWatch) peakMB(ps *os.ProcessState) float64 {
	close(w.stop)
	<-w.done
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		if mb := float64(ru.Maxrss) / 1024; mb > w.seed || w.polled == 0 { // Linux reports KiB
			return mb
		}
	}
	return w.polled
}

// runChild runs a command to completion; ctx's end kills it.
func runChild(ctx context.Context, bin string, args ...string) (child, error) {
	var out, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return child{}, err
	}
	rss := watchRSS(cmd.Process.Pid)
	err := cmd.Wait()
	ps := cmd.ProcessState
	c := child{wall: time.Since(start), stdout: out.Bytes(), rssMB: rss.peakMB(ps),
		cpu: ps.UserTime() + ps.SystemTime(), sys: ps.SystemTime()}
	if err != nil {
		return c, fmt.Errorf("%s %s: %w\n%s", filepath.Base(bin), strings.Join(args, " "), err, stderr.Bytes())
	}
	return c, nil
}

// unit is one set-up plus one measured child: a tracebench run, or a
// server's life from start to interrupt.
type unit struct {
	attempted, failed int64
	wall              time.Duration // the measured phase
	// m holds every endToEnd metric of this unit.
	m map[string]float64
	// extra is printed for the reader but is not a contract metric:
	// sys_us_per_op on the replays (the kernel's share of cpu_us_per_op);
	// get_p99_us, post_p50_us and client_cpu_us_per_req on the web
	// workload. The bounded tail is the p95: on untouched code the p99
	// moved 36% between two sets in which the p50 and the p95 moved 6%,
	// so no bound the contract allows could hold it.
	extra map[string]float64
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

var replayedRE = regexp.MustCompile(`(?m)^replayed (\d+) records in (\S+) \(simulated elapsed time\)$`)

// replayUnit generates the workload's trace and replays it through the
// real tracebench. Process start and sample-file preparation are inside
// the timing: a user pays them on every run.
func (h *harness) replayUnit(ctx context.Context, w workloadDef, seed uint64) (unit, error) {
	rc := w.replay
	var u unit
	tracePath := filepath.Join(h.work, w.name+".trace")
	start := time.Now()
	if err := h.build(ctx); err != nil {
		return u, err
	}
	if err := gen.WriteFile(tracePath, rc.spec, seed); err != nil {
		return u, err
	}
	setup := time.Since(start)

	c, err := runChild(ctx, h.bin("tracebench"), rc.args(tracePath)...)
	if err != nil {
		return u, err
	}
	u.attempted = int64(rc.spec.Records)
	m := replayedRE.FindSubmatch(c.stdout)
	if m == nil {
		return u, fmt.Errorf("%s: no \"replayed N records\" line in tracebench output", w.name)
	}
	sim, err := time.ParseDuration(string(m[2]))
	if err != nil {
		return u, fmt.Errorf("%s: simulated elapsed %q: %w", w.name, m[2], err)
	}
	var replayed int64
	fmt.Sscan(string(m[1]), &replayed) // the regexp admits only digits
	if replayed != u.attempted {
		// The trace was not replayed as generated; nothing measured on
		// it is comparable.
		u.failed = u.attempted
		return u, fmt.Errorf("%s: tracebench replayed %d of %d generated records", w.name, replayed, u.attempted)
	}
	n := float64(replayed)
	u.wall = c.wall
	u.m = map[string]float64{
		"ops_per_s":     n / c.wall.Seconds(),
		"cpu_us_per_op": micros(c.cpu) / n,
		"peak_rss_mb":   c.rssMB,
		"sim_us_per_op": micros(sim) / n,
		"lat_p50_us":    micros(c.wall),
		"lat_tail_us":   micros(c.wall),
		"setup_s":       setup.Seconds(),
	}
	u.extra = map[string]float64{"sys_us_per_op": micros(c.sys) / n}
	return u, nil
}

// server is a running `webbench -mode serve` child.
type server struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	drain  chan struct{} // closed once stdout hit EOF
	rss    *rssWatch
}

var servingRE = regexp.MustCompile(`^serving benchmark corpus on (\S+) `)

// startServer launches the server on an ephemeral port and takes the
// bound address from its "serving benchmark corpus on <addr>" line.
func (h *harness) startServer(ctx context.Context) (*server, error) {
	s := &server{drain: make(chan struct{})}
	s.cmd = exec.CommandContext(ctx, h.bin("webbench"), "-mode", "serve",
		"-addr", "127.0.0.1:0", "-lanes", "-shards", fmt.Sprint(cacheShards))
	s.cmd.Stderr = &s.stderr
	s.cmd.Cancel = func() error { return s.cmd.Process.Kill() }
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	s.rss = watchRSS(s.cmd.Process.Pid)
	br := bufio.NewReader(stdout)
	for s.addr == "" {
		line, err := br.ReadString('\n')
		if m := servingRE.FindStringSubmatch(line); m != nil {
			s.addr = m[1]
		} else if err != nil {
			s.cmd.Process.Kill()
			s.cmd.Wait()
			s.rss.peakMB(s.cmd.ProcessState)
			return nil, fmt.Errorf("webbench exited before announcing its address: %v\n%s", err, s.stderr.Bytes())
		}
	}
	// The server prints its record log on the way out; keep the pipe
	// drained so that cannot block it.
	go func() {
		io.Copy(io.Discard, br)
		close(s.drain)
	}()
	return s, nil
}

// stop interrupts the server (its ctrl-c path: close, print, exit) and
// returns its resource usage.
func (s *server) stop() (cpu time.Duration, rssMB float64, err error) {
	if err := s.cmd.Process.Signal(os.Interrupt); err != nil {
		s.cmd.Process.Kill()
	}
	<-s.drain
	err = s.cmd.Wait()
	ps := s.cmd.ProcessState
	cpu, rssMB = ps.UserTime()+ps.SystemTime(), s.rss.peakMB(ps)
	if err != nil {
		err = fmt.Errorf("webbench serve: %w\n%s", err, s.stderr.Bytes())
	}
	return cpu, rssMB, err
}

// webRequest is one planned request: a GET of corpus file `file`, or a
// POST when file < 0.
type webRequest struct{ file int }

// webPlan draws a connection's request sequence from the seed: 15/16
// GETs uniform over the corpus, 1/16 POSTs.
func webPlan(seed uint64, conn, n, files int) []webRequest {
	r := gen.NewRand(seed*1000003 + uint64(conn))
	plan := make([]webRequest, n)
	for i := range plan {
		v := r.Next() >> 20
		if v%16 == 0 {
			plan[i].file = -1
		} else {
			plan[i].file = int(v / 16 % uint64(files))
		}
	}
	return plan
}

// webClientResult is what one connection measured.
type webClientResult struct {
	get, post metrics.Sample // wall latency, µs
	ok        int64
	failed    int64
	sim       time.Duration // Σ X-IO-Time-Ns over OK responses
	err       error
}

// webBodies returns the expected body of every corpus file, as
// workload.Install writes them.
func webBodies() (names []string, bodies [][]byte) {
	for i, spec := range workload.WebCorpus() {
		names = append(names, spec.Name)
		bodies = append(bodies, workload.Payload(uint64(i+1), spec.Size))
	}
	return names, bodies
}

// drive sends plan over one persistent connection, waiting for each
// reply before the next request, and checks every body. The last POST
// is read back through a GET, so a stored body is verified end to end
// at least once.
func drive(addr string, plan []webRequest, postBody []byte) (res webClientResult) {
	cl, err := webserver.Dial(addr)
	if err != nil {
		res.err = err
		return res
	}
	defer cl.Close()
	names, bodies := webBodies()
	stored := ""
	for _, rq := range plan {
		t0 := time.Now()
		var resp *webserver.Response
		if rq.file < 0 {
			resp, err = cl.Post("upload", postBody)
		} else {
			resp, err = cl.Get(names[rq.file])
		}
		lat := float64(time.Since(t0)) / float64(time.Microsecond)
		if err != nil {
			res.err = err
			return res
		}
		good := resp.Status == 200
		if rq.file >= 0 {
			good = good && bytes.Equal(resp.Body, bodies[rq.file])
		} else if name, ok := strings.CutPrefix(string(resp.Body), "stored "); good && ok {
			stored = name
		} else {
			good = false
		}
		if !good {
			res.failed++
			continue
		}
		res.ok++
		res.sim += resp.ServerIOTime
		if rq.file < 0 {
			res.post.Add(lat)
		} else {
			res.get.Add(lat)
		}
	}
	if stored != "" {
		resp, err := cl.Get(stored)
		if err != nil || resp.Status != 200 || !bytes.Equal(resp.Body, postBody) {
			// The POST that answered "stored" did not store this body.
			res.ok--
			res.failed++
		}
	}
	return res
}

// driveAll runs one phase on every connection at once.
func driveAll(addr string, wc *webCfg, seed uint64, n int, timed bool) []webClientResult {
	res := make([]webClientResult, wc.conns)
	postBody := workload.Payload(seed, wc.postSize)
	files := len(workload.WebCorpus())
	var wg sync.WaitGroup
	for c := range res {
		// Warm-up and timed phases draw from different streams.
		stream := c
		if timed {
			stream += wc.conns
		}
		plan := webPlan(seed, stream, n, files)
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[c] = drive(addr, plan, postBody)
		}()
	}
	wg.Wait()
	return res
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// webUnit is one server life: start and warm-up are set-up, the timed
// closed loop is the measurement, and the server's rusage is read after
// its interrupt.
func (h *harness) webUnit(ctx context.Context, w workloadDef, seed uint64) (unit, error) {
	wc := w.web
	u := unit{attempted: int64(wc.conns * wc.timed)}
	start := time.Now()
	if err := h.build(ctx); err != nil {
		return u, err
	}
	srv, err := h.startServer(ctx)
	if err != nil {
		return u, err
	}
	var served, ok int64
	var firstErr error
	for _, r := range driveAll(srv.addr, wc, seed, wc.warm, false) {
		served += r.ok + r.failed
		firstErr = errors.Join(firstErr, r.err)
	}
	setup := time.Since(start)

	var get, post metrics.Sample
	var sim, wall, clientCPU time.Duration
	if firstErr == nil {
		cpu0 := selfCPU()
		t0 := time.Now()
		results := driveAll(srv.addr, wc, seed, wc.timed, true)
		wall = time.Since(t0)
		clientCPU = selfCPU() - cpu0
		for _, r := range results {
			firstErr = errors.Join(firstErr, r.err)
			ok += r.ok
			served += r.ok + r.failed
			sim += r.sim
			for _, v := range r.get.Values() {
				get.Add(v)
			}
			for _, v := range r.post.Values() {
				post.Add(v)
			}
		}
	}
	cpu, rss, stopErr := srv.stop()
	u.failed = u.attempted - ok // wrong, refused and never-answered requests alike
	if err := errors.Join(firstErr, stopErr); err != nil {
		return u, err
	}
	if ok == 0 {
		return u, fmt.Errorf("%s: no request succeeded", w.name)
	}
	u.wall = wall
	u.m = map[string]float64{
		"ops_per_s":     float64(ok) / wall.Seconds(),
		"cpu_us_per_op": micros(cpu) / float64(served),
		"peak_rss_mb":   rss,
		"sim_us_per_op": micros(sim) / float64(ok),
		"lat_p50_us":    get.Quantile(0.5),
		"lat_tail_us":   get.Quantile(0.95),
		"setup_s":       setup.Seconds(),
	}
	u.extra = map[string]float64{
		"get_p99_us":            get.Quantile(0.99),
		"post_p50_us":           post.Quantile(0.5),
		"client_cpu_us_per_req": micros(clientCPU) / float64(u.attempted),
	}
	return u, nil
}
