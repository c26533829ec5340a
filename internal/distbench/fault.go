// Fault-aware distributed serving: consistent-hash routing, RPC
// deadlines, failover with bounded retry + simulated-time backoff, and
// the availability curve. This is the node-level counterpart of PR 9's
// device faults — the fabric loses whole servers (netsim.FaultPlan) and
// the client tier routes around them, reporting how deep the throughput
// dipped and how long the disruption took to drain.
package distbench

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/fsim"
	"repro/internal/metrics"
	"repro/internal/netsim"
)

// ringVnodes is the virtual-point count per server on the consistent-
// hash ring: enough to spread keys evenly at small server counts
// without making ring construction measurable.
const ringVnodes = 64

// defaultCurveBuckets is the availability curve's resolution.
const defaultCurveBuckets = 20

// ring is a consistent-hash ring over server indices. Requests route by
// file name, so a file's requests land on the same replica (cache
// affinity) and a dead server's keys redistribute across the survivors
// instead of sliding wholesale onto one neighbour.
type ring []ringPoint // ascending by hash, then server

type ringPoint struct {
	hash   uint64
	server int
}

func newRing(nServers int) ring {
	points := make([]ringPoint, 0, nServers*ringVnodes)
	for s := 0; s < nServers; s++ {
		for v := 0; v < ringVnodes; v++ {
			points = append(points, ringPoint{hashKey(fmt.Sprintf("server%d#%d", s, v)), s})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		return points[i].server < points[j].server
	})
	return points
}

func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// prefs returns the key's failover order: every distinct server, walked
// clockwise from the key's ring position. The first entry is the
// primary; each retry moves one step down the list.
func (r ring) prefs(key string, buf []int) []int {
	buf = buf[:0]
	h := hashKey(key)
	start := sort.Search(len(r), func(i int) bool { return r[i].hash >= h })
	for i := 0; i < len(r) && len(buf) < cap(buf); i++ {
		if s := r[(start+i)%len(r)].server; !slices.Contains(buf, s) {
			buf = append(buf, s)
		}
	}
	return buf
}

// nodeLayout resolves the symbolic fault targets against the run's node
// numbering: clients 0..Nodes-1, servers Nodes..Nodes+nServers-1.
func nodeLayout(nodes, nServers int) func(target string) (int, error) {
	return func(target string) (int, error) {
		for _, p := range []struct {
			prefix string
			base   int
			limit  int
		}{
			{"client", 0, nodes},
			{"server", nodes, nServers},
			{"node", 0, nodes + nServers},
			{"link", 0, nodes + nServers},
		} {
			idxStr, ok := strings.CutPrefix(target, p.prefix)
			if !ok {
				continue
			}
			idx, err := strconv.Atoi(idxStr)
			if err != nil {
				return 0, fmt.Errorf("bad %s index %q", p.prefix, idxStr)
			}
			if idx < 0 || idx >= p.limit {
				return 0, fmt.Errorf("%s%d outside 0..%d", p.prefix, idx, p.limit-1)
			}
			return p.base + idx, nil
		}
		return 0, fmt.Errorf("unknown target (want client<i>, server<i>, node<i>, link<i>, or a node index)")
	}
}

// runFaultAware is Run's event loop: one goroutine, the earliest
// next-issue client steps, so the run is deterministic by construction
// — every timing is a pure function of the configuration. On a fabric
// without faults no attempt is ever lost, SendLossy is bit-identical to
// Send, and the deadline/failover machinery below is never entered.
func runFaultAware(cfg Config) (Result, error) {
	servers, net, err := buildCluster(cfg)
	if err != nil {
		return Result{}, err
	}
	nServers := len(servers)
	t0 := time.Unix(0, 0)

	// Resolve and apply the fault plan against this run's layout. The
	// plan is cloned first: Resolve binds node indices, and the same
	// plan value sweeps across runs with different node counts.
	var firstKill time.Time
	if cfg.NetFaults != nil {
		plan := &netsim.FaultPlan{Faults: append([]netsim.Fault(nil), cfg.NetFaults.Faults...)}
		if err := plan.Resolve(nodeLayout(cfg.Nodes, nServers)); err != nil {
			return Result{}, err
		}
		if err := net.ApplyFaultPlan(t0, plan); err != nil {
			return Result{}, err
		}
		for _, f := range plan.Faults {
			if f.Kind != netsim.FaultKill {
				continue
			}
			if at := t0.Add(f.At); firstKill.IsZero() || at.Before(firstKill) {
				firstKill = at
			}
		}
	}

	res := Result{Nodes: cfg.Nodes}

	// Server-side member rebuilds begin before any request is served:
	// every copy starts at the virtual epoch on its own lane, and the
	// foreground requests then contend with the rebuild streams for the
	// survivors' busy horizons — concurrency in simulated time, driven
	// in a fixed order on the wall clock.
	var rebuilds []*fsim.RebuildSet
	if len(cfg.RebuildMembers) > 0 {
		for _, srv := range servers {
			rs, err := srv.store.BeginRebuilds(cfg.RebuildMembers)
			if err != nil {
				return Result{}, err
			}
			rs.Run()
			rebuilds = append(rebuilds, rs)
		}
	}

	// Routing: with a deadline there is failure detection to act on, so
	// requests route by file name over the consistent-hash ring and fail
	// over along it. Without one a loss could never be noticed, and each
	// client keeps its static replica.
	var rg ring
	if cfg.Deadline > 0 {
		rg = newRing(nServers)
	}
	nextIssue := make([]time.Time, cfg.Nodes)
	remaining := make([]int, cfg.Nodes)
	issued := make([]int, cfg.Nodes)
	suspected := make([]map[int]bool, cfg.Nodes)
	for i := range nextIssue {
		nextIssue[i] = t0
		remaining[i] = cfg.RequestsPerNode
		suspected[i] = make(map[int]bool)
	}

	var latencies, serverIO metrics.Sample
	var completions []time.Time
	var lastRecovered time.Time
	prefBuf := make([]int, 0, nServers)
	tried := make(map[int]bool, nServers)
	end := t0

	for {
		client := -1
		for i := range nextIssue {
			if remaining[i] == 0 {
				continue
			}
			if client == -1 || nextIssue[i].Before(nextIssue[client]) {
				client = i
			}
		}
		if client == -1 {
			break
		}
		issue0 := nextIssue[client]
		spec := cfg.Corpus[(client+issued[client])%len(cfg.Corpus)]
		if rg != nil {
			prefBuf = rg.prefs(spec.Name, prefBuf[:cap(prefBuf)])
		} else {
			prefBuf = append(prefBuf[:0], client%nServers)
		}
		clear(tried)

		t := issue0
		attempt := 0
		timedOut := false
		var completion time.Time
		for {
			srv := servers[pickServer(prefBuf, suspected[client], tried, attempt)]
			tried[srv.node-cfg.Nodes] = true

			respArrive, ok, err := attemptRequest(cfg, net, srv, client, spec.Name, spec.Size, t, &serverIO)
			if err != nil {
				return Result{}, err
			}
			if ok {
				latencies.AddDuration(respArrive.Sub(issue0))
				completions = append(completions, respArrive)
				completion = respArrive
				res.Requests++
				if timedOut {
					res.Recovered++
					if respArrive.After(lastRecovered) {
						lastRecovered = respArrive
					}
				}
				break
			}
			// The attempt's response never arrived: the deadline fires,
			// the replica joins the client's suspect set, and the client
			// backs off before the next ring successor.
			res.TimedOut++
			timedOut = true
			suspected[client][srv.node-cfg.Nodes] = true
			expiry := t.Add(cfg.Deadline)
			if attempt >= cfg.Retry.Max {
				res.Lost++
				completion = expiry
				break
			}
			res.Retried++
			t = expiry.Add(cfg.Retry.Base << attempt)
			attempt++
		}

		if completion.After(end) {
			end = completion
		}
		nextIssue[client] = completion
		remaining[client]--
		issued[client]++
	}

	for i, rs := range rebuilds {
		if err := rs.Finish(); err != nil {
			return Result{}, err
		}
		res.RebuildRows += rs.Rows()
		if ms := float64(rs.Elapsed()) / float64(time.Millisecond); ms > res.RebuildMS {
			res.RebuildMS = ms
		}
		if i == 0 {
			res.RebuildMembers = rs.Members()
		}
	}

	makespan := end.Sub(t0)
	res.Makespan = makespan
	res.MeanLatencyMS = latencies.Mean()
	res.P99LatencyMS = latencies.Quantile(0.99)
	res.ServerIOMS = serverIO.Mean()
	res.NetBusy = net.Stats().BusyTime
	res.Dropped = net.Stats().Dropped
	if makespan > 0 {
		res.Throughput = float64(res.Requests) / makespan.Seconds()
	}
	res.Curve = availabilityCurve(t0, end, completions, cfg.CurveBuckets)
	if !firstKill.IsZero() && !lastRecovered.IsZero() && lastRecovered.After(firstKill) {
		res.TimeToSteadyMS = float64(lastRecovered.Sub(firstKill)) / float64(time.Millisecond)
	}
	return res, nil
}

// attemptRequest runs one request attempt end to end and reports
// whether the response arrived. A lost request or response leaves the
// client waiting for its deadline; a server that is dead when the
// request would start service never serves it.
func attemptRequest(cfg Config, net *netsim.Network, srv *serverState, client int, name string, size int64, t time.Time, serverIO *metrics.Sample) (time.Time, bool, error) {
	reqArrive, lost, err := net.SendLossy(t, client, srv.node, cfg.RequestBytes)
	if err != nil {
		return time.Time{}, false, err
	}
	if lost {
		return time.Time{}, false, nil
	}
	w := 0
	for i := range srv.workerFree {
		if srv.workerFree[i].Before(srv.workerFree[w]) {
			w = i
		}
	}
	start := reqArrive
	if srv.workerFree[w].After(start) {
		start = srv.workerFree[w]
	}
	if net.NodeDead(start, srv.node) {
		// The process died before a worker picked the request up.
		return time.Time{}, false, nil
	}
	ioTime, err := serveFile(srv.rt, srv.store, name)
	if err != nil {
		return time.Time{}, false, err
	}
	ioDone := start.Add(ioTime)
	srv.workerFree[w] = ioDone
	serverIO.AddDuration(ioTime)
	respArrive, lost, err := net.SendLossy(ioDone, srv.node, client, size)
	if err != nil {
		return time.Time{}, false, err
	}
	if lost {
		return time.Time{}, false, nil
	}
	return respArrive, true, nil
}

// pickServer chooses the attempt's replica: the first preference
// neither tried this request nor suspected by the client, else the
// first untried one (suspicion is a hint, not a ban), else cycle the
// preference list.
func pickServer(prefs []int, suspected, tried map[int]bool, attempt int) int {
	for _, s := range prefs {
		if !tried[s] && !suspected[s] {
			return s
		}
	}
	for _, s := range prefs {
		if !tried[s] {
			return s
		}
	}
	return prefs[attempt%len(prefs)]
}

// availabilityCurve buckets completion times into a fixed-resolution
// throughput curve over [t0, end].
func availabilityCurve(t0, end time.Time, completions []time.Time, buckets int) []CurvePoint {
	if buckets == 0 {
		buckets = defaultCurveBuckets
	}
	makespan := end.Sub(t0)
	if makespan <= 0 || len(completions) == 0 {
		return nil
	}
	counts := make([]int64, buckets)
	for _, c := range completions {
		i := int(int64(c.Sub(t0)) * int64(buckets) / int64(makespan))
		if i >= buckets {
			i = buckets - 1
		}
		counts[i]++
	}
	width := makespan / time.Duration(buckets)
	curve := make([]CurvePoint, buckets)
	for i, n := range counts {
		curve[i] = CurvePoint{
			EndMS:      float64(makespan) * float64(i+1) / float64(buckets) / float64(time.Millisecond),
			Throughput: float64(n) / width.Seconds(),
		}
	}
	return curve
}

// FormatCurve renders the availability curve as fixed-width text rows —
// one line per bucket with a proportional bar — shared by the example
// and the distbench command.
func FormatCurve(r Result) string {
	if len(r.Curve) == 0 {
		return "(no availability curve: nothing completed)\n"
	}
	peak := 0.0
	for _, p := range r.Curve {
		if p.Throughput > peak {
			peak = p.Throughput
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "availability curve (%d buckets over %.2f ms):\n",
		len(r.Curve), float64(r.Makespan)/float64(time.Millisecond))
	for _, p := range r.Curve {
		bar := 0
		if peak > 0 {
			bar = int(p.Throughput / peak * 40)
		}
		fmt.Fprintf(&b, "  t<=%9.2fms %9.0f req/s |%s\n", p.EndMS, p.Throughput, strings.Repeat("#", bar))
	}
	fmt.Fprintf(&b, "  timed out %d, retried %d, recovered %d, lost %d, dropped %d",
		r.TimedOut, r.Retried, r.Recovered, r.Lost, r.Dropped)
	if r.TimeToSteadyMS > 0 {
		fmt.Fprintf(&b, ", time to steady state %.2f ms", r.TimeToSteadyMS)
	}
	b.WriteByte('\n')
	return b.String()
}
