// Package distbench implements the paper's second future-work direction
// (§5): "develop benchmarks for I/O-intensive computing in a widely
// distributed environment." It places the web-server workload in a
// multi-node setting: client nodes issue file requests across a simulated
// interconnect (netsim) to a server node whose file I/O runs on the
// simulated store (fsim) through the managed runtime (vm).
//
// The benchmark sweeps the client-node count and reports throughput and
// latency, exposing the saturation point where the server's NIC and disk
// path stop scaling — the question a distributed deployment of the
// paper's web server would ask first.
package distbench

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/fsim"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Config wires one distributed run.
type Config struct {
	// Nodes is the number of client nodes.
	Nodes int
	// RequestsPerNode is how many sequential requests each client issues.
	RequestsPerNode int
	// Servers is the number of replicated server nodes; clients are
	// assigned round-robin. Zero means one.
	Servers int
	// ServerWorkers is each server's worker-thread count.
	ServerWorkers int
	// RequestBytes is the size of a request message on the wire.
	RequestBytes int64
	// Net parameterizes the interconnect.
	Net netsim.Params
	// VM parameterizes the server's managed runtime.
	VM vm.Config
	// Store parameterizes the server's file store.
	Store fsim.Config
	// Corpus is the served file set.
	Corpus []workload.FileSpec

	// Deadline is each client's RPC deadline: a request whose response
	// was lost is declared failed Deadline after the attempt was issued,
	// and the client fails over to the next replica on the consistent-
	// hash ring. Zero means attempts never expire: with no failure
	// detection to act on, the ring is not used and client i keeps the
	// static replica i % Servers, byte-identical to the pre-fault
	// benchmark.
	Deadline time.Duration
	// Retry bounds failover: up to Max retries per request, with
	// simulated-time exponential backoff Base<<attempt between the
	// deadline expiry and the next attempt — the same semantics as
	// fsim's session recovery. Nothing expires without a Deadline, so it
	// is never consulted then.
	Retry fsim.RetryPolicy
	// NetFaults schedules node kills and link-drop windows on the
	// fabric. Symbolic targets resolve against the run's node layout:
	// "client<i>" is node i, "server<i>" is node Nodes+i, and
	// "node<i>"/"link<i>" are raw node indices. Requires Deadline > 0 —
	// without a deadline nobody would notice the loss.
	NetFaults *netsim.FaultPlan
	// RebuildMembers lists store members every server rebuilds
	// concurrently with serving (hot-spare pools: pair with
	// Store.Spares and a Store.Faults plan that kills the members).
	RebuildMembers []int
	// CurveBuckets is the availability curve's resolution (default 20
	// buckets over the makespan).
	CurveBuckets int
}

// DefaultConfig returns a LAN cluster serving the web corpus: 4 workers,
// 64 requests per node.
func DefaultConfig() Config {
	return Config{
		Nodes:           4,
		RequestsPerNode: 64,
		ServerWorkers:   4,
		RequestBytes:    256,
		Net:             netsim.LANParams(),
		VM:              vm.DefaultConfig(),
		Store:           fsim.DefaultConfig(),
		Corpus:          workload.WebCorpus(),
	}
}

// Validate reports the first problem with the configuration, or nil.
func (c Config) Validate() error {
	switch {
	case c.Nodes < 1:
		return fmt.Errorf("distbench: need at least 1 node, got %d", c.Nodes)
	case c.Servers < 0:
		return fmt.Errorf("distbench: negative server count %d", c.Servers)
	case c.RequestsPerNode < 1:
		return fmt.Errorf("distbench: need at least 1 request per node, got %d", c.RequestsPerNode)
	case c.ServerWorkers < 1:
		return fmt.Errorf("distbench: need at least 1 server worker, got %d", c.ServerWorkers)
	case c.RequestBytes < 0:
		return fmt.Errorf("distbench: negative request size %d", c.RequestBytes)
	case len(c.Corpus) == 0:
		return fmt.Errorf("distbench: empty corpus")
	}
	if c.Deadline < 0 {
		return fmt.Errorf("distbench: negative deadline %v", c.Deadline)
	}
	if c.NetFaults != nil && c.Deadline <= 0 {
		return fmt.Errorf("distbench: a network fault plan needs a positive Deadline to detect losses")
	}
	if c.CurveBuckets < 0 {
		return fmt.Errorf("distbench: negative curve bucket count %d", c.CurveBuckets)
	}
	if err := c.Retry.Validate(); err != nil {
		return err
	}
	if err := c.Net.Validate(); err != nil {
		return err
	}
	if err := c.VM.Validate(); err != nil {
		return err
	}
	return c.Store.Validate()
}

// Result is one run's measurements. All times are simulated.
type Result struct {
	Nodes    int
	Requests int64
	Makespan time.Duration
	// Throughput is completed requests per simulated second.
	Throughput float64
	// MeanLatencyMS / P99LatencyMS summarize end-to-end request latency.
	MeanLatencyMS float64
	P99LatencyMS  float64
	// ServerIOMS is the mean server-side file I/O time per request.
	ServerIOMS float64
	// NetBusy is the fabric's total NIC busy time.
	NetBusy time.Duration

	// The availability story; the counters stay zero on a fabric without
	// faults.
	//
	// TimedOut counts deadline expiries (one per lost attempt), Retried
	// counts the failover attempts issued after them, Recovered counts
	// requests that completed after at least one timeout, and Lost
	// counts requests abandoned after exhausting the retry budget.
	// Dropped is the fabric's lost-message count.
	TimedOut  int64
	Retried   int64
	Recovered int64
	Lost      int64
	Dropped   int64
	// Curve is the availability curve: completed-request throughput per
	// fixed-width time bucket over the makespan.
	Curve []CurvePoint
	// TimeToSteadyMS is how long after the first node kill the system
	// took to drain the disruption: the last recovered request's
	// completion, measured from the kill (zero without kills).
	TimeToSteadyMS float64
	// RebuildRows/RebuildMS/RebuildMembers record the servers' member
	// rebuilds when Config.RebuildMembers is set: total blocks copied
	// across servers, the slowest copy's duration, and one server's
	// per-member outcome (servers are identical replicas).
	RebuildRows    int64
	RebuildMS      float64
	RebuildMembers []fsim.RebuildMemberResult
}

// CurvePoint is one availability-curve bucket.
type CurvePoint struct {
	// EndMS is the bucket's end, in simulated milliseconds from the run
	// start.
	EndMS float64
	// Throughput is the bucket's completed requests per simulated
	// second.
	Throughput float64
}

// serverState is one replicated server: its store, managed runtime,
// worker pool, and fabric node index. Node layout: clients 0..Nodes-1,
// servers Nodes..Nodes+nServers-1.
type serverState struct {
	store      *fsim.FileStore
	rt         *vm.Runtime
	workerFree []time.Time
	node       int
}

// buildCluster provisions the replicated servers and the fabric.
func buildCluster(cfg Config) ([]*serverState, *netsim.Network, error) {
	nServers := cfg.Servers
	if nServers == 0 {
		nServers = 1
	}
	servers := make([]*serverState, nServers)
	for i := range servers {
		store, err := fsim.NewFileStore(cfg.Store)
		if err != nil {
			return nil, nil, err
		}
		if err := workload.Install(store, cfg.Corpus); err != nil {
			return nil, nil, err
		}
		rt, err := vm.New(cfg.VM, nil)
		if err != nil {
			return nil, nil, err
		}
		rt.RegisterBCL()
		servers[i] = &serverState{
			store:      store,
			rt:         rt,
			workerFree: make([]time.Time, cfg.ServerWorkers),
			node:       cfg.Nodes + i,
		}
	}
	net, err := netsim.New(cfg.Nodes+nServers, cfg.Net)
	if err != nil {
		return nil, nil, err
	}
	return servers, net, nil
}

// Run executes one distributed load and returns its result. Every run
// goes through the one event loop in fault.go; the Deadline only
// selects how clients route (see Config.Deadline).
func Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	return runFaultAware(cfg)
}

// serveFile performs the server's doGet path: open the managed stream,
// read everything, close — returning the charged duration.
func serveFile(rt *vm.Runtime, store fsim.Store, name string) (time.Duration, error) {
	stream, openDur, err := vm.OpenFileStream(rt, store, name)
	if err != nil {
		return 0, err
	}
	_, readDur, err := stream.ReadAll()
	closeDur, _ := stream.Close()
	if err != nil {
		return 0, err
	}
	return openDur + readDur + closeDur, nil
}

// NodeSweep is the default client-count sweep.
var NodeSweep = []int{1, 2, 4, 8, 16, 32}

// Sweep runs the benchmark across node counts (sorted, deduplicated) and
// returns per-count results.
func Sweep(cfg Config, nodes []int) ([]Result, error) {
	counts := append([]int(nil), nodes...)
	sort.Ints(counts)
	var out []Result
	for i, n := range counts {
		if i > 0 && counts[i-1] == n {
			continue
		}
		c := cfg
		c.Nodes = n
		res, err := Run(c)
		if err != nil {
			return nil, fmt.Errorf("distbench: %d nodes: %w", n, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// Table renders sweep results as a text table.
func Table(results []Result) *metrics.Table {
	tb := metrics.NewTable(
		"Distributed load: throughput and latency vs client nodes",
		"Nodes", "Requests", "Throughput (req/s)", "Mean latency (ms)",
		"P99 latency (ms)", "Server IO (ms)")
	for _, r := range results {
		tb.AddRow(r.Nodes, r.Requests, r.Throughput, r.MeanLatencyMS, r.P99LatencyMS, r.ServerIOMS)
	}
	return tb
}

// Figure renders the throughput curve.
func Figure(results []Result) *metrics.Figure {
	labels := make([]string, len(results))
	values := make([]float64, len(results))
	for i, r := range results {
		labels[i] = fmt.Sprintf("%d", r.Nodes)
		values[i] = r.Throughput
	}
	fig := metrics.NewFigure("Distributed throughput vs client nodes",
		"client nodes", "requests/second")
	fig.Add(metrics.NewSeries("throughput", labels, values))
	return fig
}
