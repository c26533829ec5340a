// Package netsim models the interconnect the distributed benchmark runs
// over. The paper extends Rosti et al.'s model to cover "communication
// requirements imposed by parallel applications" (§2.1) — appmodel's
// communication bursts use the same alpha-beta cost this package is built
// on — and names "benchmarks for I/O-intensive computing in a widely
// distributed environment" as future work (§5), which distbench builds on
// this package.
//
// The model is the standard alpha-beta (latency-bandwidth) point-to-point
// cost with per-NIC serialization. Everything is deterministic virtual
// time.
package netsim

import (
	"fmt"
	"sync"
	"time"
)

// Params describes one homogeneous network.
type Params struct {
	// Latency is the per-message wire latency (alpha).
	Latency time.Duration
	// Bandwidth is the per-link bandwidth in bytes/second (1/beta).
	Bandwidth float64
	// PerMessageCPU is the sender/receiver software overhead per message.
	PerMessageCPU time.Duration
}

// LANParams returns a 2003-era gigabit LAN: 100 µs latency, 100 MB/s.
func LANParams() Params {
	return Params{Latency: 100 * time.Microsecond, Bandwidth: 100 << 20, PerMessageCPU: 10 * time.Microsecond}
}

// WANParams returns a wide-area link: 40 ms RTT/2, 1 MB/s.
func WANParams() Params {
	return Params{Latency: 20 * time.Millisecond, Bandwidth: 1 << 20, PerMessageCPU: 20 * time.Microsecond}
}

// Validate reports the first problem with the parameters, or nil.
func (p Params) Validate() error {
	switch {
	case p.Latency < 0:
		return fmt.Errorf("netsim: negative latency %v", p.Latency)
	case p.Bandwidth <= 0:
		return fmt.Errorf("netsim: bandwidth %v must be positive", p.Bandwidth)
	case p.PerMessageCPU < 0:
		return fmt.Errorf("netsim: negative per-message cost %v", p.PerMessageCPU)
	}
	return nil
}

// transferTime returns the bandwidth term for n bytes.
func (p Params) transferTime(n int64) time.Duration {
	if n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / p.Bandwidth * float64(time.Second))
}

// MessageCost returns the uncontended cost of one n-byte message:
// software overhead + latency + transfer.
func (p Params) MessageCost(n int64) time.Duration {
	return p.PerMessageCPU + p.Latency + p.transferTime(n)
}

// Stats counts network activity.
type Stats struct {
	Messages int64
	Bytes    int64
	BusyTime time.Duration
	// Dropped counts messages lost to node kills or link-drop windows
	// (SendLossy under a FaultPlan).
	Dropped int64
}

// Network is a set of nodes joined by a homogeneous fabric. Each node's
// NIC serializes its sends; receives are not modelled separately (the
// alpha term covers the far end). Safe for concurrent use.
type Network struct {
	params  Params
	mu      sync.Mutex
	nicBusy []time.Time
	stats   Stats
	// epoch anchors the fault plan's virtual offsets; flt is per-node
	// fault state, nil while no plan is applied so the fault-free paths
	// pay one nil check.
	epoch time.Time
	flt   []*nodeFaults
}

// New builds a network of n nodes.
func New(n int, p Params) (*Network, error) {
	if n < 1 {
		return nil, fmt.Errorf("netsim: need at least 1 node, got %d", n)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Network{params: p, nicBusy: make([]time.Time, n)}, nil
}

// MustNew panics on error; for literal wiring.
func MustNew(n int, p Params) *Network {
	nw, err := New(n, p)
	if err != nil {
		panic(err)
	}
	return nw
}

// Nodes returns the node count.
func (n *Network) Nodes() int { return len(n.nicBusy) }

// Params returns the fabric parameters.
func (n *Network) Params() Params { return n.params }

// Stats returns a snapshot of the counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Send transmits size bytes from node src to node dst, starting no
// earlier than now, and returns the delivery time. Sends from a busy NIC
// queue behind it. Sending to self costs only the software overhead.
func (n *Network) Send(now time.Time, src, dst int, size int64) (time.Time, error) {
	if src < 0 || src >= len(n.nicBusy) || dst < 0 || dst >= len(n.nicBusy) {
		return now, fmt.Errorf("netsim: send %d->%d outside 0..%d", src, dst, len(n.nicBusy)-1)
	}
	if size < 0 {
		return now, fmt.Errorf("netsim: negative message size %d", size)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	start := now
	if n.nicBusy[src].After(start) {
		start = n.nicBusy[src]
	}
	var done time.Time
	if src == dst {
		done = start.Add(n.params.PerMessageCPU)
	} else {
		done = start.Add(n.params.MessageCost(size))
	}
	n.nicBusy[src] = done
	n.stats.Messages++
	n.stats.Bytes += size
	n.stats.BusyTime += done.Sub(start)
	return done, nil
}

// Reset clears busy horizons, statistics, and any applied fault plan.
func (n *Network) Reset() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for i := range n.nicBusy {
		n.nicBusy[i] = time.Time{}
	}
	n.stats = Stats{}
	n.epoch = time.Time{}
	n.flt = nil
}
