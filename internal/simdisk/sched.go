package simdisk

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

// SchedPolicy selects the order a queued batch of requests is serviced
// in. The paper's replays are synchronous (one request at a time), but
// the buffer cache's background write-back, the disk-scaling experiments
// and the distributed benchmark generate queues, where the classic
// schedulers differ; BenchmarkAblationScheduler quantifies it.
type SchedPolicy int

// Scheduling policies.
const (
	// FCFS services requests in arrival order.
	FCFS SchedPolicy = iota
	// SSTF services the request with the shortest seek from the current
	// head position first (greedy).
	SSTF
	// SCAN sweeps the head from its current position toward higher
	// offsets, then back — the elevator algorithm.
	SCAN
)

// String names the policy.
func (p SchedPolicy) String() string {
	switch p {
	case FCFS:
		return "FCFS"
	case SSTF:
		return "SSTF"
	case SCAN:
		return "SCAN"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy maps a case-insensitive policy name ("fcfs", "sstf",
// "scan") to its SchedPolicy, for flags and config files.
func ParsePolicy(s string) (SchedPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "fcfs":
		return FCFS, nil
	case "sstf":
		return SSTF, nil
	case "scan":
		return SCAN, nil
	default:
		return FCFS, fmt.Errorf("simdisk: unknown scheduling policy %q (want fcfs, sstf, or scan)", s)
	}
}

// Valid reports whether p is a known policy.
func (p SchedPolicy) Valid() bool { return p == FCFS || p == SSTF || p == SCAN }

// BatchResult reports one request's outcome within a scheduled batch.
type BatchResult struct {
	// Index is the request's position in the submitted batch.
	Index int
	// Done is the completion time.
	Done time.Time
	// Service is the request's service duration.
	Service time.Duration
}

// scheduleOrder is the order ServeBatch serves a batch in under policy,
// from the head position the service run starts at. FCFS keeps
// submission order. SSTF and SCAN run an Elevator as if every request
// had arrived at once, in submission order, and move the head to each
// served request's end.
func scheduleOrder(head int64, reqs []Request, policy SchedPolicy) []int {
	order := make([]int, len(reqs))
	if policy == FCFS {
		for i := range order {
			order[i] = i
		}
		return order
	}
	type pending struct {
		off int64
		idx int
	}
	byOff := make([]pending, len(reqs))
	for i, r := range reqs {
		byOff[i] = pending{r.Offset, i}
	}
	slices.SortFunc(byOff, func(a, b pending) int {
		if a.off < b.off || a.off == b.off && a.idx < b.idx {
			return -1
		}
		return 1
	})
	el := NewElevator(policy, func(p pending) int64 { return p.off }, func(a, b pending) bool { return a.idx < b.idx })
	el.fill(byOff)
	for k := range order {
		p := el.Pick(head)
		order[k] = p.idx
		head = p.off + reqs[p.idx].Length
	}
	return order
}

// ServeBatch services a queue of simultaneously pending requests in the
// order chosen by policy, starting no earlier than now. The whole batch
// runs under one lock acquisition — each request still pays the same
// cost arithmetic and queues on the busy horizon exactly as a sequential
// Access call would, so the results are bit-identical. It returns
// per-request results in submission order plus the batch completion time.
func (d *Disk) ServeBatch(now time.Time, reqs []Request, policy SchedPolicy) ([]BatchResult, time.Time) {
	order := scheduleOrder(d.Head(), reqs, policy)
	d.mu.Lock()
	defer d.mu.Unlock()
	return serveInOrder(now, reqs, order, d.accessLocked)
}

// serveInOrder is Disk's and Array's ServeBatch loop: it issues reqs at
// now through access in order and returns the per-request results in
// submission order plus the batch completion time.
func serveInOrder(now time.Time, reqs []Request, order []int, access func(time.Time, Request) (time.Time, time.Duration)) ([]BatchResult, time.Time) {
	if len(reqs) == 0 {
		return nil, now
	}
	results := make([]BatchResult, len(reqs))
	end := now
	for _, idx := range order {
		done, svc := access(now, reqs[idx])
		results[idx] = BatchResult{Index: idx, Done: done, Service: svc}
		if done.After(end) {
			end = done
		}
	}
	return results, end
}
