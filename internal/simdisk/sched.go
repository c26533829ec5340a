package simdisk

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
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

// ScheduleOrder computes the service order for a batch of pending
// requests under policy, given the head position the service run starts
// from. It is shared by Disk.ServeBatch, Array.ServeBatch, and any
// caller building its own elevator queue.
func ScheduleOrder(head int64, reqs []Request, policy SchedPolicy) []int {
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	switch policy {
	case FCFS:
		// Arrival order as given.
	case SSTF:
		order = sstfOrder(head, reqs, order)
	case SCAN:
		var up, down []int
		for _, idx := range order {
			if reqs[idx].Offset >= head {
				up = append(up, idx)
			} else {
				down = append(down, idx)
			}
		}
		sort.Slice(up, func(i, j int) bool { return reqs[up[i]].Offset < reqs[up[j]].Offset })
		sort.Slice(down, func(i, j int) bool { return reqs[down[i]].Offset > reqs[down[j]].Offset })
		order = append(up, down...)
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
	if len(reqs) == 0 {
		return nil, now
	}
	order := ScheduleOrder(d.Head(), reqs, policy)
	results := make([]BatchResult, len(reqs))
	end := now
	d.mu.Lock()
	for _, idx := range order {
		done, svc := d.accessLocked(now, reqs[idx])
		results[idx] = BatchResult{Index: idx, Done: done, Service: svc}
		if done.After(end) {
			end = done
		}
	}
	d.mu.Unlock()
	return results, end
}

// sstfOrder is the greedy nearest-first simulation of head movement:
// from head, serve the unserved request whose offset is nearest (the
// lowest index among equally near ones), move the head to that
// request's end, repeat. byOff (the identity permutation on entry)
// is sorted by (offset, index), so the nearest unserved request on
// either side of the head is one binary search plus a skip over served
// positions away. The skips are union-find links with path halving,
// so the whole order costs O(n log n), not a scan of the remainder per
// pick.
func sstfOrder(head int64, reqs []Request, byOff []int) []int {
	n := len(reqs)
	slices.SortFunc(byOff, func(a, b int) int {
		if c := cmp.Compare(reqs[a].Offset, reqs[b].Offset); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	offs := make([]int64, n)
	for p, idx := range byOff {
		offs[p] = reqs[idx].Offset
	}
	firstAtOrPast := func(o int64) int {
		p, _ := slices.BinarySearch(offs, o)
		return p
	}
	// From p, next leads to the first unserved position >= p (n: none).
	// From p+1, prev leads to one past the last unserved position <= p
	// (0: none).
	next := make([]int, n+1)
	prev := make([]int, n+1)
	for p := range next {
		next[p], prev[p] = p, p
	}
	find := func(link []int, k int) int {
		for link[k] != k {
			link[k] = link[link[k]]
			k = link[k]
		}
		return k
	}
	order := make([]int, 0, n)
	for len(order) < n {
		split := firstAtOrPast(head)
		up, down := find(next, split), find(prev, split)-1
		if down >= 0 {
			// The lowest index at that offset is its first unserved position.
			down = find(next, firstAtOrPast(offs[down]))
		}
		pick := up
		switch {
		case down < 0:
		case up == n:
			pick = down
		default:
			du, dd := offs[up]-head, head-offs[down]
			if dd < du || dd == du && byOff[down] < byOff[up] {
				pick = down
			}
		}
		next[pick], prev[pick+1] = pick+1, pick
		idx := byOff[pick]
		order = append(order, idx)
		head = reqs[idx].Offset + reqs[idx].Length
	}
	return order
}
