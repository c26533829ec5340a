package tracesim

import (
	"errors"
	"sort"
	"sync"

	"repro/internal/fsim"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// streamAgg is the bounded-memory row keeper for streaming aggregation:
// reservoir sampling (Algorithm R) over the request rows, driven by a
// deterministic xorshift64 stream so replays reproduce bit-identically.
type streamAgg struct {
	capN int
	seen int64
	rng  uint64
}

func newStreamAgg(capN int, pid uint32) *streamAgg {
	// Seed from the PID so every worker draws a distinct deterministic
	// stream; the odd constant keeps pid 0 away from the all-zero state.
	return &streamAgg{capN: capN, rng: uint64(pid)*0x9E3779B97F4A7C15 + 1}
}

func (a *streamAgg) next() uint64 {
	a.rng ^= a.rng << 13
	a.rng ^= a.rng >> 7
	a.rng ^= a.rng << 17
	return a.rng
}

// offer applies one Algorithm R step to the reservoir in *rows.
func (a *streamAgg) offer(rows *[]RequestTiming, rt RequestTiming) {
	a.seen++
	if len(*rows) < a.capN {
		*rows = append(*rows, rt)
		return
	}
	if j := a.next() % uint64(a.seen); j < uint64(a.capN) {
		(*rows)[j] = rt
	}
}

// ReplayStream replays a trace straight off a Scanner without ever
// materializing the record slice: the calling goroutine decodes records
// and routes them to per-PID lane queues (bounded channels —
// backpressure, not buffering), opening each lane at its PID's first
// record. Memory is bounded by the queues and the per-lane reports,
// independent of trace length, so a billion-record v2 trace replays in
// a few megabytes.
//
// On a session-capable store each lane is a pure function of its own
// record sequence — private virtual clock, private disk view — so the
// merged report is bit-identical to ReplayConcurrent on the same trace,
// whatever the goroutine interleaving. The shared disk-queue mode is
// refused: contending lanes rendezvous through the queue, which needs
// every lane registered and its future known up front (the reader could
// deadlock feeding a lane whose dispatch gates on another still-unfed
// one), and its cross-lane ordering is the one thing streaming cannot
// reproduce.
//
// With StreamAggregate set, per-lane reports keep per-op histograms
// plus a reservoir sample instead of the full row list (see Report); the
// merged Requests are then a deterministic proportional sample.
func (rp *Replayer) ReplayStream(appName string, sc *trace.Scanner) (*Report, error) {
	if fs, ok := rp.store.(*fsim.FileStore); ok && fs.SharedQueue() != nil {
		return nil, errors.New("tracesim: ReplayStream does not support the shared disk-queue mode; use ReplayConcurrent on a materialized trace")
	}
	r, err := rp.begin(appName, sc.Header().SampleFile, false)
	if err != nil {
		return nil, err
	}
	r.aggregate = rp.StreamAggregate
	depth := rp.StreamQueueDepth
	if depth <= 0 {
		depth = 1024
	}

	queues := make(map[uint32]chan trace.Record)
	var wg sync.WaitGroup
	for sc.Next() {
		rec := sc.Record()
		ch := queues[rec.PID]
		if ch == nil {
			// depth records of slack: the reader blocks (backpressure)
			// only once this lane falls that far behind it.
			ch = make(chan trace.Record, depth)
			queues[rec.PID] = ch
			l := r.newLane(rec.PID, 0)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rec := range ch {
					l.feed(&rec)
				}
				l.finish()
			}()
		}
		ch <- *rec
	}
	for _, ch := range queues {
		close(ch)
	}
	wg.Wait()
	return r.merge(sc.Err())
}

// sampled marks the report as a streaming-aggregation one and gives it
// the per-op histograms that stand in for the full row list.
func (r *Report) sampled() {
	r.SampledRequests = true
	r.ReadHist = metrics.NewLatencyHistogram()
	r.WriteHist = metrics.NewLatencyHistogram()
	r.SeekHist = metrics.NewLatencyHistogram()
}

func (rp *Replayer) reservoirCap() int {
	if rp.StreamReservoir > 0 {
		return rp.StreamReservoir
	}
	return 4096
}

// mergeRows folds the lanes' request rows (in the order given) into
// one list of at most capN rows. Rows that fit are concatenated. A
// larger set is thinned to a capN-row sample: slots are allocated
// proportionally to each lane's row count (largest remainder, ties to
// the earlier lane) and filled by a uniform stride through each lane's
// rows — deterministic, no RNG at merge time.
func mergeRows(lanes []*lane, capN int) []RequestTiming {
	if len(lanes) == 1 && len(lanes[0].rep.Requests) <= capN {
		// One lane's rows are the merged list already; adopt them
		// rather than hold a second copy.
		return lanes[0].rep.Requests
	}
	total := 0
	for _, l := range lanes {
		total += len(l.rep.Requests)
	}
	if total <= capN {
		out := make([]RequestTiming, 0, total)
		for _, l := range lanes {
			out = append(out, l.rep.Requests...)
		}
		return out
	}
	quota := make([]int, len(lanes))
	assigned := 0
	type frac struct {
		i   int
		rem int
	}
	fracs := make([]frac, len(lanes))
	for i, l := range lanes {
		n := len(l.rep.Requests) * capN
		quota[i] = n / total
		fracs[i] = frac{i: i, rem: n % total}
		assigned += quota[i]
	}
	sort.SliceStable(fracs, func(a, b int) bool { return fracs[a].rem > fracs[b].rem })
	for k := 0; assigned < capN; k++ {
		quota[fracs[k%len(fracs)].i]++
		assigned++
	}
	out := make([]RequestTiming, 0, capN)
	for i, l := range lanes {
		rs := l.rep.Requests
		n := quota[i]
		if n > len(rs) {
			n = len(rs)
		}
		for k := 0; k < n; k++ {
			out = append(out, rs[k*len(rs)/n])
		}
	}
	return out
}
