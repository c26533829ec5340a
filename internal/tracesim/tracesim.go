// Package tracesim is the paper's second benchmark: a trace-driven I/O
// simulator (§3). It replays trace files — open/close/read/write/seek
// records against a large sample file — timing every operation, and
// produces the per-application reports of Tables 1-4.
package tracesim

import (
	"fmt"
	"time"

	"repro/internal/fsim"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// RequestTiming is one timed data request, a row of Tables 3-4. For seek
// records the paper's "data size" column is the seek target offset; for
// reads and writes it is the transfer length.
type RequestTiming struct {
	Index   int
	Op      trace.Op
	Size    int64
	SeekMS  float64
	ReadMS  float64
	WriteMS float64
}

// Report is a replay's measured result.
type Report struct {
	App string
	// Per-operation latency summaries in milliseconds.
	Open, Close, Read, Write, Seek metrics.Summary
	// Requests lists each data request in trace order. In streaming-
	// aggregation mode (ReplayStream with StreamAggregate) it holds a
	// bounded reservoir sample instead; SampledRequests marks that.
	Requests []RequestTiming
	// TotalRequests counts every data request routed into the report,
	// including rows a streaming-aggregation reservoir dropped. It always
	// matches len(Requests) on the non-aggregated paths.
	TotalRequests int64
	// SampledRequests reports that Requests is a reservoir sample
	// (streaming aggregation) rather than the complete row list.
	SampledRequests bool
	// ReadHist, WriteHist and SeekHist are per-operation latency
	// histograms, populated only in streaming-aggregation mode — the
	// bounded stand-in for the exact latencies the full Requests rows
	// carry otherwise.
	ReadHist, WriteHist, SeekHist *metrics.Histogram
	// Elapsed is the replay's simulated duration. Serial replay charges
	// every operation to one clock, so this is the sum of all operation
	// times (plus think time when paced). Concurrent replay on a
	// session-capable store overlaps workers: Elapsed is then the longest
	// worker lane plus any final settle flush — the parallel machine's
	// wall-style elapsed time.
	Elapsed time.Duration
	// WorkerTime is the total simulated time summed across workers (the
	// serialized-time view): Elapsed and WorkerTime coincide for serial
	// replay, and WorkerTime/Elapsed is the simulated-parallel speedup
	// for concurrent replay.
	WorkerTime time.Duration
	// ThinkTime is the total inter-record wall-clock gap charged by a
	// paced replay (zero otherwise).
	ThinkTime time.Duration
	// Recovery aggregates the store's fault-recovery counters (op-level
	// injections, retries, recoveries, hard failures) over the replay,
	// when the store exposes them; zero on fault-free runs.
	Recovery fsim.RecoveryStats
	// RebuildTime is the simulated duration of the slowest concurrent
	// member rebuild run alongside the replay (Replayer.RebuildMembers;
	// zero when none was requested); RebuildRows is how many blocks the
	// rebuilds reconstructed in total, and RebuildMembers carries the
	// per-member outcome.
	RebuildTime    time.Duration
	RebuildRows    int64
	RebuildMembers []fsim.RebuildMemberResult

	// agg, when non-nil, bounds the report's memory: addRequest feeds the
	// per-op histograms and a reservoir instead of growing Requests.
	agg *streamAgg
}

// addRequest routes one data-request row into the report: appended in
// trace order normally, folded into the histograms and reservoir in
// streaming-aggregation mode.
func (r *Report) addRequest(rt RequestTiming) {
	r.TotalRequests++
	if r.agg == nil {
		rt.Index = len(r.Requests) + 1
		r.Requests = append(r.Requests, rt)
		return
	}
	switch rt.Op {
	case trace.OpRead:
		r.ReadHist.Add(rt.ReadMS)
	case trace.OpWrite:
		r.WriteHist.Add(rt.WriteMS)
	case trace.OpSeek:
		r.SeekHist.Add(rt.SeekMS)
	}
	rt.Index = int(r.TotalRequests)
	r.agg.offer(&r.Requests, rt)
}

// Table renders the report in the generic layout (a row per operation
// kind with average latencies). The TableN functions in experiments.go
// render the paper's exact per-table layouts.
func (r *Report) Table() *metrics.Table {
	tb := metrics.NewTable(
		fmt.Sprintf("Results for the %s application", r.App),
		"Operation", "Count", "Avg time (ms)", "Min (ms)", "Max (ms)")
	add := func(name string, s *metrics.Summary) {
		if s.N() == 0 {
			return
		}
		tb.AddRow(name, s.N(), s.Mean(), s.Min(), s.Max())
	}
	add("open", &r.Open)
	add("close", &r.Close)
	add("read", &r.Read)
	add("write", &r.Write)
	add("seek", &r.Seek)
	return tb
}

// Replayer executes traces against a Store.
type Replayer struct {
	store fsim.Store
	// SampleFileSize is used to provision the sample file when the trace
	// names one that does not exist yet. Defaults to 1 GB.
	SampleFileSize int64
	// Paced honours the trace's wall-clock stamps: the gap between
	// consecutive records is charged as think time (recorded in the
	// report's ThinkTime and included in Elapsed). Unpaced replay (the
	// default, and the paper's method) issues records back to back.
	// Serial replay only: ReplayConcurrent and ReplayStream ignore it.
	Paced bool
	// StreamQueueDepth bounds each ReplayStream worker's record queue
	// (backpressure on the trace reader). Defaults to 1024 records.
	StreamQueueDepth int
	// StreamAggregate switches ReplayStream's report to bounded-memory
	// aggregation: per-op latency histograms plus a reservoir sample of
	// StreamReservoir request rows instead of the full Requests slice.
	StreamAggregate bool
	// StreamReservoir is the per-worker reservoir capacity when
	// StreamAggregate is on. Defaults to 4096 rows.
	StreamReservoir int
	// RebuildMembers, on a rebuild-capable store, runs those members'
	// reconstruction concurrently with ReplayConcurrent's lanes — the
	// hot-spare-pool story, typically paired with fsim.Config.Spares. The
	// rebuild reads contend with foreground traffic (through the shared
	// disk queue when one is configured) and the spares are promoted once
	// the replay quiesces. The report's RebuildTime, RebuildRows and
	// RebuildMembers record the copies. Empty disables.
	RebuildMembers []int
}

// NewReplayer builds a replayer over store.
func NewReplayer(store fsim.Store) *Replayer {
	return &Replayer{store: store, SampleFileSize: 1 << 30}
}

// dataOpRows returns how many per-request rows rec will produce
// (repeat counts expanded): one per expansion for the data operations
// (seek/read/write), none for open/close.
func dataOpRows(rec *trace.Record) int {
	switch rec.Op {
	case trace.OpSeek, trace.OpRead, trace.OpWrite:
		return int(rec.Count)
	}
	return 0
}

// Prepare provisions the trace's sample file if missing: sparse on stores
// that support it, zero-filled otherwise.
func (rp *Replayer) Prepare(tr *trace.Trace) error {
	return rp.prepareSample(tr.Header.SampleFile)
}

func (rp *Replayer) prepareSample(name string) error {
	if rp.store.Exists(name) {
		return nil
	}
	if sc, ok := rp.store.(sizedCreator); ok {
		_, err := sc.CreateSized(name, rp.SampleFileSize)
		return err
	}
	_, err := rp.store.Create(name, make([]byte, rp.SampleFileSize))
	return err
}

// Replay validates and executes the trace serially: one lane on the
// replayer's own store and clock, fed the whole trace in order, so
// Elapsed is the sum of every operation (plus think time when Paced).
// appName labels the report (e.g. "Data Mining").
func (rp *Replayer) Replay(appName string, tr *trace.Trace) (*Report, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	r, err := rp.begin(appName, tr.Header.SampleFile, true)
	if err != nil {
		return nil, err
	}
	rows := 0
	for i := range tr.Records {
		rows += dataOpRows(&tr.Records[i])
	}
	l := r.newLane(0, rows)
	for i := range tr.Records {
		l.feed(&tr.Records[i])
	}
	l.finish()
	return r.merge(nil)
}
