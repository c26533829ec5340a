package tracesim

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/fsim"
	"repro/internal/trace"
)

// sizedCreator is the optional store capability for provisioning large
// sparse files; *fsim.FileStore implements it.
type sizedCreator interface {
	CreateSized(name string, size int64) (time.Duration, error)
}

// laneStore is the store capability that gives each lane its own
// virtual timeline; *fsim.FileStore implements it. Stores without it
// (the OS passthrough) replay every lane on the one shared clock.
type laneStore interface {
	NewSession() *fsim.Session
	Settle() (time.Time, time.Duration)
}

// recoveryStore is the optional store capability for fault-recovery
// accounting; *fsim.FileStore implements it. A replay snapshots the
// tally before and after so the report carries only its own window.
type recoveryStore interface {
	RecoveryStats() fsim.RecoveryStats
}

// rebuildStore is the optional store capability for driving degraded
// members' reconstruction alongside a replay; *fsim.FileStore
// implements it.
type rebuildStore interface {
	BeginRebuilds(members []int) (*fsim.RebuildSet, error)
}

// replay is one replay in flight: the engine under Replay,
// ReplayConcurrent and ReplayStream, which differ only in how they
// source records. begin sets it up, each lane executes one record
// sequence into a private report (no lock sits on the hot path), and
// merge folds the lanes into the result.
type replay struct {
	rp     *Replayer
	app    string
	sample string
	// serial marks the one-lane replay on the replayer's own store and
	// clock: Paced is honoured and a data operation before open is an
	// error rather than an implicit open.
	serial bool
	// aggregate gives every lane histograms and a reservoir instead of
	// the full row list (ReplayStream with StreamAggregate).
	aggregate bool
	ls        laneStore     // nil: lanes share the replayer's store and clock
	rec       recoveryStore // nil: the store keeps no recovery tally
	recBefore fsim.RecoveryStats
	lanes     []*lane
	rb        *fsim.RebuildSet // members rebuilding alongside the lanes, if any
}

// begin provisions the sample file, discovers the store's optional
// capabilities and snapshots its recovery tally.
func (rp *Replayer) begin(app, sample string, serial bool) (*replay, error) {
	if sample == "" {
		return nil, errors.New("trace: empty sample file name")
	}
	if err := rp.prepareSample(sample); err != nil {
		return nil, fmt.Errorf("tracesim: preparing sample file: %w", err)
	}
	r := &replay{rp: rp, app: app, sample: sample, serial: serial}
	if !serial {
		r.ls, _ = rp.store.(laneStore)
	}
	if rs, ok := rp.store.(recoveryStore); ok {
		r.rec, r.recBefore = rs, rs.RecoveryStats()
	}
	return r, nil
}

// lane is one record sequence's execution state: its store (a session
// of the replayer's store where the store has lanes), open handle,
// transfer buffer and private report.
type lane struct {
	r        *replay
	pid      uint32
	st       fsim.Store
	sess     *fsim.Session
	rep      Report
	f        fsim.File
	buf      []byte
	n        int // records executed: the position errors report
	prevWall int64
	err      error
}

// newLane registers a lane for pid; rows pre-sizes its request list
// when the source knows the count (0 otherwise). On a store with a
// shared disk queue, register every lane before feeding any: the queue
// dispatches a sole registered lane inline and advances its edge, so a
// lane that joined late would floor at the advanced edge and shift its
// timings with host scheduling.
func (r *replay) newLane(pid uint32, rows int) *lane {
	l := &lane{r: r, pid: pid, st: r.rp.store, rep: Report{App: r.app}}
	if r.ls != nil {
		l.sess = r.ls.NewSession()
		l.st = l.sess
	}
	if r.aggregate {
		l.rep.sampled()
		l.rep.agg = newStreamAgg(r.rp.reservoirCap(), pid)
	} else {
		l.rep.Requests = make([]RequestTiming, 0, rows)
	}
	r.lanes = append(r.lanes, l)
	return l
}

// feed executes one trace record on the lane. After the lane's first
// error it discards, so a source that cannot stop early (the scanner
// loop behind a bounded channel) never blocks on a dead lane.
func (l *lane) feed(rec *trace.Record) {
	if l.err != nil {
		return
	}
	if err := l.exec(rec); err != nil {
		l.err = fmt.Errorf("tracesim: pid %d record %d (%s): %w", rec.PID, l.n, rec.Op, err)
	}
	l.n++
}

// exec checks one record and runs it, repeat count expanded. Materialized
// traces were validated whole, but v1 records off a scanner arrive raw,
// so every record is checked where it is executed.
func (l *lane) exec(rec *trace.Record) error {
	switch {
	case !rec.Op.Valid():
		return fmt.Errorf("invalid op %d", rec.Op)
	case rec.Count == 0:
		return errors.New("zero count")
	case rec.Offset < 0:
		return fmt.Errorf("negative offset %d", rec.Offset)
	case rec.Length < 0:
		return fmt.Errorf("negative length %d", rec.Length)
	}
	rep := &l.rep
	if l.r.serial {
		if l.r.rp.Paced && l.n > 0 && rec.WallClock > l.prevWall {
			think := time.Duration(rec.WallClock - l.prevWall)
			rep.ThinkTime += think
			rep.Elapsed += think
		}
		l.prevWall = rec.WallClock
	} else if l.f == nil && rec.Op != trace.OpOpen {
		// Implicit open: multi-process traces often record one open for
		// the group, as the shared-handle traces of the paper do.
		file, dur, err := l.st.Open(l.r.sample)
		if err != nil {
			return err
		}
		l.f = file
		rep.Open.AddDuration(dur)
		rep.Elapsed += dur
	}
	for c := uint32(0); c < rec.Count; c++ {
		d, err := l.step(rec)
		if err != nil {
			return err
		}
		rep.Elapsed += d
	}
	return nil
}

// errNotOpen is returned when a trace issues data operations before open.
var errNotOpen = errors.New("tracesim: operation before open")

// step executes one expanded trace record.
func (l *lane) step(rec *trace.Record) (time.Duration, error) {
	rep := &l.rep
	if rec.Op == trace.OpOpen {
		if l.f != nil {
			l.f.Close()
		}
		file, dur, err := l.st.Open(l.r.sample)
		if err != nil {
			return 0, err
		}
		l.f = file
		rep.Open.AddDuration(dur)
		return dur, nil
	}
	f := l.f
	if f == nil {
		return 0, errNotOpen
	}
	switch rec.Op {
	case trace.OpClose:
		dur, err := f.Close()
		l.f = nil
		if err != nil {
			return 0, err
		}
		rep.Close.AddDuration(dur)
		return dur, nil

	case trace.OpSeek:
		// §3.3: "Seek operations are performed from the beginning of the
		// file to the offset as mentioned in the trace files."
		_, d0, err := f.SeekTo(0, io.SeekStart)
		if err != nil {
			return 0, err
		}
		_, d1, err := f.SeekTo(rec.Offset, io.SeekStart)
		if err != nil {
			return 0, err
		}
		dur := d0 + d1
		rep.Seek.AddDuration(dur)
		rep.addRequest(RequestTiming{
			Op: trace.OpSeek, Size: rec.Offset, SeekMS: ms(dur),
		})
		return dur, nil

	case trace.OpRead, trace.OpWrite:
		_, seekDur, err := f.SeekTo(rec.Offset, io.SeekStart)
		if err != nil {
			return 0, err
		}
		l.buf = grow(l.buf, int(rec.Length))
		rt := RequestTiming{Op: rec.Op, Size: rec.Length, SeekMS: ms(seekDur)}
		var dur time.Duration
		if rec.Op == trace.OpRead {
			if _, dur, err = f.Read(l.buf); err != nil && err != io.EOF {
				return 0, err
			}
			rep.Read.AddDuration(dur)
			rt.ReadMS = ms(dur)
		} else {
			if _, dur, err = f.Write(l.buf); err != nil {
				return 0, err
			}
			rep.Write.AddDuration(dur)
			rt.WriteMS = ms(dur)
		}
		rep.addRequest(rt)
		return seekDur + dur, nil
	}
	return 0, fmt.Errorf("unhandled op %d", rec.Op)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// grow returns a buffer of exactly n bytes, reusing b when possible.
func grow(b []byte, n int) []byte {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]byte, n)
}

// finish ends the lane's record sequence: a handle the trace left open
// is closed unbilled, and the session is parked so a shared disk queue
// stops waiting for this lane (a no-op otherwise).
func (l *lane) finish() {
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
	if l.sess != nil {
		l.sess.Idle()
	}
}

// merge folds the finished lanes into the replay's report, in ascending
// PID order whatever order the source opened them in. srcErr is the
// record source's own failure, if any; it or else the first lane error
// fails the replay. Every lane's session is released on every path:
// Release folds the lane's final time into the store's timeline, so
// repeated replays on one store do not accumulate dead lanes.
func (r *replay) merge(srcErr error) (*Report, error) {
	defer func() {
		for _, l := range r.lanes {
			if l.sess != nil {
				l.sess.Release()
			}
		}
	}()
	sort.Slice(r.lanes, func(i, j int) bool { return r.lanes[i].pid < r.lanes[j].pid })
	err := srcErr
	for _, l := range r.lanes {
		if err == nil {
			err = l.err
		}
	}
	if err != nil {
		if r.rb != nil {
			r.rb.Finish()
		}
		return nil, err
	}

	m := &Report{App: r.app}
	capN := math.MaxInt // every row is kept
	if r.aggregate {
		m.sampled()
		capN = r.rp.reservoirCap()
	}
	var longest time.Duration
	for _, l := range r.lanes {
		lr := &l.rep
		m.Open.Merge(&lr.Open)
		m.Close.Merge(&lr.Close)
		m.Read.Merge(&lr.Read)
		m.Write.Merge(&lr.Write)
		m.Seek.Merge(&lr.Seek)
		m.TotalRequests += lr.TotalRequests
		m.WorkerTime += lr.Elapsed
		m.ThinkTime += lr.ThinkTime
		if lr.Elapsed > longest {
			longest = lr.Elapsed
		}
		if r.aggregate {
			m.ReadHist.Merge(lr.ReadHist)
			m.WriteHist.Merge(lr.WriteHist)
			m.SeekHist.Merge(lr.SeekHist)
		}
	}
	m.Requests = mergeRows(r.lanes, capN)
	if !r.aggregate {
		for i := range m.Requests {
			m.Requests[i].Index = i + 1
		}
	}
	if r.rb != nil {
		// The copies finished with the lanes; promote the spares now that
		// the foreground has quiesced — swapping a member mid-replay would
		// make dispatch order depend on wall-clock interleaving.
		m.RebuildRows = r.rb.Rows()
		m.RebuildTime = r.rb.Elapsed()
		if err := r.rb.Finish(); err != nil {
			return nil, fmt.Errorf("tracesim: finishing rebuild: %w", err)
		}
		m.RebuildMembers = r.rb.Members()
	}
	if r.ls != nil {
		// Overlap rule: the parallel machine finishes with its slowest
		// lane, then settles buffered writes (a deterministic elevator
		// sweep, or the background flushers when write-back is on).
		_, settle := r.ls.Settle()
		m.Elapsed = longest + settle
	} else {
		m.Elapsed = m.WorkerTime
	}
	if r.rec != nil {
		m.Recovery = r.rec.RecoveryStats().Sub(r.recBefore)
	}
	return m, nil
}
