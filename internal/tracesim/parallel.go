package tracesim

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/trace"
)

// ReplayConcurrent replays a multi-process trace with one goroutine per
// process id, each with its own file handle — the execution structure of
// the traced parallel applications (Pgrep's four workers, §3.1). Records
// keep their per-PID order; cross-PID interleaving is whatever the
// scheduler produces, as it was on the original machine. A worker whose
// first data operation precedes its own open record inherits an
// implicit open.
//
// On a session-capable store each worker replays on its own
// virtual-time lane with a private disk view, so the workers are
// simulated-parallel, not just wall-parallel: the merged report's
// Elapsed is the longest lane plus the final settle (max-over-workers,
// the overlap rule), while WorkerTime keeps the summed view. The
// aggregate report merges all processes.
func (rp *Replayer) ReplayConcurrent(appName string, tr *trace.Trace) (*Report, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	r, err := rp.begin(appName, tr.Header.SampleFile, false)
	if err != nil {
		return nil, err
	}

	// Partition records by PID, preserving order.
	type part struct {
		recs []*trace.Record
		rows int
	}
	byPID := make(map[uint32]*part)
	pids := make([]uint32, 0, tr.Header.NumProcesses)
	for i := range tr.Records {
		rec := &tr.Records[i]
		p := byPID[rec.PID]
		if p == nil {
			p = &part{}
			byPID[rec.PID] = p
			pids = append(pids, rec.PID)
		}
		p.recs = append(p.recs, rec)
		p.rows += dataOpRows(rec)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })

	// Every lane, and every requested member rebuild, registers before
	// the first worker runs: all of them must be part of a shared disk
	// queue's merge from the start (see newLane).
	for _, pid := range pids {
		r.newLane(pid, byPID[pid].rows)
	}
	if len(rp.RebuildMembers) > 0 {
		rs, ok := rp.store.(rebuildStore)
		if !ok {
			return r.merge(fmt.Errorf("tracesim: store %T cannot rebuild a member", rp.store))
		}
		if r.rb, err = rs.BeginRebuilds(rp.RebuildMembers); err != nil {
			return r.merge(fmt.Errorf("tracesim: starting rebuild: %w", err))
		}
	}

	var wg sync.WaitGroup
	if r.rb != nil {
		// The copies stream through the store's disk path alongside the
		// foreground workers, so rebuild-vs-foreground contention lands in
		// the merged timings.
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.rb.Run()
		}()
	}
	for _, l := range r.lanes {
		wg.Add(1)
		go func(l *lane, recs []*trace.Record) {
			defer wg.Done()
			for _, rec := range recs {
				l.feed(rec)
			}
			l.finish()
		}(l, byPID[l.pid].recs)
	}
	wg.Wait()
	return r.merge(nil)
}
