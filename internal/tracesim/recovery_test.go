package tracesim

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/fsim"
	"repro/internal/simdisk"
)

// TestSharedQueueReplaySingleProcMatches is the regression test for the
// lane-registration race: sessions used to be created inside the worker
// spawn loop, so under heavy host load (modelled here by GOMAXPROCS=1,
// which runs each spawned worker until it blocks) an early worker could
// dispatch through the shared queue's sole-lane fast path and advance
// the queue edge before later lanes registered — flooring those lanes
// late and shifting the merged timings. With the full lane set
// registered before any worker runs, the single-proc replay must be
// bit-identical to the normally scheduled one.
func TestSharedQueueReplaySingleProcMatches(t *testing.T) {
	tr := determinismTrace(t)
	baseline := replaySharedOnce(t, tr, simdisk.SSTF)
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	for run := 0; run < 2; run++ {
		again := replaySharedOnce(t, tr, simdisk.SSTF)
		if !reflect.DeepEqual(baseline, again) {
			t.Fatalf("GOMAXPROCS=1 replay diverged on run %d:\nbaseline: %+v\nagain:    %+v",
				run+1, summary(baseline), summary(again))
		}
	}
}

// faultedConfig is the degraded-mode determinism workload: an 8-lane
// shared-queue replay over a RAID5 array with a dead member and a
// slowed one, with seeded op-level injection absorbed by retries.
// Budget <= Retry.Max guarantees every injected fault recovers (an op
// can only fail after Max+1 consecutive fires, which the per-session
// budget cannot supply), so the replay itself never errors.
func faultedConfig() fsim.Config {
	cfg := sharedQueueConfig(simdisk.SSTF)
	cfg.Disks = 4
	cfg.RAIDLevel = simdisk.RAID5
	cfg.Faults = &simdisk.FaultPlan{Faults: []simdisk.Fault{
		{Disk: 1, Kind: simdisk.FaultDevice, At: 0},
		{Disk: 2, Kind: simdisk.FaultSlowdown, At: 0, Penalty: 100 * time.Microsecond},
	}}
	cfg.Inject = fsim.InjectSpec{Seed: 7, Rate: 20, Budget: 4}
	cfg.Retry = fsim.RetryPolicy{Max: 4, Base: 50 * time.Microsecond}
	return cfg
}

// TestFaultInjectedReplayDeterministic is the fault-path determinism
// contract: the degraded 8-lane replay — reconstruct-reads on a dead
// RAID5 member, a slowed survivor, and seeded injection with
// retry/backoff on every lane — stays bit-identical across runs,
// recovery counters included. CI runs this under -race.
func TestFaultInjectedReplayDeterministic(t *testing.T) {
	tr := determinismTrace(t)
	runOnce := func() *Report {
		store := fsim.MustNewFileStore(faultedConfig())
		defer store.Close()
		rp := NewReplayer(store)
		rp.SampleFileSize = 32 << 20
		rep, err := rp.ReplayConcurrent("Parallel", tr)
		if err != nil {
			t.Fatal(err)
		}
		if ds := store.TotalDiskStats(); ds.ReconstructReads == 0 {
			t.Fatal("degraded RAID5 replay did no reconstruct-reads")
		}
		return rep
	}
	first := runOnce()
	if !first.Recovery.Any() {
		t.Fatalf("seeded injection fired nothing: %+v", first.Recovery)
	}
	if first.Recovery.Failed != 0 {
		t.Fatalf("budgeted injection should always recover, got %+v", first.Recovery)
	}
	if first.Recovery.Recovered == 0 || first.Recovery.Retried == 0 {
		t.Fatalf("expected retried recoveries, got %+v", first.Recovery)
	}
	for run := 0; run < 2; run++ {
		again := runOnce()
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("fault-injected replay diverged on run %d (recovery %+v vs %+v):\nfirst: %+v\nagain: %+v",
				run+2, first.Recovery, again.Recovery, summary(first), summary(again))
		}
	}
}

// TestRebuildingReplayDeterministic runs the third ablation leg: the
// dead member rebuilds onto a spare through the shared queue while the
// 8 foreground lanes replay, and the merged report — foreground
// timings, rebuild duration, recovery counters — is bit-identical
// across runs. The spare is promoted after the replay quiesces, so the
// store serves the healed member afterwards.
func TestRebuildingReplayDeterministic(t *testing.T) {
	tr := determinismTrace(t)
	runOnce := func() *Report {
		cfg := sharedQueueConfig(simdisk.SSTF)
		cfg.Disks = 4
		cfg.RAIDLevel = simdisk.RAID5
		cfg.Faults = &simdisk.FaultPlan{Faults: []simdisk.Fault{
			{Disk: 1, Kind: simdisk.FaultDevice, At: 0},
		}}
		store := fsim.MustNewFileStore(cfg)
		defer store.Close()
		rp := NewReplayer(store)
		rp.SampleFileSize = 32 << 20
		rp.RebuildMembers = []int{1}
		rep, err := rp.ReplayConcurrent("Parallel", tr)
		if err != nil {
			t.Fatal(err)
		}
		if got := store.TotalDiskStats().RebuildWrites; got != rep.RebuildRows {
			t.Fatalf("array RebuildWrites %d, want %d (promoted spare folds its stats)", got, rep.RebuildRows)
		}
		return rep
	}
	first := runOnce()
	if first.RebuildRows <= 0 || first.RebuildTime <= 0 {
		t.Fatalf("rebuild did not run: rows=%d time=%v", first.RebuildRows, first.RebuildTime)
	}
	for run := 0; run < 2; run++ {
		again := runOnce()
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("rebuilding replay diverged on run %d (rebuild %v/%d vs %v/%d):\nfirst: %+v\nagain: %+v",
				run+2, first.RebuildTime, first.RebuildRows, again.RebuildTime, again.RebuildRows,
				summary(first), summary(again))
		}
	}
}

// TestMultiRebuildReplayDeterministic runs the hot-spare-pool story: a
// RAID1 3-mirror loses two members at t0 and both rebuild concurrently
// onto pool spares through the shared queue while the 8 foreground
// lanes replay off the lone survivor. The merged report must be
// bit-identical across runs, each member's rebuild must complete
// (Writes == Rows per member), and the promoted spares must fold their
// writes into the array's stats.
func TestMultiRebuildReplayDeterministic(t *testing.T) {
	tr := determinismTrace(t)
	runOnce := func() *Report {
		cfg := sharedQueueConfig(simdisk.SSTF)
		cfg.Disks = 3
		cfg.RAIDLevel = simdisk.RAID1
		cfg.Spares = 2
		cfg.Faults = &simdisk.FaultPlan{Faults: []simdisk.Fault{
			{Disk: 1, Kind: simdisk.FaultDevice, At: 0},
			{Disk: 2, Kind: simdisk.FaultDevice, At: 0},
		}}
		store := fsim.MustNewFileStore(cfg)
		defer store.Close()
		rp := NewReplayer(store)
		rp.SampleFileSize = 32 << 20
		rp.RebuildMembers = []int{1, 2}
		rep, err := rp.ReplayConcurrent("Parallel", tr)
		if err != nil {
			t.Fatal(err)
		}
		if got := store.TotalDiskStats().RebuildWrites; got != rep.RebuildRows {
			t.Fatalf("array RebuildWrites %d, want %d (promoted spares fold their stats)", got, rep.RebuildRows)
		}
		if avail := store.SparePool().Available(); avail != 0 {
			t.Fatalf("spare pool has %d spares left, want 0", avail)
		}
		return rep
	}
	first := runOnce()
	if len(first.RebuildMembers) != 2 {
		t.Fatalf("per-member results %+v, want 2 entries", first.RebuildMembers)
	}
	var total int64
	for _, m := range first.RebuildMembers {
		if m.Rows <= 0 || m.Writes != m.Rows {
			t.Fatalf("member %d rebuild incomplete: writes %d, rows %d", m.Member, m.Writes, m.Rows)
		}
		total += m.Rows
	}
	if total != first.RebuildRows || first.RebuildTime <= 0 {
		t.Fatalf("rebuild totals off: rows=%d sum=%d time=%v", first.RebuildRows, total, first.RebuildTime)
	}
	for run := 0; run < 2; run++ {
		again := runOnce()
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("multi-rebuild replay diverged on run %d:\nfirst: %+v\nagain: %+v",
				run+2, summary(first), summary(again))
		}
	}
}

// TestRebuildOverSparesFailsLoudly pins the pool bound: asking for more
// concurrent rebuilds than the pool provisioned is an error before any
// rebuild begins, not an invisible extra disk.
func TestRebuildOverSparesFailsLoudly(t *testing.T) {
	cfg := sharedQueueConfig(simdisk.SSTF)
	cfg.Disks = 3
	cfg.RAIDLevel = simdisk.RAID1
	cfg.Spares = 1
	cfg.Faults = &simdisk.FaultPlan{Faults: []simdisk.Fault{
		{Disk: 1, Kind: simdisk.FaultDevice, At: 0},
		{Disk: 2, Kind: simdisk.FaultDevice, At: 0},
	}}
	store := fsim.MustNewFileStore(cfg)
	defer store.Close()
	if _, err := store.BeginRebuilds([]int{1, 2}); err == nil {
		t.Fatalf("2 rebuilds over a 1-spare pool should error")
	}
	if _, err := store.BeginRebuilds([]int{1, 1}); err == nil {
		t.Fatalf("duplicate members should error")
	}
	// The refused set left the pool untouched.
	if avail := store.SparePool().Available(); avail != 1 {
		t.Fatalf("pool has %d spares after refusal, want 1", avail)
	}
}

// TestDegradedReplayDataIntact pins that degraded-mode reads return the
// same data-request structure as the healthy array: the replay over a
// dead RAID5 member must execute every record the healthy replay does
// (reconstruction is a timing event, not a data event).
func TestDegradedReplayDataIntact(t *testing.T) {
	tr := determinismTrace(t)
	runOnce := func(plan *simdisk.FaultPlan) *Report {
		cfg := sharedQueueConfig(simdisk.SSTF)
		cfg.Disks = 4
		cfg.RAIDLevel = simdisk.RAID5
		cfg.Faults = plan
		store := fsim.MustNewFileStore(cfg)
		defer store.Close()
		rp := NewReplayer(store)
		rp.SampleFileSize = 32 << 20
		rep, err := rp.ReplayConcurrent("Parallel", tr)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	healthy := runOnce(nil)
	degraded := runOnce(&simdisk.FaultPlan{Faults: []simdisk.Fault{
		{Disk: 2, Kind: simdisk.FaultDevice, At: 0},
	}})
	if healthy.TotalRequests != degraded.TotalRequests ||
		healthy.Read.N() != degraded.Read.N() ||
		healthy.Write.N() != degraded.Write.N() {
		t.Fatalf("degraded replay lost requests: healthy %d reads %d writes, degraded %d reads %d writes",
			healthy.Read.N(), healthy.Write.N(), degraded.Read.N(), degraded.Write.N())
	}
}
