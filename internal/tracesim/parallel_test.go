package tracesim

import (
	"testing"

	"repro/internal/fsim"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// parallelParams keeps the concurrent-replay tests quick while still
// spanning enough of the sample file to cross cache shards.
func parallelParams() tracegen.Params {
	p := tracegen.DefaultParams()
	p.FileSize = 32 << 20
	p.Requests = 200
	return p
}

// TestReplayConcurrentShardedCache replays the four-worker Pgrep trace
// with one goroutine per traced process against a lock-striped store —
// the end-to-end concurrent path. Run under -race this is the wiring
// test for the sharded cache behind fsim; the assertions check that the
// merged report still accounts for every traced operation and that the
// cache's global bookkeeping survives the concurrency.
func TestReplayConcurrentShardedCache(t *testing.T) {
	params := parallelParams()
	tr, err := tracegen.Pgrep(params)
	if err != nil {
		t.Fatal(err)
	}

	store := fsim.MustNewFileStore(fsim.ShardedConfig())
	if store.Cache().NumShards() < 4 {
		t.Fatalf("sharded store has %d stripes, want >= 4", store.Cache().NumShards())
	}
	rp := NewReplayer(store)
	rp.SampleFileSize = params.FileSize
	rep, err := rp.ReplayConcurrent("Pgrep", tr)
	if err != nil {
		t.Fatal(err)
	}

	// A sequential replay of the same trace on the deterministic
	// single-stripe store fixes the expected operation counts.
	seqStore := fsim.MustNewFileStore(fsim.DefaultConfig())
	seqRP := NewReplayer(seqStore)
	seqRP.SampleFileSize = params.FileSize
	seq, err := seqRP.Replay("Pgrep", tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Read.N() != seq.Read.N() || rep.Write.N() != seq.Write.N() || rep.Seek.N() != seq.Seek.N() {
		t.Fatalf("concurrent replay lost operations: reads %d/%d writes %d/%d seeks %d/%d",
			rep.Read.N(), seq.Read.N(), rep.Write.N(), seq.Write.N(), rep.Seek.N(), seq.Seek.N())
	}
	if rep.Elapsed <= 0 {
		t.Fatal("concurrent replay reported no elapsed time")
	}

	cache := store.Cache()
	s := cache.Stats()
	if s.Hits+s.Misses == 0 {
		t.Fatal("sharded cache saw no traffic")
	}
	if got, budget := cache.ResidentPages(), cache.Config().NumPages; got > budget {
		t.Fatalf("resident pages %d exceed budget %d", got, budget)
	}
	// Dirty accounting must settle: flushing retires every dirty page.
	cache.Flush(store.Clock().Now())
	if got := cache.DirtyPages(); got != 0 {
		t.Fatalf("%d dirty pages survived a full flush", got)
	}
}

// TestReplayConcurrentMixedSharded pushes the five-application mixed
// trace (many PIDs, interleaved scans) through one sharded store — the
// consolidation case that hammers every stripe at once.
func TestReplayConcurrentMixedSharded(t *testing.T) {
	params := parallelParams()
	tr, err := tracegen.Mixed(params)
	if err != nil {
		t.Fatal(err)
	}
	store := fsim.MustNewFileStore(fsim.ShardedConfig())
	rp := NewReplayer(store)
	rp.SampleFileSize = params.FileSize
	rep, err := rp.ReplayConcurrent("Mixed", tr)
	if err != nil {
		t.Fatal(err)
	}
	if n := rep.Read.N() + rep.Write.N() + rep.Seek.N(); n == 0 {
		t.Fatal("mixed replay performed no data operations")
	}
	if got, budget := store.Cache().ResidentPages(), store.Cache().Config().NumPages; got > budget {
		t.Fatalf("resident pages %d exceed budget %d", got, budget)
	}
}

func TestReplayConcurrentPgrep(t *testing.T) {
	p := testParams()
	tr, err := tracegen.Pgrep(p)
	if err != nil {
		t.Fatal(err)
	}
	store := fsim.MustNewFileStore(fsim.DefaultConfig())
	rp := NewReplayer(store)
	rp.SampleFileSize = p.FileSize
	rep, err := rp.ReplayConcurrent("Pgrep", tr)
	if err != nil {
		t.Fatal(err)
	}
	// Same op counts as a sequential replay of the same trace.
	seqStore := fsim.MustNewFileStore(fsim.DefaultConfig())
	seqRp := NewReplayer(seqStore)
	seqRp.SampleFileSize = p.FileSize
	seqRep, err := seqRp.Replay("Pgrep", tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Read.N() != seqRep.Read.N() {
		t.Fatalf("concurrent read count %d != sequential %d", rep.Read.N(), seqRep.Read.N())
	}
	// PID 1-3's records precede their own opens (the trace has one open
	// record, attributed to PID 0), so the concurrent replay issues
	// implicit opens: one per worker.
	if rep.Open.N() != 4 {
		t.Fatalf("concurrent opens = %d, want 4 (one per process)", rep.Open.N())
	}
}

func TestReplayConcurrentRejectsInvalid(t *testing.T) {
	store := fsim.MustNewFileStore(fsim.DefaultConfig())
	rp := NewReplayer(store)
	bad := &trace.Trace{Header: trace.Header{SampleFile: ""}}
	if _, err := rp.ReplayConcurrent("bad", bad); err == nil {
		t.Fatal("invalid trace accepted")
	}
}
