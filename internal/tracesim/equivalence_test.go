package tracesim

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fsim"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

var update = flag.Bool("update", false, "rewrite testdata/replay_*.txt from the current cache; "+
	"they were generated at the commit that still carried the per-page reference path, from both "+
	"paths, so moving them means moving the model: say so in the change")

// mixedTrace is the consolidated multi-application workload: all five
// paper applications interleaved, with reads, writes, and seeks.
func mixedTrace(t *testing.T) *trace.Trace {
	t.Helper()
	p := tracegen.DefaultParams()
	p.FileSize = 64 << 20
	p.Requests = 96
	tr, err := tracegen.Mixed(p)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// renderReplay is the text a replay pin holds: every summary, every
// request row, the cache statistics and the resident and dirty page
// counts, floats in their shortest exact form. WritebackBatches is left
// out: how many drains the flusher wake-ups coalesce into follows host
// goroutine scheduling (ROADMAP 3), while WritebackPages still pins
// every page they wrote.
func renderReplay(rep *Report, store *fsim.FileStore) string {
	var b strings.Builder
	fmt.Fprintf(&b, "app %s\nelapsed %d\nworker_time %d\nthink_time %d\ntotal_requests %d\nrecovery %+v\n",
		rep.App, rep.Elapsed, rep.WorkerTime, rep.ThinkTime, rep.TotalRequests, rep.Recovery)
	for _, op := range []struct {
		name string
		s    *metrics.Summary
	}{{"open", &rep.Open}, {"close", &rep.Close}, {"read", &rep.Read}, {"write", &rep.Write}, {"seek", &rep.Seek}} {
		fmt.Fprintf(&b, "%s n=%d mean=%v var=%v min=%v max=%v\n", op.name, op.s.N(), op.s.Mean(), op.s.Var(), op.s.Min(), op.s.Max())
	}
	for _, r := range rep.Requests {
		fmt.Fprintf(&b, "#%d %s size=%d seek=%v read=%v write=%v\n", r.Index, r.Op, r.Size, r.SeekMS, r.ReadMS, r.WriteMS)
	}
	c := store.Cache()
	st := c.Stats()
	st.WritebackBatches = 0
	fmt.Fprintf(&b, "cache %+v\nresident %d\ndirty %d\n", st, c.ResidentPages(), c.DirtyPages())
	return b.String()
}

// checkPin compares got with testdata/file, or rewrites the file under
// -update.
func checkPin(t *testing.T, file, got string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("replay differs from %s at line %d:\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("replay differs from %s: %d lines, want %d", path, len(gl), len(wl))
}

// TestReplayBulkMatchesPageGranular is the end-to-end form of the
// buffercache equivalence contract: the mixed trace on one stripe under
// real cache pressure (an 8 MB cache under a 64 MB file: hits, miss
// runs, prefetch, dirty write-back on eviction, flush-on-close) must
// reproduce testdata/replay_serial_mixed.txt, which the bulk path and
// the per-page reference path both produced byte for byte. The bulk
// rewrite changed the wall-clock cost of the replay engine, not one
// nanosecond of what it simulates.
func TestReplayBulkMatchesPageGranular(t *testing.T) {
	tr := mixedTrace(t)
	cfg := fsim.DefaultConfig()
	cfg.Cache.Shards = 1
	cfg.Cache.NumPages = 2048 // 8 MB: evictions engage
	store := fsim.MustNewFileStore(cfg)
	defer store.Close()
	rp := NewReplayer(store)
	rp.SampleFileSize = 64 << 20
	rep, err := rp.Replay("Mixed", tr)
	if err != nil {
		t.Fatal(err)
	}
	if st := store.Cache().Stats(); st.HitRate() == 0 || st.Evictions == 0 {
		t.Fatalf("workload exercised no pressure (hit rate %v, evictions %d); the pin is vacuous",
			st.HitRate(), st.Evictions)
	}
	if rep.Read.N() == 0 || rep.Write.N() == 0 || rep.Seek.N() == 0 {
		t.Fatal("mixed trace missing an operation kind; the pin is vacuous")
	}
	checkPin(t, "replay_serial_mixed.txt", renderReplay(rep, store))
}

// TestConcurrentReplayBulkMatchesPageGranular is the same contract for
// the simulated-parallel path: 8 workers on 8 stripes, write-back on,
// against testdata/replay_concurrent_parallel.txt.
func TestConcurrentReplayBulkMatchesPageGranular(t *testing.T) {
	tr := determinismTrace(t)
	store := fsim.MustNewFileStore(determinismConfig())
	defer store.Close()
	rp := NewReplayer(store)
	rp.SampleFileSize = 32 << 20
	rep, err := rp.ReplayConcurrent("Parallel", tr)
	if err != nil {
		t.Fatal(err)
	}
	checkPin(t, "replay_concurrent_parallel.txt", renderReplay(rep, store))
}

// TestReplaySourcesAgree ties the three record sources to the one lane
// core: a single-process trace is one lane however it is fed, so
// Replay, ReplayConcurrent and ReplayStream on fresh default stores
// must report the same rows, per-op summaries and elapsed time.
func TestReplaySourcesAgree(t *testing.T) {
	p := tracegen.DefaultParams()
	p.FileSize = 64 << 20
	p.Requests = 96
	for _, app := range []string{"Dmine", "LU", "Titan", "Cholesky"} {
		t.Run(app, func(t *testing.T) {
			tr, err := tracegen.Generate(app, p)
			if err != nil {
				t.Fatal(err)
			}
			run := func(replay func(*Replayer) (*Report, error)) *Report {
				store := fsim.MustNewFileStore(fsim.DefaultConfig())
				defer store.Close()
				rp := NewReplayer(store)
				rp.SampleFileSize = p.FileSize
				rep, err := replay(rp)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			serial := run(func(rp *Replayer) (*Report, error) { return rp.Replay(app, tr) })
			if serial.TotalRequests == 0 {
				t.Fatal("trace produced no request rows; the comparison is vacuous")
			}
			for name, got := range map[string]*Report{
				"concurrent": run(func(rp *Replayer) (*Report, error) { return rp.ReplayConcurrent(app, tr) }),
				"stream":     run(func(rp *Replayer) (*Report, error) { return rp.ReplayStream(app, streamScanner(t, tr, encodeV2)) }),
			} {
				if !reflect.DeepEqual(serial.Requests, got.Requests) {
					t.Errorf("%s rows diverge from serial", name)
				}
				if serial.Open != got.Open || serial.Close != got.Close || serial.Read != got.Read ||
					serial.Write != got.Write || serial.Seek != got.Seek {
					t.Errorf("%s summaries diverge from serial:\nserial: %+v\n%s: %+v", name, summary(serial), name, summary(got))
				}
				if serial.Elapsed != got.Elapsed {
					t.Errorf("%s elapsed %v, serial %v", name, got.Elapsed, serial.Elapsed)
				}
			}
		})
	}
}
