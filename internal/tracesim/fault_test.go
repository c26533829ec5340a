package tracesim

import (
	"errors"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/fsim"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// injectingStore is a default store whose sessions inject per spec with
// no retries, so the first fault fails its operation.
func injectingStore(t *testing.T, spec fsim.InjectSpec) *fsim.FileStore {
	t.Helper()
	cfg := fsim.DefaultConfig()
	cfg.Inject = spec
	store := fsim.MustNewFileStore(cfg)
	t.Cleanup(store.Close)
	return store
}

var faultPosition = regexp.MustCompile(`^tracesim: pid (\d+) record (\d+) \((\w+)\): `)

// checkInjectedAt asserts err is an injected fault and that the position
// it reports — pid P record N (op) — names a record of tr: the N'th
// record of pid P, counted from zero, with that op.
func checkInjectedAt(t *testing.T, err error, tr *trace.Trace) {
	t.Helper()
	if !errors.Is(err, fsim.ErrInjected) {
		t.Fatalf("replay err = %v, want an injected fault", err)
	}
	m := faultPosition.FindStringSubmatch(err.Error())
	if m == nil {
		t.Fatalf("replay err %q does not name its position", err)
	}
	pid, _ := strconv.Atoi(m[1])
	n, _ := strconv.Atoi(m[2])
	for _, rec := range tr.Records {
		if int(rec.PID) != pid {
			continue
		}
		if n == 0 {
			if rec.Op.String() != m[3] {
				t.Fatalf("replay err %q: that record is a %s", err, rec.Op)
			}
			return
		}
		n--
	}
	t.Fatalf("replay err %q names a record pid %d does not have", err, pid)
}

// TestReplaySurfacesInjectedFaults verifies the serial replay engine
// propagates an injected storage fault with its position instead of
// panicking or silently dropping operations. Serial replay runs on the
// replayer's own store, so the store here is one injecting session; the
// sample file is provisioned on the default session, which never
// injects.
func TestReplaySurfacesInjectedFaults(t *testing.T) {
	p := testParams()
	tr, err := tracegen.Dmine(p)
	if err != nil {
		t.Fatal(err)
	}
	store := injectingStore(t, fsim.InjectSpec{Seed: 7, Rate: 10})
	if _, err := store.CreateSized(tr.Header.SampleFile, p.FileSize); err != nil {
		t.Fatal(err)
	}
	sess := store.NewSession()
	defer sess.Release()
	_, err = NewReplayer(sess).Replay("Dmine", tr)
	checkInjectedAt(t, err, tr)
	if rec := sess.Recovery(); rec.Failed != 1 {
		t.Fatalf("session recovery %+v, want exactly one failed op", rec)
	}
}

// TestReplayConcurrentSurfacesInjectedFaults does the same for the
// multi-process replay path, whose lanes are sessions of the store.
func TestReplayConcurrentSurfacesInjectedFaults(t *testing.T) {
	p := testParams()
	tr, err := tracegen.Pgrep(p)
	if err != nil {
		t.Fatal(err)
	}
	rp := NewReplayer(injectingStore(t, fsim.InjectSpec{Seed: 7, Rate: 25}))
	rp.SampleFileSize = p.FileSize
	_, err = rp.ReplayConcurrent("Pgrep", tr)
	checkInjectedAt(t, err, tr)
}

// TestReplayCleanWithInjectorDisabled pins the zero-schedule baseline: a
// session of a store whose spec injects nothing replays clean.
func TestReplayCleanWithInjectorDisabled(t *testing.T) {
	p := testParams()
	tr, err := tracegen.Titan(p)
	if err != nil {
		t.Fatal(err)
	}
	sess := injectingStore(t, fsim.InjectSpec{}).NewSession()
	defer sess.Release()
	rp := NewReplayer(sess)
	rp.SampleFileSize = p.FileSize
	if _, err := rp.Replay("Titan", tr); err != nil {
		t.Fatal(err)
	}
	if rec := sess.Recovery(); rec.Any() {
		t.Fatalf("zero spec injected: %+v", rec)
	}
}
