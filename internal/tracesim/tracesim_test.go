package tracesim

import (
	"strings"
	"testing"

	"repro/internal/fsim"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// testParams keeps replay fast: a 128 MB sample file, reduced request
// counts. The cache (64 MB) still holds only half the file, preserving
// the cold/warm structure.
func testParams() tracegen.Params {
	p := tracegen.DefaultParams()
	p.FileSize = 128 << 20
	p.Requests = 100
	return p
}

func TestReplayAllApps(t *testing.T) {
	for _, app := range tracegen.AppNames {
		rep, err := RunApp(app, testParams(), fsim.Tuning{})
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		if rep.Open.N() == 0 || rep.Close.N() == 0 {
			t.Errorf("%s: missing open/close timings", app)
		}
		if rep.Elapsed <= 0 {
			t.Errorf("%s: non-positive elapsed %v", app, rep.Elapsed)
		}
	}
}

func TestCloseSlowerThanOpenAcrossAllTraces(t *testing.T) {
	// §3.4: "for all trace files the time spent closing a file was longer
	// than the time taken to open the file."
	for _, app := range tracegen.AppNames {
		rep, err := RunApp(app, testParams(), fsim.Tuning{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Close.Mean() <= rep.Open.Mean() {
			t.Errorf("%s: close %.6f ms not slower than open %.6f ms",
				app, rep.Close.Mean(), rep.Open.Mean())
		}
	}
}

func TestSeekCheaperThanRead(t *testing.T) {
	// The paper's seek times (~1e-4 ms) are far below its read times
	// (~1e-3 ms and up): seeks move a pointer, reads move data.
	rep, err := RunApp("Dmine", testParams(), fsim.Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seek.Mean() >= rep.Read.Mean() {
		t.Fatalf("seek %.6f ms not cheaper than read %.6f ms",
			rep.Seek.Mean(), rep.Read.Mean())
	}
}

func TestDmineOrderingMatchesTable1(t *testing.T) {
	// Table 1's robust orderings: seek ≪ open < close, and reads cost
	// more than seeks. (The paper's read average additionally lands below
	// its close time; a 131072-byte transfer is memcopy-bound in our
	// physical model, so reads land above close instead — recorded as a
	// deviation in EXPERIMENTS.md.)
	rep, err := RunApp("Dmine", testParams(), fsim.Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	seek, open, read, close := rep.Seek.Mean(), rep.Open.Mean(), rep.Read.Mean(), rep.Close.Mean()
	if !(seek < open && open < close && close < read) {
		t.Fatalf("ordering seek=%g open=%g close=%g read=%g, want seek<open<close<read",
			seek, open, close, read)
	}
	// Seeks are two orders of magnitude below reads, as in Table 1.
	if read < 50*seek {
		t.Fatalf("read %.6g ms not ≫ seek %.6g ms", read, seek)
	}
}

func TestCholeskyReadSpikes(t *testing.T) {
	// Table 4's signature: some mid-size reads cost 100x more than other
	// reads (page-fault spikes), and a larger read can be cheaper than a
	// smaller one.
	rep, err := RunApp("Cholesky", testParams(), fsim.Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	var reads []RequestTiming
	for _, r := range rep.Requests {
		if r.Op == trace.OpRead {
			reads = append(reads, r)
		}
	}
	if len(reads) != 16 {
		t.Fatalf("got %d reads, want 16", len(reads))
	}
	minMS, maxMS := reads[0].ReadMS, reads[0].ReadMS
	for _, r := range reads {
		if r.ReadMS < minMS {
			minMS = r.ReadMS
		}
		if r.ReadMS > maxMS {
			maxMS = r.ReadMS
		}
	}
	if maxMS < 10*minMS {
		t.Fatalf("no spike structure: min %.6f ms, max %.6f ms", minMS, maxMS)
	}
	// The paper's inversion: a smaller cold read costs more than a larger
	// warm one ("reading 28048 bytes takes more time than reading 133692
	// bytes"). Request index 2 (28048 B) jumps to cold pages; request
	// index 9 (84140 B) re-reads cached pages.
	if reads[2].ReadMS <= reads[9].ReadMS {
		t.Errorf("cold 28048-byte read %.6f ms not slower than warm 84140-byte read %.6f ms",
			reads[2].ReadMS, reads[9].ReadMS)
	}
	if reads[2].Size >= reads[9].Size {
		t.Fatal("inversion pair sizes wrong")
	}
}

func TestLUSeekTimesTiny(t *testing.T) {
	// Table 3: seeks are ~1e-4 ms, order of 100 ns — pointer updates.
	rep, err := RunApp("LU", testParams(), fsim.Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seek.N() != int64(len(tracegen.LURequestSizes)) {
		t.Fatalf("seek count %d, want %d", rep.Seek.N(), len(tracegen.LURequestSizes))
	}
	if mean := rep.Seek.Mean(); mean > 0.01 {
		t.Fatalf("LU mean seek %.6f ms, want ≲ 1e-2 ms", mean)
	}
}

func TestReplayRejectsDataOpsBeforeOpen(t *testing.T) {
	store := fsim.MustNewFileStore(fsim.DefaultConfig())
	rp := NewReplayer(store)
	rp.SampleFileSize = 1 << 20
	tr := &trace.Trace{
		Header: trace.Header{NumProcesses: 1, NumFiles: 1, NumRecords: 1, SampleFile: "s"},
		Records: []trace.Record{
			{Op: trace.OpRead, Count: 1, Length: 10},
		},
	}
	if _, err := rp.Replay("bad", tr); err == nil {
		t.Fatal("read before open accepted")
	}
}

func TestReplayExpandsCounts(t *testing.T) {
	store := fsim.MustNewFileStore(fsim.DefaultConfig())
	rp := NewReplayer(store)
	rp.SampleFileSize = 1 << 20
	tr := &trace.Trace{
		Header: trace.Header{NumProcesses: 1, NumFiles: 1, NumRecords: 3, SampleFile: "s"},
		Records: []trace.Record{
			{Op: trace.OpOpen, Count: 1},
			{Op: trace.OpRead, Count: 7, Offset: 0, Length: 4096},
			{Op: trace.OpClose, Count: 1},
		},
	}
	rep, err := rp.Replay("counted", tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Read.N() != 7 {
		t.Fatalf("read count = %d, want 7 (count expansion)", rep.Read.N())
	}
}

func TestReplayPreparesSampleOnce(t *testing.T) {
	store := fsim.MustNewFileStore(fsim.DefaultConfig())
	rp := NewReplayer(store)
	rp.SampleFileSize = 1 << 20
	p := testParams()
	tr, _ := tracegen.Dmine(p)
	if _, err := rp.Replay("a", tr); err != nil {
		t.Fatal(err)
	}
	if !store.Exists(p.SampleFile) {
		t.Fatal("sample file not provisioned")
	}
	// Second replay reuses the file.
	if _, err := rp.Replay("b", tr); err != nil {
		t.Fatal(err)
	}
}

func TestReportGenericTable(t *testing.T) {
	rep, err := RunApp("Dmine", testParams(), fsim.Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Table().Render()
	for _, want := range []string{"open", "close", "read", "seek"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestTables1Through4(t *testing.T) {
	tables, reports, err := AllTables(testParams(), fsim.Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 4 || len(reports) != 4 {
		t.Fatalf("got %d tables, %d reports", len(tables), len(reports))
	}
	checks := []struct {
		wantTitle string
		wantRows  int
	}{
		{"Table 1", 1},
		{"Table 2", 1},
		{"Table 3", 6},
		{"Table 4", 16},
	}
	for i, c := range checks {
		if !strings.Contains(tables[i].Title, c.wantTitle) {
			t.Errorf("table %d title %q", i, tables[i].Title)
		}
		if tables[i].NumRows() != c.wantRows {
			t.Errorf("%s has %d rows, want %d", c.wantTitle, tables[i].NumRows(), c.wantRows)
		}
	}
	// Table 3's data-size column lists the paper's seek targets.
	if got := tables[2].Cell(0, 1); got != "66617088" {
		t.Errorf("Table 3 first data size = %q, want 66617088", got)
	}
	// Table 4's data-size column lists the paper's read sizes.
	if got := tables[3].Cell(0, 1); got != "4" {
		t.Errorf("Table 4 first data size = %q, want 4", got)
	}
}

func TestReplayDeterministic(t *testing.T) {
	run := func() string {
		tb, _, err := Table4(testParams(), fsim.Tuning{})
		if err != nil {
			t.Fatal(err)
		}
		return tb.CSV()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("replay not deterministic:\n%s\nvs\n%s", a, b)
	}
}

func TestPacedReplayChargesThinkTime(t *testing.T) {
	p := testParams()
	tr, err := tracegen.Dmine(p)
	if err != nil {
		t.Fatal(err)
	}
	store := fsim.MustNewFileStore(fsim.DefaultConfig())
	rp := NewReplayer(store)
	rp.SampleFileSize = p.FileSize
	unpaced, err := rp.Replay("Dmine", tr)
	if err != nil {
		t.Fatal(err)
	}
	rp2 := NewReplayer(fsim.MustNewFileStore(fsim.DefaultConfig()))
	rp2.SampleFileSize = p.FileSize
	rp2.Paced = true
	paced, err := rp2.Replay("Dmine", tr)
	if err != nil {
		t.Fatal(err)
	}
	if unpaced.ThinkTime != 0 {
		t.Fatalf("unpaced replay charged think time %v", unpaced.ThinkTime)
	}
	if paced.ThinkTime <= 0 {
		t.Fatal("paced replay charged no think time")
	}
	if paced.Elapsed <= unpaced.Elapsed {
		t.Fatalf("paced elapsed %v not above unpaced %v", paced.Elapsed, unpaced.Elapsed)
	}
	// Per-operation latencies are pacing-independent.
	if paced.Read.N() != unpaced.Read.N() {
		t.Fatal("pacing changed the op stream")
	}
}
