package webserver

import (
	"testing"
	"time"

	"repro/internal/fsim"
	"repro/internal/vm"
	"repro/internal/workload"
)

// shedFixture starts a server with the standard corpus under the given
// shed policy and connects a client.
func shedFixture(t *testing.T, shed ShedPolicy) (*Server, *Client) {
	t.Helper()
	store := fsim.MustNewFileStore(fsim.DefaultConfig())
	if err := workload.Install(store, workload.WebCorpus()); err != nil {
		t.Fatal(err)
	}
	rt := vm.MustNew(vm.DefaultConfig(), nil)
	srv, err := New(Config{Store: store, Runtime: rt, Shed: shed})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c
}

// TestAdmissionGate unit-tests the in-flight accounting: the cap is
// strict, and a finished request returns its slot.
func TestAdmissionGate(t *testing.T) {
	srv := &Server{cfg: Config{Shed: ShedPolicy{MaxInFlight: 2}}}
	if !srv.admit() || !srv.admit() {
		t.Fatal("first two requests refused under cap 2")
	}
	if srv.admit() {
		t.Fatal("third concurrent request admitted under cap 2")
	}
	srv.done()
	if !srv.admit() {
		t.Fatal("freed slot not reusable")
	}
	// No cap: admit never refuses and done never underflows.
	open := &Server{}
	for i := 0; i < 4; i++ {
		if !open.admit() {
			t.Fatal("uncapped server refused")
		}
		open.done()
	}
	if n := open.inFlight.Load(); n != 0 {
		t.Fatalf("uncapped in-flight counter moved: %d", n)
	}
}

// TestShedOverloadAnswers503 drives the admission path end to end: with
// a saturated server (the one slot is held), a real request is shed with
// a 503 before any file I/O, and the refusal lands in the records.
func TestShedOverloadAnswers503(t *testing.T) {
	srv, c := shedFixture(t, ShedPolicy{MaxInFlight: 1})
	srv.inFlight.Add(1) // saturate: a request holds the only slot
	resp, err := c.Get(workload.WebCorpus()[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 503 {
		t.Fatalf("status = %d, want 503 under saturation", resp.Status)
	}
	recs := srv.Records()
	if len(recs) != 1 || !recs[0].Shed || recs[0].Status != 503 || recs[0].IOTime != 0 {
		t.Fatalf("shed record = %+v, want Shed/503 with zero IOTime", recs)
	}
	srv.inFlight.Add(-1) // slot freed: service resumes
	resp, err = c.Get(workload.WebCorpus()[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 {
		t.Fatalf("status after load drained = %d, want 200", resp.Status)
	}
}

// TestShedDeadline pins the deadline leg: a 1ns deadline abandons every
// request after its I/O, answering 503 while still billing the work.
func TestShedDeadline(t *testing.T) {
	srv, c := shedFixture(t, ShedPolicy{Deadline: time.Nanosecond})
	resp, err := c.Get(workload.WebCorpus()[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 503 {
		t.Fatalf("status = %d, want 503 past deadline", resp.Status)
	}
	if resp.ServerIOTime <= 0 {
		t.Fatal("deadlined response carries no billed I/O time")
	}
	recs := srv.Records()
	if len(recs) != 1 || !recs[0].Deadlined || recs[0].Status != 503 || recs[0].IOTime <= 0 {
		t.Fatalf("deadlined record = %+v, want Deadlined/503 with billed IOTime", recs)
	}
	// POSTs deadline too.
	if resp, err = c.Post("x", []byte("body")); err != nil {
		t.Fatal(err)
	}
	if resp.Status != 503 {
		t.Fatalf("POST status = %d, want 503 past deadline", resp.Status)
	}
}

// TestSuccessRecordsStatus pins that healthy requests carry their 200
// in the record, so downstream consumers can split served from shed.
func TestSuccessRecordsStatus(t *testing.T) {
	srv, c := shedFixture(t, ShedPolicy{})
	if _, err := c.Get(workload.WebCorpus()[0].Name); err != nil {
		t.Fatal(err)
	}
	recs := srv.Records()
	if len(recs) != 1 || recs[0].Status != 200 || recs[0].Shed || recs[0].Deadlined {
		t.Fatalf("healthy record = %+v, want plain 200", recs)
	}
}

// TestHarnessTakesTuningAndShed: the experiment fixture builds its store
// and server from the values it is handed, so a shed policy and a store
// tuning chosen by the caller reach them (and no other harness).
func TestHarnessTakesTuningAndShed(t *testing.T) {
	h, err := NewHarness(fsim.Tuning{Shards: 8}, ShedPolicy{Deadline: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if got := h.Store.Cache().NumShards(); got != 8 {
		t.Fatalf("harness store has %d stripes, want 8", got)
	}
	resp, err := h.Client.Get(workload.WebCorpus()[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 503 {
		t.Fatalf("status = %d, want 503 from the harness's shed policy", resp.Status)
	}
	if recs := h.Server.Records(); len(recs) != 1 || !recs[0].Deadlined {
		t.Fatalf("records = %+v", recs)
	}
	if _, err := NewHarness(fsim.Tuning{Shards: 3}, ShedPolicy{}); err == nil {
		t.Fatal("harness accepted a store tuning the store would reject")
	}
}

// TestParseShedPolicy pins the flag grammar.
func TestParseShedPolicy(t *testing.T) {
	p, err := ParseShedPolicy("max=8,deadline=2ms")
	if err != nil {
		t.Fatal(err)
	}
	if p != (ShedPolicy{MaxInFlight: 8, Deadline: 2 * time.Millisecond}) {
		t.Fatalf("ParseShedPolicy = %+v", p)
	}
	if got := p.String(); got != "max=8,deadline=2ms" {
		t.Fatalf("String() = %q", got)
	}
	if zero, err := ParseShedPolicy(""); err != nil || zero.Enabled() {
		t.Fatalf("empty spec = %+v, %v", zero, err)
	}
	for _, bad := range []string{"max=x", "deadline=fast", "nope=1", "max"} {
		if _, err := ParseShedPolicy(bad); err == nil {
			t.Fatalf("spec %q should error", bad)
		}
	}
	if err := (ShedPolicy{MaxInFlight: -1}).Validate(); err == nil {
		t.Fatal("negative MaxInFlight accepted")
	}
}
