package simdisk

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func testParams() Params {
	p := DefaultParams()
	p.Capacity = 1 << 30 // 1 GB keeps seek distances meaningful in tests
	return p
}

func TestParamsValidate(t *testing.T) {
	good := testParams()
	if err := good.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Params)
	}{
		{"zero capacity", func(p *Params) { p.Capacity = 0 }},
		{"zero rpm", func(p *Params) { p.RPM = 0 }},
		{"zero rate", func(p *Params) { p.TransferRate = 0 }},
		{"zero track", func(p *Params) { p.TrackSize = 0 }},
		{"negative seek", func(p *Params) { p.TrackToTrackSeek = -1 }},
		{"full below t2t", func(p *Params) { p.FullStrokeSeek = p.TrackToTrackSeek - 1 }},
	}
	for _, tc := range cases {
		p := testParams()
		tc.mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	p := testParams()
	p.Capacity = -5
	if _, err := New(p); err == nil {
		t.Fatal("New accepted invalid params")
	}
}

func TestTransferTimeScalesWithLength(t *testing.T) {
	d := MustNew(testParams())
	now := time.Unix(0, 0)
	_, small := d.Access(now, Request{Offset: 0, Length: 4 << 10})
	d.Reset()
	_, large := d.Access(now, Request{Offset: 0, Length: 4 << 20})
	if large <= small {
		t.Fatalf("1000x larger transfer not slower: small=%v large=%v", small, large)
	}
}

func TestSeekDistanceIncreasesService(t *testing.T) {
	d := MustNew(testParams())
	near := d.ServiceTime(Request{Offset: 4096, Length: 0})
	far := d.ServiceTime(Request{Offset: d.Params().Capacity - 1, Length: 0})
	if far <= near {
		t.Fatalf("long seek not slower: near=%v far=%v", near, far)
	}
}

// TestMeanRandomSeekMatchesClosedForm checks what DefaultParams means
// by its seek figures: over uniformly random offset pairs the normalized
// distance x has density 2(1-x) and E[sqrt x] = 8/15, so the mean seek
// is t2t + (8/15)(full - t2t) = 9.44 ms. The standard error of a
// 200,000-pair mean is 0.085%; seed 1 reads -0.12%, and ten other seeds
// read within ±0.12%. The bound is 0.3%, about 3.5 standard errors.
func TestMeanRandomSeekMatchesClosedForm(t *testing.T) {
	p := DefaultParams()
	d := MustNew(p)
	rng := rand.New(rand.NewSource(1))
	const n = 200000
	var sum time.Duration
	for i := 0; i < n; i++ {
		sum += d.seekTime(rng.Int63n(p.Capacity) - rng.Int63n(p.Capacity))
	}
	mean := float64(sum) / n
	want := float64(p.TrackToTrackSeek) + 8.0/15*float64(p.FullStrokeSeek-p.TrackToTrackSeek)
	if time.Duration(want) != 9440*time.Microsecond {
		t.Fatalf("closed form %v, want 9.44ms", time.Duration(want))
	}
	rel := (mean - want) / want
	t.Logf("mean seek %v, closed form %v, relative error %.5f", time.Duration(mean), time.Duration(want), rel)
	if math.Abs(rel) > 0.003 {
		t.Fatalf("mean seek %v over %d random pairs, closed form %v", time.Duration(mean), n, time.Duration(want))
	}
}

func TestZeroDistanceSeekIsFree(t *testing.T) {
	d := MustNew(testParams())
	now := time.Unix(0, 0)
	d.Access(now, Request{Offset: 1000, Length: 0})
	// Head is now at 1000; re-access same offset: no seek, no rotation.
	svc := d.ServiceTime(Request{Offset: 1000, Length: 0})
	if svc != d.Params().ControllerOverhead {
		t.Fatalf("same-position access = %v, want controller overhead %v",
			svc, d.Params().ControllerOverhead)
	}
}

func TestAccessQueuesBehindBusyDisk(t *testing.T) {
	d := MustNew(testParams())
	now := time.Unix(0, 0)
	done1, _ := d.Access(now, Request{Offset: 0, Length: 1 << 20})
	done2, _ := d.Access(now, Request{Offset: 1 << 20, Length: 1 << 20})
	if !done2.After(done1) {
		t.Fatalf("second request must finish after first: %v vs %v", done2, done1)
	}
	if d.Stats().QueueWaitedTime <= 0 {
		t.Fatal("second request should have queued")
	}
}

func TestAccessDeterministic(t *testing.T) {
	run := func() []time.Duration {
		d := MustNew(testParams())
		now := time.Unix(0, 0)
		var out []time.Duration
		offsets := []int64{0, 12345, 999999, 4096, 777777777 % d.Params().Capacity}
		for _, off := range offsets {
			_, svc := d.Access(now, Request{Offset: off, Length: 64 << 10})
			out = append(out, svc)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic service time at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	d := MustNew(testParams())
	now := time.Unix(0, 0)
	d.Access(now, Request{Offset: 0, Length: 100, Write: false})
	d.Access(now, Request{Offset: 500, Length: 200, Write: true})
	s := d.Stats()
	if s.Reads != 1 || s.Writes != 1 {
		t.Fatalf("ops = %d/%d, want 1/1", s.Reads, s.Writes)
	}
	if s.BytesRead != 100 || s.BytesWritten != 200 {
		t.Fatalf("bytes = %d/%d, want 100/200", s.BytesRead, s.BytesWritten)
	}
	if s.Ops() != 2 {
		t.Fatalf("Ops = %d, want 2", s.Ops())
	}
	if s.BusyTime <= 0 {
		t.Fatal("busy time not accumulated")
	}
}

func TestResetClearsState(t *testing.T) {
	d := MustNew(testParams())
	d.Access(time.Unix(0, 0), Request{Offset: 1 << 20, Length: 4096})
	d.Reset()
	if d.Stats().Ops() != 0 {
		t.Fatal("reset did not clear stats")
	}
	svc := d.ServiceTime(Request{Offset: 0, Length: 0})
	if svc != d.Params().ControllerOverhead {
		t.Fatalf("reset did not rewind head: %v", svc)
	}
}

func TestOffsetClamping(t *testing.T) {
	d := MustNew(testParams())
	now := time.Unix(0, 0)
	// Neither out-of-range offset may panic.
	d.Access(now, Request{Offset: -100, Length: 10})
	d.Access(now, Request{Offset: d.Params().Capacity + 500, Length: 10})
}

func TestServiceTimeNonNegativeProperty(t *testing.T) {
	d := MustNew(testParams())
	f := func(off int64, length uint32) bool {
		svc := d.ServiceTime(Request{Offset: off, Length: int64(length)})
		return svc >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeekCurveConcave(t *testing.T) {
	// The seek curve must grow sub-linearly: doubling the distance must
	// less than double the incremental seek cost.
	d := MustNew(testParams())
	cap := d.Params().Capacity
	quarter := d.seekTime(cap / 4)
	half := d.seekTime(cap / 2)
	threeQ := d.seekTime(3 * (cap / 4))
	if !(quarter < half && half < threeQ) {
		t.Fatalf("seek not increasing: %v %v %v", quarter, half, threeQ)
	}
	if threeQ-half >= half-quarter {
		t.Fatalf("seek curve not concave: deltas %v then %v", half-quarter, threeQ-half)
	}
}
