package clock

import (
	"testing"
	"testing/quick"
	"time"
)

func TestVirtualClockAdvance(t *testing.T) {
	c := NewVirtualClock(time.Unix(0, 0))
	t0 := c.Now()
	t1 := c.Advance(5 * time.Millisecond)
	if got := t1.Sub(t0); got != 5*time.Millisecond {
		t.Fatalf("Advance moved clock by %v, want 5ms", got)
	}
	if !c.Now().Equal(t1) {
		t.Fatalf("Now %v != advanced time %v", c.Now(), t1)
	}
}

func TestVirtualClockNegativeAdvance(t *testing.T) {
	c := NewVirtualClock(time.Unix(100, 0))
	before := c.Now()
	c.Advance(-time.Second)
	if !c.Now().Equal(before) {
		t.Fatalf("negative advance moved the clock: %v -> %v", before, c.Now())
	}
}

func TestVirtualClockSleepAdvances(t *testing.T) {
	c := NewVirtualClock(time.Unix(0, 0))
	c.Sleep(3 * time.Second)
	if got := c.Now().Sub(time.Unix(0, 0)); got != 3*time.Second {
		t.Fatalf("Sleep advanced by %v, want 3s", got)
	}
}

func TestVirtualClockSetOnlyForward(t *testing.T) {
	c := NewVirtualClock(time.Unix(50, 0))
	c.Set(time.Unix(40, 0))
	if got := c.Now(); !got.Equal(time.Unix(50, 0)) {
		t.Fatalf("Set moved clock backwards to %v", got)
	}
	c.Set(time.Unix(60, 0))
	if got := c.Now(); !got.Equal(time.Unix(60, 0)) {
		t.Fatalf("Set failed to move clock forward, now %v", got)
	}
}

func TestVirtualClockMonotonicProperty(t *testing.T) {
	c := NewVirtualClock(time.Unix(0, 0))
	f := func(deltas []int32) bool {
		prev := c.Now()
		for _, d := range deltas {
			now := c.Advance(time.Duration(d)) // may be negative
			if now.Before(prev) {
				return false
			}
			prev = now
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRealClockProgresses(t *testing.T) {
	rc := RealClock{}
	a := rc.Now()
	rc.Sleep(time.Millisecond)
	b := rc.Now()
	if !b.After(a) {
		t.Fatalf("real clock did not progress: %v then %v", a, b)
	}
}
