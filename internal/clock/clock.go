// Package clock provides the time substrate shared by every simulator in
// this repository.
//
// The paper measures latencies with the Win32 QueryPerformanceCounter; on
// the reproduction side we need two clock flavours behind one interface:
//
//   - RealClock: a thin wrapper over the Go monotonic clock, used when a
//     benchmark issues real OS I/O.
//   - VirtualClock: a deterministic simulated clock advanced explicitly by
//     the discrete-event engines (disk model, cache, VM). Every simulated
//     experiment in the repo is reproducible bit-for-bit because all timing
//     flows through a VirtualClock.
package clock

import (
	"sync"
	"time"
)

// Clock is the minimal time source used throughout the repository.
// Implementations must be safe for concurrent use.
type Clock interface {
	// Now returns the current time on this clock. For virtual clocks the
	// wall-clock date is meaningless; only differences matter.
	Now() time.Time
	// Sleep advances this clock (virtual) or blocks (real) for d.
	Sleep(d time.Duration)
}

// Advancer is implemented by clocks whose time is driven by the caller
// rather than by the OS. Discrete-event engines advance simulated time
// through this interface.
type Advancer interface {
	// Advance moves the clock forward by d and returns the new now.
	Advance(d time.Duration) time.Time
}

// RealClock reads the OS monotonic clock.
type RealClock struct{}

// Now returns time.Now.
func (RealClock) Now() time.Time { return time.Now() }

// Sleep blocks for d using time.Sleep.
func (RealClock) Sleep(d time.Duration) { time.Sleep(d) }

// VirtualClock is a deterministic, explicitly advanced clock. The zero
// value is ready to use and starts at the zero time.
type VirtualClock struct {
	mu  sync.Mutex
	now time.Time
}

// NewVirtualClock returns a virtual clock starting at start.
func NewVirtualClock(start time.Time) *VirtualClock {
	return &VirtualClock{now: start}
}

// Now returns the current simulated time.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Sleep advances simulated time by d. Negative durations are ignored.
func (c *VirtualClock) Sleep(d time.Duration) { c.Advance(d) }

// Advance moves simulated time forward by d and returns the new now.
// Negative durations are treated as zero: simulated time never flows
// backwards.
func (c *VirtualClock) Advance(d time.Duration) time.Time {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	return c.now
}

// Set jumps the clock to t if t is later than the current simulated time.
// It returns the resulting now. Set is used by event loops that pop a
// timestamped event queue.
func (c *VirtualClock) Set(t time.Time) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
	return c.now
}

var (
	_ Clock    = RealClock{}
	_ Clock    = (*VirtualClock)(nil)
	_ Advancer = (*VirtualClock)(nil)
)
