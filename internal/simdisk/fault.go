package simdisk

import (
	"fmt"
	"time"
)

// FaultKind selects what a scheduled Fault does to its member disk.
type FaultKind int

// Fault kinds.
const (
	// FaultSlowdown inflates the service time of every request the disk
	// serves while the fault is active — a transient firmware stall or a
	// drive entering thermal throttling.
	FaultSlowdown FaultKind = iota
	// FaultMedia poisons a physical byte range: reads overlapping it
	// return a *MediaError (after spending the full mechanical motion —
	// the head moved and the sector was read before the ECC rejected it);
	// writes succeed, as drives remap on write.
	FaultMedia
	// FaultDevice kills the whole device at a virtual timestamp: every
	// request whose service would start at or after At is refused with a
	// *DeviceFailedError and bills nothing.
	FaultDevice
)

// String names the kind.
func (k FaultKind) String() string {
	switch k {
	case FaultSlowdown:
		return "slow"
	case FaultMedia:
		return "media"
	case FaultDevice:
		return "fail"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Fault is one scheduled fault on one member disk. All times are virtual
// (offsets from the simulation start), so a plan replays bit-identically
// run after run regardless of goroutine scheduling.
type Fault struct {
	// Disk is the member index the fault applies to.
	Disk int
	// Kind selects the behaviour.
	Kind FaultKind
	// At activates the fault: requests whose service starts earlier are
	// unaffected.
	At time.Duration
	// Until deactivates a slowdown; zero means it never lifts. Media and
	// device faults ignore it (sectors stay bad, dead drives stay dead —
	// until a rebuild replaces the platter).
	Until time.Duration
	// Penalty is the per-request service-time inflation of a slowdown.
	Penalty time.Duration
	// Offset and Length bound the poisoned physical range of a media
	// fault.
	Offset, Length int64
}

// Validate reports the first problem with the fault, or nil.
func (f Fault) Validate() error {
	switch f.Kind {
	case FaultSlowdown:
		if f.Penalty <= 0 {
			return fmt.Errorf("simdisk: slowdown fault needs a positive penalty, got %v", f.Penalty)
		}
		if f.Until != 0 && f.Until < f.At {
			return fmt.Errorf("simdisk: slowdown fault lifts at %v before it starts at %v", f.Until, f.At)
		}
	case FaultMedia:
		if f.Length <= 0 {
			return fmt.Errorf("simdisk: media fault needs a positive length, got %d", f.Length)
		}
		if f.Offset < 0 {
			return fmt.Errorf("simdisk: media fault offset %d must be non-negative", f.Offset)
		}
	case FaultDevice:
	default:
		return fmt.Errorf("simdisk: unknown fault kind %d", int(f.Kind))
	}
	if f.Disk < 0 {
		return fmt.Errorf("simdisk: disk index %d must be non-negative", f.Disk)
	}
	if f.At < 0 {
		return fmt.Errorf("simdisk: fault activation %v must be non-negative", f.At)
	}
	return nil
}

// checkMediaOverlaps rejects plans whose media-error ranges on the same
// disk overlap: two poisoned ranges covering one sector would make the
// billed failure order depend on which fault the access check saw
// first. Errors are positioned — they name both fault indices and
// render both faults in the plan grammar.
func (p *FaultPlan) checkMediaOverlaps() error {
	for i, f := range p.Faults {
		if f.Kind != FaultMedia {
			continue
		}
		for j := 0; j < i; j++ {
			g := p.Faults[j]
			if g.Kind != FaultMedia || g.Disk != f.Disk {
				continue
			}
			if f.Offset < g.Offset+g.Length && g.Offset < f.Offset+f.Length {
				return fmt.Errorf("fault %d %q: media range [%d,%d) on disk %d overlaps fault %d %q",
					i, formatFault(f), f.Offset, f.Offset+f.Length, f.Disk, j, formatFault(g))
			}
		}
	}
	return nil
}

// FaultPlan schedules per-member faults on simulated time. Applying the
// same plan to identical arrays yields identical timings: activation is
// decided by each request's virtual service-start time, never by the
// wall clock.
type FaultPlan struct {
	Faults []Fault
}

// Validate checks every fault against an array of n members at the given
// level. RAID0 has no redundancy, so media and device faults — which the
// array could only surface as data loss — are rejected there; slowdowns
// are timing-only and allowed at any level.
func (p *FaultPlan) Validate(n int, level Level) error {
	if p == nil {
		return nil
	}
	for i, f := range p.Faults {
		if err := f.Validate(); err != nil {
			return fmt.Errorf("fault %d: %w", i, err)
		}
		if f.Disk < 0 || f.Disk >= n {
			return fmt.Errorf("fault %d: disk %d out of range [0,%d)", i, f.Disk, n)
		}
		if level == RAID0 && f.Kind != FaultSlowdown {
			return fmt.Errorf("fault %d: %s fault needs redundancy; %s has none (only slowdowns)", i, f.Kind, level)
		}
	}
	return p.checkMediaOverlaps()
}

// MediaError reports a read that landed on a poisoned sector range. The
// mechanical motion was spent before the error surfaced, so the failed
// attempt is billed on the member.
type MediaError struct {
	Disk           int
	Offset, Length int64
}

// Error implements error.
func (e *MediaError) Error() string {
	return fmt.Sprintf("simdisk: media error on disk %d range [%d,%d)", e.Disk, e.Offset, e.Offset+e.Length)
}

// DeviceFailedError reports a request issued to a member that has failed
// outright. The dead device serves nothing and bills nothing.
type DeviceFailedError struct {
	Disk int
	At   time.Duration
}

// Error implements error.
func (e *DeviceFailedError) Error() string {
	return fmt.Sprintf("simdisk: disk %d failed at +%v", e.Disk, e.At)
}

// diskFaults is the per-disk fault state. A healthy disk keeps a nil
// pointer, so the fault-free hot path pays exactly one nil check.
type diskFaults struct {
	member int // index carried into typed errors
	epoch  time.Time
	slow   []Fault
	media  []Fault
	failAt time.Duration
	failed bool
}

// penaltyAt sums the slowdown penalties active at the service start.
func (df *diskFaults) penaltyAt(start time.Time) time.Duration {
	var pen time.Duration
	at := start.Sub(df.epoch)
	for _, f := range df.slow {
		if at >= f.At && (f.Until == 0 || at < f.Until) {
			pen += f.Penalty
		}
	}
	return pen
}

// check returns the typed error a request starting at start would hit:
// device failure first (the drive is gone), then media errors for reads
// overlapping a poisoned range. Writes never hit media errors.
func (df *diskFaults) check(start time.Time, req Request) error {
	at := start.Sub(df.epoch)
	if df.failed && at >= df.failAt {
		return &DeviceFailedError{Disk: df.member, At: df.failAt}
	}
	if !req.Write {
		for _, f := range df.media {
			if at >= f.At && req.Offset < f.Offset+f.Length && f.Offset < req.Offset+req.Length {
				return &MediaError{Disk: df.member, Offset: f.Offset, Length: f.Length}
			}
		}
	}
	return nil
}

// InjectFault schedules f on the disk. Virtual activation offsets are
// measured from epoch (the simulation start the caller's clocks use).
func (d *Disk) InjectFault(epoch time.Time, f Fault) error {
	if err := f.Validate(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.flt == nil {
		d.flt = &diskFaults{member: f.Disk, epoch: epoch}
	}
	switch f.Kind {
	case FaultSlowdown:
		d.flt.slow = append(d.flt.slow, f)
	case FaultMedia:
		d.flt.media = append(d.flt.media, f)
	case FaultDevice:
		if !d.flt.failed || f.At < d.flt.failAt {
			d.flt.failAt = f.At
		}
		d.flt.failed = true
	}
	return nil
}

// Failed reports whether the device is dead at the given virtual time.
func (d *Disk) Failed(now time.Time) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.flt != nil && d.flt.failed && now.Sub(d.flt.epoch) >= d.flt.failAt
}

// accessChecked is accessLocked plus the fault gate, the entry point the
// leveled (RAID1/RAID5) array paths use. A dead device refuses the
// request and bills nothing; a media error spends the full mechanical
// motion (the head moved, the platter spun, the ECC then rejected the
// sector) and returns the completion time of the failed attempt with the
// typed error, so recovery can chain after it. With no faults injected
// it is bit-identical to Access.
func (d *Disk) accessChecked(now time.Time, req Request) (done time.Time, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.flt != nil {
		start := now
		if d.busyUntil.After(start) {
			start = d.busyUntil
		}
		if ferr := d.flt.check(start, req); ferr != nil {
			if _, dead := ferr.(*DeviceFailedError); dead {
				return time.Time{}, ferr
			}
			done, _ = d.accessLocked(now, req)
			d.stats.MediaErrors++
			return done, ferr
		}
	}
	done, _ = d.accessLocked(now, req)
	return done, nil
}

// addRecovery accumulates recovery counters on the member under its
// lock; the degraded array paths bill them on the disk that did (or
// failed to do) the work so TotalStats aggregates them for free.
func (d *Disk) addRecovery(degraded, reconstruct, rebuild, unrecoverable int64) {
	d.mu.Lock()
	d.stats.DegradedReads += degraded
	d.stats.ReconstructReads += reconstruct
	d.stats.RebuildWrites += rebuild
	d.stats.Unrecoverable += unrecoverable
	d.mu.Unlock()
}

// isDeviceFailed reports whether err is a *DeviceFailedError.
func isDeviceFailed(err error) bool {
	_, ok := err.(*DeviceFailedError)
	return ok
}
