// Package simdisk models the mechanical disks behind the paper's
// experiments. The authors ran on a 2003-era Windows XP workstation whose
// IDE disk is not available to us, so we substitute a parametric
// seek + rotation + transfer service-time model (the classic first-order
// disk model) plus a striped multi-disk Array used by the Figure 4
// disk-scaling experiment.
//
// Everything in the package is deterministic: rotational position is
// derived from the target offset rather than sampled, so identical request
// streams produce identical timings run after run.
package simdisk

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Params describes one disk. The defaults (DefaultParams) approximate a
// 7200 rpm desktop drive of the paper's vintage: 0.8 ms track-to-track
// and 17 ms full-stroke seeks (9.44 ms mean over random offset pairs),
// ~4.17 ms average rotational latency, ~40 MB/s media rate.
type Params struct {
	// Capacity is the addressable size in bytes.
	Capacity int64
	// TrackToTrackSeek is the minimum (adjacent-track) seek time.
	TrackToTrackSeek time.Duration
	// FullStrokeSeek is the maximum (end-to-end) seek time.
	FullStrokeSeek time.Duration
	// RPM is the spindle speed in revolutions per minute.
	RPM int
	// TransferRate is the sustained media rate in bytes per second.
	TransferRate float64
	// ControllerOverhead is the fixed per-request command cost.
	ControllerOverhead time.Duration
	// TrackSize is the number of bytes per track, used to derive the
	// deterministic rotational position of an offset.
	TrackSize int64
}

// DefaultParams returns the circa-2003 desktop disk the reproduction uses
// unless an experiment overrides it.
func DefaultParams() Params {
	return Params{
		Capacity:           80 << 30, // 80 GB
		TrackToTrackSeek:   800 * time.Microsecond,
		FullStrokeSeek:     17 * time.Millisecond,
		RPM:                7200,
		TransferRate:       40 << 20, // 40 MB/s
		ControllerOverhead: 200 * time.Microsecond,
		TrackSize:          512 * 1024,
	}
}

// MemoryBackedParams returns parameters approximating storage that is
// effectively served from the operating system's file cache, which is the
// regime the paper's trace-replay latencies (microseconds, not
// milliseconds) reflect: the 1 GB sample file is mostly resident in XP's
// cache during replay. Misses in our page cache then cost tens of
// microseconds — the "page fault" spikes of Tables 3-4 — instead of
// mechanical-disk milliseconds.
func MemoryBackedParams() Params {
	return Params{
		Capacity:           8 << 30,
		TrackToTrackSeek:   time.Microsecond,
		FullStrokeSeek:     6 * time.Microsecond,
		RPM:                6_000_000, // 10 µs "rotation": ordering cost only
		TransferRate:       500 << 20,
		ControllerOverhead: 5 * time.Microsecond,
		TrackSize:          1 << 20,
	}
}

// Validate reports the first problem with the parameter set, or nil.
func (p Params) Validate() error {
	switch {
	case p.Capacity <= 0:
		return fmt.Errorf("simdisk: capacity %d must be positive", p.Capacity)
	case p.RPM <= 0:
		return fmt.Errorf("simdisk: rpm %d must be positive", p.RPM)
	case p.TransferRate <= 0:
		return fmt.Errorf("simdisk: transfer rate %v must be positive", p.TransferRate)
	case p.TrackSize <= 0:
		return fmt.Errorf("simdisk: track size %d must be positive", p.TrackSize)
	case p.TrackToTrackSeek < 0:
		return fmt.Errorf("simdisk: seek times must be non-negative")
	case p.FullStrokeSeek < p.TrackToTrackSeek:
		return fmt.Errorf("simdisk: full stroke %v < track-to-track %v", p.FullStrokeSeek, p.TrackToTrackSeek)
	}
	return nil
}

// rotation returns the time of one full revolution.
func (p Params) rotation() time.Duration {
	return time.Duration(float64(time.Minute) / float64(p.RPM))
}

// Stats counts a disk's activity. The recovery counters (everything from
// SlowdownTime down) stay zero on a healthy disk, so fault-free runs are
// unchanged by their presence.
type Stats struct {
	Reads, Writes   int64
	BytesRead       int64
	BytesWritten    int64
	SeekTime        time.Duration
	RotationTime    time.Duration
	TransferTime    time.Duration
	BusyTime        time.Duration
	QueueWaitedTime time.Duration
	// SlowdownTime is service-time inflation charged by active slowdown
	// faults (already included in BusyTime).
	SlowdownTime time.Duration
	// MediaErrors counts read attempts that landed on a poisoned range:
	// the mechanical motion was billed, then the typed error surfaced.
	MediaErrors int64
	// DegradedReads counts mirror-failover reads this disk served for a
	// faulted peer (RAID1 degraded mode).
	DegradedReads int64
	// ReconstructReads counts survivor reads this disk served to
	// reconstruct a lost block (RAID5 degraded mode and rebuilds).
	ReconstructReads int64
	// RebuildWrites counts blocks written onto this disk as a rebuild
	// spare.
	RebuildWrites int64
	// Unrecoverable counts requests redundancy could not absorb (double
	// faults); they are served best-effort and counted here.
	Unrecoverable int64
}

// Ops returns the total operation count.
func (s Stats) Ops() int64 { return s.Reads + s.Writes }

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Reads += other.Reads
	s.Writes += other.Writes
	s.BytesRead += other.BytesRead
	s.BytesWritten += other.BytesWritten
	s.SeekTime += other.SeekTime
	s.RotationTime += other.RotationTime
	s.TransferTime += other.TransferTime
	s.BusyTime += other.BusyTime
	s.QueueWaitedTime += other.QueueWaitedTime
	s.SlowdownTime += other.SlowdownTime
	s.MediaErrors += other.MediaErrors
	s.DegradedReads += other.DegradedReads
	s.ReconstructReads += other.ReconstructReads
	s.RebuildWrites += other.RebuildWrites
	s.Unrecoverable += other.Unrecoverable
}

// Disk is one simulated drive. Methods are safe for concurrent use; the
// disk serializes requests on its internal busy-until horizon, modelling a
// single head.
type Disk struct {
	params Params

	// Geometry constants hoisted out of the per-access cost math at New:
	// the rotation period (one division off every rotational-delay
	// computation) and the float conversions of the seek curve. The
	// per-access arithmetic keeps the exact operation order of the
	// original formulas, so hoisting changes nothing bit for bit.
	rotDur   time.Duration // one full revolution
	rotF     float64       // float64(rotDur)
	seekSpan float64       // float64(FullStrokeSeek - TrackToTrackSeek)
	capF     float64       // float64(Capacity)
	trackF   float64       // float64(TrackSize)

	mu        sync.Mutex
	headPos   int64     // current head byte offset
	busyUntil time.Time // completion time of the last accepted request
	stats     Stats
	// flt holds scheduled faults; nil on a healthy disk, so the fault
	// machinery costs the access paths exactly one nil check.
	flt *diskFaults
}

// New returns a disk with the given parameters. It returns an error if the
// parameters are invalid.
func New(p Params) (*Disk, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	d := &Disk{params: p}
	d.rotDur = p.rotation()
	d.rotF = float64(d.rotDur)
	d.seekSpan = float64(p.FullStrokeSeek - p.TrackToTrackSeek)
	d.capF = float64(p.Capacity)
	d.trackF = float64(p.TrackSize)
	return d, nil
}

// MustNew is New for tests and tool wiring where parameters are literals.
func MustNew(p Params) *Disk {
	d, err := New(p)
	if err != nil {
		panic(err)
	}
	return d
}

// Params returns the disk's parameters.
func (d *Disk) Params() Params { return d.params }

// Stats returns a snapshot of the disk's counters.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// seekTime maps a head travel distance (bytes) to a seek duration by
// linear interpolation between track-to-track and full-stroke over the
// square root of the normalized distance — the standard concave seek
// curve. Over uniformly random offset pairs the normalized distance has
// density 2(1-x), so the mean seek is t2t + (8/15)(full - t2t).
func (d *Disk) seekTime(distance int64) time.Duration {
	if distance == 0 {
		return 0
	}
	if distance < 0 {
		distance = -distance
	}
	frac := float64(distance) / d.capF
	if frac > 1 {
		frac = 1
	}
	// sqrt gives the concave shape.
	return d.params.TrackToTrackSeek + time.Duration(d.seekSpan*math.Sqrt(frac))
}

// rotationalDelay returns the deterministic rotational latency for a
// target offset: the angular distance from the head's current rotational
// position to the target sector, derived from byte positions within a
// track.
func (d *Disk) rotationalDelay(from, to int64) time.Duration {
	track := d.params.TrackSize
	fromPos := from % track
	toPos := to % track
	delta := toPos - fromPos
	if delta < 0 {
		delta += track
	}
	return time.Duration(d.rotF * float64(delta) / d.trackF)
}

// transferTime returns the media transfer time for length bytes.
func (d *Disk) transferTime(length int64) time.Duration {
	if length <= 0 {
		return 0
	}
	return time.Duration(float64(length) / d.params.TransferRate * float64(time.Second))
}

// Request identifies one disk access.
type Request struct {
	Offset int64
	Length int64
	Write  bool
}

// clampOffset confines a target offset to the addressable space. It is
// the single clamping rule every cost and head computation goes through.
func (d *Disk) clampOffset(off int64) int64 {
	if off < 0 {
		return 0
	}
	if off >= d.params.Capacity {
		return d.params.Capacity - 1
	}
	return off
}

// headAfter returns the head position after transferring length bytes at
// the (already clamped) offset: the transfer end, clamped so a
// run-off-the-end request parks the head on the last byte. Shared by
// Access, AccessRun, and the cost prediction so the two can never
// disagree about where a boundary request leaves the head.
func (d *Disk) headAfter(off, length int64) int64 {
	head := off + length
	if head >= d.params.Capacity {
		head = d.params.Capacity - 1
	}
	return head
}

// serviceLocked computes the clamped target offset and the service-time
// components a request costs with the head at its current position. It is
// the one copy of the cost arithmetic — Access, AccessRun, ServeBatch,
// and ServiceTime all route through it, so the serving and predicting
// sides can never drift. The caller holds d.mu.
func (d *Disk) serviceLocked(req Request) (off int64, seek, rot, xfer, service time.Duration) {
	off = d.clampOffset(req.Offset)
	seek = d.seekTime(off - d.headPos)
	rot = d.rotationalDelay(d.headPos, off)
	xfer = d.transferTime(req.Length)
	service = d.params.ControllerOverhead + seek + rot + xfer
	return off, seek, rot, xfer, service
}

// accessLocked services one request starting no earlier than now: cost,
// queue wait on the busy horizon, head advance, statistics. The caller
// holds d.mu.
func (d *Disk) accessLocked(now time.Time, req Request) (done time.Time, service time.Duration) {
	off, seek, rot, xfer, service := d.serviceLocked(req)

	start := now
	if d.busyUntil.After(start) {
		d.stats.QueueWaitedTime += d.busyUntil.Sub(start)
		start = d.busyUntil
	}
	if d.flt != nil {
		if pen := d.flt.penaltyAt(start); pen > 0 {
			service += pen
			d.stats.SlowdownTime += pen
		}
	}
	done = start.Add(service)
	d.busyUntil = done
	d.headPos = d.headAfter(off, req.Length)

	if req.Write {
		d.stats.Writes++
		d.stats.BytesWritten += req.Length
	} else {
		d.stats.Reads++
		d.stats.BytesRead += req.Length
	}
	d.stats.SeekTime += seek
	d.stats.RotationTime += rot
	d.stats.TransferTime += xfer
	d.stats.BusyTime += service
	return done, service
}

// Access services req starting no earlier than now and returns the
// completion time and the request's service duration (excluding queue
// wait). Offsets are clamped into the disk; zero-length requests cost only
// controller overhead. Access advances the head.
func (d *Disk) Access(now time.Time, req Request) (done time.Time, service time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.accessLocked(now, req)
}

// ServiceTime returns the service time Access would charge for req with
// the head at its current position, without performing the access. Useful
// for analytic model calibration. It shares serviceLocked with Access, so
// the prediction is exact — including at the capacity boundary, where
// both sides clamp the target offset and the post-transfer head the same
// way.
func (d *Disk) ServiceTime(req Request) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, _, _, _, service := d.serviceLocked(req)
	return service
}

// Run describes a contiguous run of equal-length requests: Count
// requests of Length bytes each, the i'th at Offset + i*Length. The
// buffer cache submits miss fills, eviction write-backs, and write-back
// drains this way — one AccessRun call instead of Count Access calls.
type Run struct {
	// Offset is the first request's byte offset.
	Offset int64
	// Length is the per-request length in bytes.
	Length int64
	// Count is the number of requests.
	Count int64
	// Write marks every request in the run as a write.
	Write bool
	// Chain issues request i+1 at the completion time of request i
	// (a caller advancing its clock between submissions). When false
	// every request is issued at now and queues on the busy horizon;
	// completion and service times are identical either way, only the
	// queue-wait accounting differs.
	Chain bool
}

// AccessRun services r.Count contiguous requests under one lock
// acquisition and returns the last completion time and the summed
// service duration. It performs the same per-request arithmetic in the
// same order as the equivalent sequence of Access calls, so completion
// times, service times, and statistics are bit-identical — pinned by
// TestAccessRunMatchesSequentialAccess. The fast path: once the head is
// at the next request's offset (always, after the first request of a
// contiguous run), seek and rotation are exactly zero and the transfer
// time — a pure function of the constant length — is computed once, so
// steady-state pages cost integer arithmetic only.
func (d *Disk) AccessRun(now time.Time, r Run) (done time.Time, service time.Duration) {
	done = now
	if r.Count <= 0 {
		return done, 0
	}
	d.mu.Lock()
	var (
		t          = now
		off        = r.Offset
		xferCached time.Duration
		haveXfer   bool
		// Locally accumulated statistics, added in one batch at the end.
		// Integer sums are associative, so the batched totals equal the
		// per-request additions of sequential Access calls.
		seekSum, rotSum, xferSum, busySum, waitSum time.Duration
	)
	for i := int64(0); i < r.Count; i++ {
		o := d.clampOffset(off)
		var seek, rot, xfer, svc time.Duration
		if o == d.headPos {
			// Zero head travel: seekTime(0) and a zero rotational delta
			// are exactly 0, and the transfer time depends only on the
			// run's constant length, so the first computation serves the
			// whole run.
			if !haveXfer {
				xferCached = d.transferTime(r.Length)
				haveXfer = true
			}
			xfer = xferCached
			svc = d.params.ControllerOverhead + xfer
		} else {
			_, seek, rot, xfer, svc = d.serviceLocked(Request{Offset: o, Length: r.Length, Write: r.Write})
		}
		start := t
		if d.busyUntil.After(start) {
			waitSum += d.busyUntil.Sub(start)
			start = d.busyUntil
		}
		if d.flt != nil {
			if pen := d.flt.penaltyAt(start); pen > 0 {
				svc += pen
				d.stats.SlowdownTime += pen
			}
		}
		done = start.Add(svc)
		d.busyUntil = done
		d.headPos = d.headAfter(o, r.Length)
		seekSum += seek
		rotSum += rot
		xferSum += xfer
		busySum += svc
		service += svc
		if r.Chain {
			t = done
		}
		off += r.Length
	}
	if r.Write {
		d.stats.Writes += r.Count
		d.stats.BytesWritten += r.Count * r.Length
	} else {
		d.stats.Reads += r.Count
		d.stats.BytesRead += r.Count * r.Length
	}
	d.stats.SeekTime += seekSum
	d.stats.RotationTime += rotSum
	d.stats.TransferTime += xferSum
	d.stats.BusyTime += busySum
	d.stats.QueueWaitedTime += waitSum
	d.mu.Unlock()
	return done, service
}

// Head returns the current head byte offset, the position batch
// scheduling starts from.
func (d *Disk) Head() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.headPos
}

// Reset returns the head to offset 0 and clears the busy horizon and
// statistics.
func (d *Disk) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.headPos = 0
	d.busyUntil = time.Time{}
	d.stats = Stats{}
}
