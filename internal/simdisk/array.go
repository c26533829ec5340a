package simdisk

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Array stripes a logical address space across N identical disks (RAID-0
// style), the configuration swept by the paper's Figure 4 disk-scaling
// experiment. A logical request is split at stripe-unit boundaries, the
// pieces are issued to their disks concurrently, and the array completes
// when the slowest piece completes.
type Array struct {
	disks      []*Disk
	stripeUnit int64
	level      Level
	// head is the logical offset the last request ended at, the position
	// ServeBatch schedules its next batch from. Member disks keep their
	// own physical heads; this one orders logical queues.
	head atomic.Int64
}

// NewArray builds an array of n disks with parameters p and the given
// stripe unit in bytes.
func NewArray(n int, stripeUnit int64, p Params) (*Array, error) {
	if n <= 0 {
		return nil, fmt.Errorf("simdisk: array needs at least 1 disk, got %d", n)
	}
	if stripeUnit <= 0 {
		return nil, fmt.Errorf("simdisk: stripe unit %d must be positive", stripeUnit)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	a := &Array{stripeUnit: stripeUnit}
	for i := 0; i < n; i++ {
		a.disks = append(a.disks, MustNew(p))
	}
	return a, nil
}

// MustNewArray is NewArray that panics on error, for literal wiring.
func MustNewArray(n int, stripeUnit int64, p Params) *Array {
	a, err := NewArray(n, stripeUnit, p)
	if err != nil {
		panic(err)
	}
	return a
}

// NumDisks returns the number of member disks.
func (a *Array) NumDisks() int { return len(a.disks) }

// StripeUnit returns the stripe unit in bytes.
func (a *Array) StripeUnit() int64 { return a.stripeUnit }

// Disk returns member disk i (for stats inspection).
func (a *Array) Disk(i int) *Disk { return a.disks[i] }

// Capacity returns the logical capacity after redundancy overhead: all
// members for RAID-0, one member for RAID-1, n-1 members for RAID-5.
func (a *Array) Capacity() int64 { return a.usableCapacity() }

// Map translates a logical byte offset to (disk index, physical offset).
// The mapping is the usual striping bijection: stripe s lives on disk
// s mod N at physical stripe s div N.
func (a *Array) Map(logical int64) (disk int, physical int64) {
	if logical < 0 {
		logical = 0
	}
	stripe := logical / a.stripeUnit
	within := logical % a.stripeUnit
	disk = int(stripe % int64(len(a.disks)))
	physical = (stripe/int64(len(a.disks)))*a.stripeUnit + within
	return disk, physical
}

// Unmap is the inverse of Map, reconstructing the logical offset from a
// (disk, physical) pair. Together with Map it witnesses that striping is a
// bijection — a property test pins this down.
func (a *Array) Unmap(disk int, physical int64) int64 {
	stripeOnDisk := physical / a.stripeUnit
	within := physical % a.stripeUnit
	stripe := stripeOnDisk*int64(len(a.disks)) + int64(disk)
	return stripe*a.stripeUnit + within
}

// Access services a logical request starting no earlier than now,
// routing it according to the array's level. It returns the completion
// time and the elapsed duration from now to that completion.
func (a *Array) Access(now time.Time, req Request) (done time.Time, elapsed time.Duration) {
	done = a.accessLeveled(now, req)
	a.head.Store(req.Offset + req.Length)
	return done, done.Sub(now)
}

// Head returns the logical offset batch scheduling starts from.
func (a *Array) Head() int64 { return a.head.Load() }

// AccessRun services r.Count contiguous equal-length logical requests,
// bit-identical to the equivalent sequence of Access calls (pinned by
// TestArrayAccessRunMatchesSequentialAccess). On a RAID-0 array whose
// requests each lie within one stripe unit, maximal same-disk contiguous
// groups are forwarded to the member disk's AccessRun — one member lock
// acquisition per group instead of one per page; other layouts and
// levels fall back to per-request routing. It returns the last
// completion time and the elapsed duration from now to it, matching
// Access's elapsed semantics.
func (a *Array) AccessRun(now time.Time, r Run) (done time.Time, elapsed time.Duration) {
	done = now
	if r.Count <= 0 {
		return done, 0
	}
	t := now
	if a.level == RAID0 && r.Length > 0 {
		var (
			groupDisk  int
			groupPhys  int64
			groupCount int64
			prevPhys   int64
		)
		flush := func() {
			if groupCount == 0 {
				return
			}
			done, _ = a.disks[groupDisk].AccessRun(t, Run{
				Offset: groupPhys, Length: r.Length, Count: groupCount,
				Write: r.Write, Chain: r.Chain,
			})
			if r.Chain {
				t = done
			}
			groupCount = 0
		}
		off := r.Offset
		for i := int64(0); i < r.Count; i++ {
			if off%a.stripeUnit+r.Length > a.stripeUnit {
				// Straddles a stripe boundary: flush the group and route
				// this request through the general splitter.
				flush()
				done = a.accessLeveled(t, Request{Offset: off, Length: r.Length, Write: r.Write})
				if r.Chain {
					t = done
				}
				off += r.Length
				continue
			}
			disk, phys := a.Map(off)
			if groupCount > 0 && (disk != groupDisk || phys != prevPhys+r.Length) {
				flush()
			}
			if groupCount == 0 {
				groupDisk, groupPhys = disk, phys
			}
			groupCount++
			prevPhys = phys
			off += r.Length
		}
		flush()
	} else {
		off := r.Offset
		for i := int64(0); i < r.Count; i++ {
			done = a.accessLeveled(t, Request{Offset: off, Length: r.Length, Write: r.Write})
			if r.Chain {
				t = done
			}
			off += r.Length
		}
	}
	a.head.Store(r.Offset + r.Count*r.Length)
	return done, done.Sub(now)
}

// ServeBatch services a queue of simultaneously pending logical
// requests in the order chosen by policy, starting no earlier than now.
// Requests are ordered by logical offset from the array's logical head
// (the elevator runs above the striping layer, as an OS request queue
// does), then issued through Access so each piece queues on its member
// disk's busy horizon — command queueing across the whole array. It
// returns per-request results in submission order plus the batch
// completion time.
func (a *Array) ServeBatch(now time.Time, reqs []Request, policy SchedPolicy) ([]BatchResult, time.Time) {
	return serveInOrder(now, reqs, scheduleOrder(a.Head(), reqs, policy), a.Access)
}

// accessStriped is the RAID-0 path: the request is split at stripe
// boundaries and the pieces are issued to their member disks
// concurrently.
func (a *Array) accessStriped(now time.Time, req Request) (done time.Time, elapsed time.Duration) {
	if req.Length <= 0 {
		// Pure positioning: charge the owning disk only.
		disk, phys := a.Map(req.Offset)
		done, _ = a.disks[disk].Access(now, Request{Offset: phys, Length: 0, Write: req.Write})
		return done, done.Sub(now)
	}
	done = now
	off := req.Offset
	remaining := req.Length
	for remaining > 0 {
		disk, phys := a.Map(off)
		// Length of this piece: up to the next stripe boundary.
		pieceLen := a.stripeUnit - off%a.stripeUnit
		if pieceLen > remaining {
			pieceLen = remaining
		}
		// Coalesce consecutive stripes that land on the same disk when the
		// array has one member (the degenerate case), otherwise issue per
		// stripe piece.
		pieceDone, _ := a.disks[disk].Access(now, Request{Offset: phys, Length: pieceLen, Write: req.Write})
		if pieceDone.After(done) {
			done = pieceDone
		}
		off += pieceLen
		remaining -= pieceLen
	}
	return done, done.Sub(now)
}

// Reset resets every member disk and the logical head.
func (a *Array) Reset() {
	for _, d := range a.disks {
		d.Reset()
	}
	a.head.Store(0)
}

// TotalStats sums the member disks' statistics.
func (a *Array) TotalStats() Stats {
	var total Stats
	for _, d := range a.disks {
		total.Add(d.Stats())
	}
	return total
}
