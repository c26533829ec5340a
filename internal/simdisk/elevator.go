package simdisk

import (
	"fmt"
	"slices"
	"sort"
)

// Elevator is the pending set SSTF and SCAN pick from, kept sorted by
// (offset, FCFS order). It is the one implementation of both policies:
// ServeBatch runs it over a batch whose requests all arrived at once,
// and the shared disk queue (package sharedq) feeds it entries as they
// arrive. Pick applies these rules:
//
//   - SSTF serves the nearest offset on either side of the head; a seek
//     tie goes to the FCFS-earlier entry.
//   - SCAN keeps its sweep direction across picks. Sweeping up it serves
//     the nearest offset at or past the head; sweeping down it serves the
//     head's own offset first, then the nearest offset below. It turns
//     when the side it sweeps toward is empty.
//   - Among entries at one offset, the FCFS-earliest is served first.
//
// Every choice bottoms out in the FCFS order, a total order, so the
// sequence of picks is a pure function of the inserts and heads.
//
// The set is a gap buffer whose gap sits at the head: entries below the
// last head fill buf[:lo], entries at or past it fill buf[hi:]. A pick
// takes an entry beside the gap, so a pick near the previous one is
// O(1), and moving the gap to a new head moves only the entries the head
// passed over. Gap slots hold the zero T, so a served entry is not
// kept alive.
type Elevator[T any] struct {
	scan   bool // SCAN, else SSTF
	up     bool // SCAN's sweep direction
	offset func(T) int64
	before func(a, b T) bool
	buf    []T
	lo, hi int
}

// NewElevator returns an empty elevator for policy, which must be SSTF
// or SCAN. offset gives an entry's device offset and before the FCFS
// order between two entries. SCAN starts sweeping up.
func NewElevator[T any](policy SchedPolicy, offset func(T) int64, before func(a, b T) bool) *Elevator[T] {
	if policy != SSTF && policy != SCAN {
		panic(fmt.Sprintf("simdisk: no elevator for policy %v", policy))
	}
	return &Elevator[T]{scan: policy == SCAN, up: true, offset: offset, before: before}
}

// Len returns the number of pending entries. A nil elevator is empty.
func (e *Elevator[T]) Len() int {
	if e == nil {
		return 0
	}
	return e.lo + len(e.buf) - e.hi
}

// Pending returns a copy of the pending entries in (offset, FCFS) order.
func (e *Elevator[T]) Pending() []T {
	return append(slices.Clone(e.buf[:e.lo]), e.buf[e.hi:]...)
}

// less is the set's order: offset, then FCFS.
func (e *Elevator[T]) less(a, b T) bool {
	if oa, ob := e.offset(a), e.offset(b); oa != ob {
		return oa < ob
	}
	return e.before(a, b)
}

// Insert adds x to the pending set. Entries that sort next to the gap
// (every insert of an ascending sequence) cost O(1); others shift the
// entries between their place and the gap.
func (e *Elevator[T]) Insert(x T) {
	if e.lo == e.hi {
		e.grow()
	}
	switch {
	case e.lo > 0 && e.less(x, e.buf[e.lo-1]):
		i := sort.Search(e.lo, func(i int) bool { return !e.less(e.buf[i], x) })
		copy(e.buf[i+1:e.lo+1], e.buf[i:e.lo])
		e.buf[i] = x
		e.lo++
	case e.hi < len(e.buf) && e.less(e.buf[e.hi], x):
		i := e.hi + sort.Search(len(e.buf)-e.hi, func(i int) bool { return !e.less(e.buf[e.hi+i], x) })
		copy(e.buf[e.hi-1:i-1], e.buf[e.hi:i])
		e.buf[i-1] = x
		e.hi--
	default:
		e.buf[e.lo] = x
		e.lo++
	}
}

// fill replaces the pending set with sorted, which must be in
// (offset, FCFS) order; the elevator takes ownership of it.
func (e *Elevator[T]) fill(sorted []T) {
	e.buf, e.lo, e.hi = sorted, 0, 0
}

// grow doubles the buffer, keeping the entries on their sides of the gap.
func (e *Elevator[T]) grow() {
	buf := make([]T, 2*len(e.buf)+16)
	copy(buf, e.buf[:e.lo])
	top := len(e.buf) - e.hi
	copy(buf[len(buf)-top:], e.buf[e.hi:])
	e.buf, e.hi = buf, len(buf)-top
}

// Pick removes and returns the entry to serve with the head at head.
// The elevator must not be empty.
func (e *Elevator[T]) Pick(head int64) T {
	e.moveGap(head)
	takeUp := e.hi < len(e.buf)
	d := -1
	if e.lo > 0 {
		// The down candidate is the FCFS-earliest entry at the nearest
		// offset below the head: the start of the last group below the gap.
		below := e.offset(e.buf[e.lo-1])
		d = sort.Search(e.lo, func(i int) bool { return e.offset(e.buf[i]) >= below })
	}
	if takeUp && d >= 0 {
		u := e.buf[e.hi]
		du, dd := e.offset(u)-head, head-e.offset(e.buf[d])
		if e.scan {
			takeUp = e.up || du == 0
		} else {
			takeUp = du < dd || du == dd && e.before(u, e.buf[d])
		}
	}
	var x, zero T
	if takeUp {
		x = e.buf[e.hi]
		e.buf[e.hi] = zero
		e.hi++
	} else {
		x = e.buf[d]
		copy(e.buf[d:], e.buf[d+1:e.lo])
		e.lo--
		e.buf[e.lo] = zero
	}
	if off := e.offset(x); off != head {
		e.up = off > head
	}
	return x
}

// moveGap moves the gap to head: entries at offsets below head end up in
// buf[:lo], the rest in buf[hi:].
func (e *Elevator[T]) moveGap(head int64) {
	if e.lo > 0 && e.offset(e.buf[e.lo-1]) >= head {
		n := e.lo - sort.Search(e.lo, func(i int) bool { return e.offset(e.buf[i]) >= head })
		copy(e.buf[e.hi-n:e.hi], e.buf[e.lo-n:e.lo])
		clear(e.buf[e.lo-n : min(e.lo, e.hi-n)])
		e.lo, e.hi = e.lo-n, e.hi-n
	} else if e.hi < len(e.buf) && e.offset(e.buf[e.hi]) < head {
		n := sort.Search(len(e.buf)-e.hi, func(i int) bool { return e.offset(e.buf[e.hi+i]) >= head })
		copy(e.buf[e.lo:e.lo+n], e.buf[e.hi:e.hi+n])
		clear(e.buf[max(e.hi, e.lo+n) : e.hi+n])
		e.lo, e.hi = e.lo+n, e.hi+n
	}
}
