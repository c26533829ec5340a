package simdisk

import (
	"fmt"
	"math/rand"
	"testing"
)

// item is one elevator entry in the differential: an offset, the length
// the head travels when it is served, and an FCFS rank unrelated to the
// order of insertion.
type item struct {
	off, length int64
	rank        int
}

// refElevator is the linear-scan reference: it rescans every pending
// entry on each pick and keeps its own SCAN direction.
type refElevator struct {
	scan, up bool
	items    []item
}

// better reports whether a should be served before b with the head at
// head.
func (r *refElevator) better(a, b item, head int64) bool {
	if r.scan {
		// The side being swept toward, the head's own offset included,
		// comes first; within it the nearest offset, then FCFS.
		ahead := func(x item) bool {
			if r.up {
				return x.off >= head
			}
			return x.off <= head
		}
		if ahead(a) != ahead(b) {
			return ahead(a)
		}
	}
	da, db := a.off-head, b.off-head
	if da < 0 {
		da = -da
	}
	if db < 0 {
		db = -db
	}
	if da != db {
		return da < db
	}
	// One offset, or (SSTF only) equally far on both sides.
	return a.rank < b.rank
}

func (r *refElevator) pick(head int64) item {
	best := 0
	for i := 1; i < len(r.items); i++ {
		if r.better(r.items[i], r.items[best], head) {
			best = i
		}
	}
	x := r.items[best]
	r.items = append(r.items[:best], r.items[best+1:]...)
	if x.off > head {
		r.up = true
	} else if x.off < head {
		r.up = false
	}
	return x
}

// checkElevator interprets data as a program of inserts and picks, runs
// it on an Elevator and on the linear-scan reference, and fails at the
// first pick where they differ. Offsets come from a few slots, so
// duplicates and equal distances on both sides of the head are common;
// lengths include zero, and some picks move the head to an arbitrary
// position first (the shared queue's head also moves on inline and batch
// serves).
func checkElevator(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	policy := SSTF
	if data[0]&1 == 1 {
		policy = SCAN
	}
	el := NewElevator(policy, func(x item) int64 { return x.off }, func(a, b item) bool { return a.rank < b.rank })
	ref := &refElevator{scan: policy == SCAN, up: true}
	var head int64
	pick := func(at string) {
		got, want := el.Pick(head), ref.pick(head)
		if got != want {
			t.Fatalf("%v, %s, head %d: elevator %+v, reference %+v", policy, at, head, got, want)
		}
		head = got.off + got.length
	}
	for i := 1; i+2 < len(data); i += 3 {
		op, a, b := data[i], int64(data[i+1]), int(data[i+2])
		switch {
		case op%4 != 0:
			x := item{off: a % 16 * 4, length: a / 16 % 4 * 2, rank: b<<16 | i}
			el.Insert(x)
			ref.items = append(ref.items, x)
		case len(ref.items) > 0:
			if op&4 != 0 {
				head = a % 34 * 2
			}
			pick(fmt.Sprintf("op %d", i))
		}
		if el.Len() != len(ref.items) {
			t.Fatalf("%v: Len %d, reference %d", policy, el.Len(), len(ref.items))
		}
		for _, x := range el.buf[el.lo:el.hi] {
			if x != (item{}) {
				t.Fatalf("%v: gap slot holds %+v", policy, x)
			}
		}
	}
	pending := el.Pending()
	for i := 1; i < len(pending); i++ {
		if x, prev := pending[i], pending[i-1]; x.off < prev.off || x.off == prev.off && x.rank < prev.rank {
			t.Fatalf("%v: Pending lists %+v after %+v", policy, x, prev)
		}
	}
	for len(ref.items) > 0 {
		pick("drain")
	}
}

// TestElevatorMatchesLinearScan drives random interleavings of Insert
// and Pick under SSTF and SCAN against the linear-scan reference.
func TestElevatorMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		data := make([]byte, 1+3*(1+rng.Intn(200)))
		rng.Read(data)
		checkElevator(t, data)
	}
}

// FuzzElevator is TestElevatorMatchesLinearScan over fuzzed programs.
func FuzzElevator(f *testing.F) {
	f.Add([]byte{0, 1, 8, 0, 1, 8, 1, 0, 0, 0})
	f.Add([]byte{1, 1, 8, 0, 1, 40, 1, 4, 20, 0, 1, 0, 2, 0, 0, 0})
	f.Fuzz(checkElevator)
}
