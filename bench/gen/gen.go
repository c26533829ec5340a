// Package gen is the benchmark's seeded trace generator. Unlike
// tracegen.Parallel, which emits one PID's records after another's (so
// a streamed replay runs its workers one at a time), it interleaves the
// PIDs round-robin: every worker of `tracebench -stream` has records
// queued at once, which is the shape the per-record channel hop and the
// shared disk queue are contended under.
package gen

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"repro/internal/trace"
)

// OpSize is the length of every generated read and write: the 64 KiB
// request the paper's parallel traces issue.
const OpSize = 64 << 10

// SampleFile is the file name every generated trace replays against.
const SampleFile = "sample.dat"

// Spec describes one generated trace. The same Spec and seed always
// produce the same bytes.
type Spec struct {
	// Records is the total record count: one open and one close per PID
	// plus the data operations, dealt to the PIDs round-robin.
	Records int
	// PIDs is the number of traced processes; each owns the region
	// [pid*FileSize/PIDs, (pid+1)*FileSize/PIDs) of the sample file.
	PIDs int
	// FileSize is the sample file's size in bytes.
	FileSize int64
	// WritePct is the share of data operations that are writes.
	WritePct int
	// JumpPct is the share of data operations that first jump to a
	// random 64 KiB-aligned offset inside the PID's region instead of
	// continuing sequentially. The jumps are evenly spaced — each PID
	// jumps on every (100/JumpPct)th of its operations, from a seeded
	// phase — so the seed chooses where jumps land, not how many a lane
	// gets: a replay's elapsed time is its slowest lane's, and on a
	// short trace a lane's jump count would otherwise move it by
	// several percent from seed to seed.
	JumpPct int
}

// Validate reports the first problem with the spec, or nil.
func (s Spec) Validate() error {
	switch {
	case s.PIDs < 1:
		return fmt.Errorf("gen: need at least one PID, got %d", s.PIDs)
	case s.Records < 3*s.PIDs:
		return fmt.Errorf("gen: %d records cannot hold open, one op and close for %d PIDs", s.Records, s.PIDs)
	case s.FileSize/int64(s.PIDs) < OpSize:
		return fmt.Errorf("gen: %d-byte file leaves a PID less than one %d-byte op", s.FileSize, OpSize)
	case s.WritePct < 0 || s.WritePct > 100 || s.JumpPct < 0 || s.JumpPct > 100:
		return fmt.Errorf("gen: percentages must be in [0,100]")
	}
	return nil
}

// Rand is xorshift64*, the generator every benchmark input is drawn
// from. The splitmix step in NewRand keeps seed 0 (and neighbouring
// small seeds) away from the all-zero state and from each other's
// streams.
type Rand uint64

// NewRand returns the stream for seed.
func NewRand(seed uint64) Rand {
	z := seed + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return Rand(z)
}

// Next returns the next 64 bits of the stream.
func (r *Rand) Next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = Rand(x)
	return x * 0x2545F4914F6CDD1D
}

// pct reports true with probability p/100.
func (r *Rand) pct(p int) bool { return int(r.Next()>>33%100) < p }

// Each calls emit for every record of the trace in file order. The
// record pointer is reused between calls.
func Each(spec Spec, seed uint64, emit func(*trace.Record) error) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	r := NewRand(seed)
	slots := spec.FileSize / int64(spec.PIDs) / OpSize // 64 KiB slots per region
	region := spec.FileSize / int64(spec.PIDs)
	pos := make([]int64, spec.PIDs) // next sequential slot per PID
	period := 0                     // a PID's operations per jump
	if spec.JumpPct > 0 {
		period = 100 / spec.JumpPct
	}
	untilJump := make([]int, spec.PIDs)
	for pid := range untilJump {
		if period > 0 {
			untilJump[pid] = int(r.Next() % uint64(period))
		}
	}
	var rec trace.Record
	wall := int64(0)
	put := func(op trace.Op, pid int, off, length int64) error {
		rec = trace.Record{Op: op, Count: 1, PID: uint32(pid), WallClock: wall, Offset: off, Length: length}
		wall += 500
		return emit(&rec)
	}
	for pid := 0; pid < spec.PIDs; pid++ {
		if err := put(trace.OpOpen, pid, 0, 0); err != nil {
			return err
		}
	}
	ops := spec.Records - 2*spec.PIDs
	for i := 0; i < ops; i++ {
		pid := i % spec.PIDs
		if period > 0 {
			if untilJump[pid] == 0 {
				pos[pid] = int64(r.Next() % uint64(slots))
				untilJump[pid] = period
			}
			untilJump[pid]--
		}
		op := trace.OpRead
		if r.pct(spec.WritePct) {
			op = trace.OpWrite
		}
		off := int64(pid)*region + pos[pid]*OpSize
		pos[pid] = (pos[pid] + 1) % slots
		if err := put(op, pid, off, OpSize); err != nil {
			return err
		}
	}
	for pid := 0; pid < spec.PIDs; pid++ {
		if err := put(trace.OpClose, pid, 0, 0); err != nil {
			return err
		}
	}
	return nil
}

// Encode writes the trace to w in UMDT v2 through trace.NewEncoder.
func Encode(w io.Writer, spec Spec, seed uint64) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	enc, err := trace.NewEncoder(w, trace.Header{
		NumProcesses: uint32(spec.PIDs),
		NumFiles:     1,
		NumRecords:   uint32(spec.Records),
		SampleFile:   SampleFile,
	})
	if err != nil {
		return err
	}
	if err := Each(spec, seed, enc.Append); err != nil {
		return err
	}
	return enc.Close()
}

// WriteFile encodes the trace into path, replacing any previous file.
func WriteFile(path string, spec Spec, seed uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	err = Encode(bw, spec, seed)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
