package fsim

// The differential data oracle: a map from name to bytes — no timing,
// no cache, no devices — is the trivially-correct reference, and random
// create/write/seek/read/stat/remove sequences across four sessions run
// against it and a FileStore side by side: healthy, degraded (RAID5 with
// a dead member) and under op-level injection with retries. Whatever the
// simulated timing, every byte read must be the reference's, and a
// failed operation must be an injected *FaultError that left the
// namespace and every file's contents as the reference has them.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/simdisk"
)

var oracleNames = []string{"a", "b", "c", "d", "e", "dir/f"}

// refHandle is one session's open handle: the file it names and the
// position the reference expects it at.
type refHandle struct {
	name string
	pos  int64
	f    File
}

type oracle struct {
	t     *testing.T
	rng   *rand.Rand
	store *FileStore
	sess  []*Session
	h     []*refHandle // per session; nil while it holds none
	ref   map[string][]byte

	failed int   // operations injection failed
	read   int64 // bytes compared against the reference
}

// step runs one random operation on a random session. A file is open on
// at most one handle and is neither created nor removed while open, so
// the reference never has to model the store's stale-handle rules.
func (o *oracle) step() {
	i := o.rng.IntN(len(o.sess))
	if h := o.h[i]; h != nil {
		switch r := o.rng.IntN(10); {
		case r < 4:
			o.readOp(h)
		case r < 7:
			o.writeOp(h)
		case r < 9:
			o.seekOp(h)
		default:
			if _, err := h.f.Close(); err != nil {
				o.t.Fatalf("close %s: %v", h.name, err)
			}
			o.h[i] = nil
		}
		return
	}
	name := oracleNames[o.rng.IntN(len(oracleNames))]
	if slices.ContainsFunc(o.h, func(h *refHandle) bool { return h != nil && h.name == name }) {
		return
	}
	sess := o.sess[i]
	_, exists := o.ref[name]
	switch r := o.rng.IntN(10); {
	case r < 4:
		f, _, err := sess.Open(name)
		if o.missing(exists, err, "open "+name) || o.injected(err, "open "+name) {
			return
		}
		o.h[i] = &refHandle{name: name, f: f}
	case r < 7:
		data := o.bytes(o.rng.IntN(3 << 12))
		if _, err := sess.Create(name, data); o.injected(err, "create "+name) {
			return
		}
		o.ref[name] = data
	case r < 8:
		_, err := sess.Remove(name)
		if o.missing(exists, err, "remove "+name) || o.injected(err, "remove "+name) {
			return
		}
		delete(o.ref, name)
	default:
		size, _, err := sess.Stat(name)
		if o.missing(exists, err, "stat "+name) || o.injected(err, "stat "+name) {
			return
		}
		if size != int64(len(o.ref[name])) {
			o.t.Fatalf("stat %s = %d bytes, reference holds %d", name, size, len(o.ref[name]))
		}
	}
}

func (o *oracle) readOp(h *refHandle) {
	want := o.ref[h.name]
	p := make([]byte, o.rng.IntN(8192)+1)
	n, _, err := h.f.Read(p)
	if h.pos >= int64(len(want)) {
		if n != 0 || err != io.EOF {
			o.t.Fatalf("read %s at %d past end %d = (%d, %v), want (0, EOF)", h.name, h.pos, len(want), n, err)
		}
		return
	}
	if err != io.EOF && o.injected(err, "read "+h.name) {
		return
	}
	end := min(h.pos+int64(len(p)), int64(len(want)))
	if int64(n) != end-h.pos || (err == io.EOF) != (end-h.pos < int64(len(p))) {
		o.t.Fatalf("read %s at %d of %d bytes = (%d, %v)", h.name, h.pos, len(p), n, err)
	}
	if !bytes.Equal(p[:n], want[h.pos:end]) {
		o.t.Fatalf("read %s at %d: bytes differ from the reference", h.name, h.pos)
	}
	h.pos = end
	o.read += int64(n)
}

func (o *oracle) writeOp(h *refHandle) {
	data := o.bytes(o.rng.IntN(6000) + 1)
	n, _, err := h.f.Write(data)
	if o.injected(err, "write "+h.name) {
		return
	}
	if n != len(data) {
		o.t.Fatalf("write %s wrote %d of %d bytes", h.name, n, len(data))
	}
	cur, end := o.ref[h.name], h.pos+int64(len(data))
	if end > int64(len(cur)) {
		cur = append(cur, make([]byte, end-int64(len(cur)))...)
	}
	copy(cur[h.pos:end], data)
	o.ref[h.name] = cur
	h.pos = end
}

func (o *oracle) seekOp(h *refHandle) {
	size := int64(len(o.ref[h.name]))
	whence := o.rng.IntN(3)
	off, base := o.rng.Int64N(size+4096), int64(0)
	switch whence {
	case io.SeekCurrent:
		off, base = o.rng.Int64N(8192)-4096, h.pos
	case io.SeekEnd:
		off, base = o.rng.Int64N(8192)-4096, size
	}
	pos, _, err := h.f.SeekTo(off, whence)
	if base+off < 0 {
		var fe *FaultError
		if err == nil || errors.As(err, &fe) || pos != h.pos {
			o.t.Fatalf("seek %s to %d = (%d, %v), want a negative-position error at %d", h.name, base+off, pos, err, h.pos)
		}
		return
	}
	if o.injected(err, "seek "+h.name) {
		return
	}
	if pos != base+off {
		o.t.Fatalf("seek %s = %d, want %d", h.name, pos, base+off)
	}
	h.pos = pos
}

// missing reports whether the file is absent from the reference, and
// then requires the store to have said so.
func (o *oracle) missing(exists bool, err error, op string) bool {
	if exists {
		return false
	}
	if !errors.Is(err, fs.ErrNotExist) {
		o.t.Fatalf("%s on a missing file: %v, want fs.ErrNotExist", op, err)
	}
	return true
}

// injected reports whether the store failed the operation. Any failure
// must be an injected *FaultError that moved nothing the reference can
// see.
func (o *oracle) injected(err error, op string) bool {
	if err == nil {
		return false
	}
	var fe *FaultError
	if !errors.As(err, &fe) {
		o.t.Fatalf("%s: %v, want success or an injected *FaultError", op, err)
	}
	o.failed++
	o.verify()
	return true
}

// verify compares the store's namespace and every file's contents with
// the reference, reading on the default session, which never injects.
func (o *oracle) verify() {
	if got, want := o.store.Names(), slices.Sorted(maps.Keys(o.ref)); !slices.Equal(got, want) {
		o.t.Fatalf("namespace %v, reference %v", got, want)
	}
	for name, want := range o.ref {
		f, _, err := o.store.Open(name)
		if err != nil {
			o.t.Fatal(err)
		}
		got := make([]byte, len(want)+1)
		n, _, _ := f.Read(got)
		f.Close()
		if !bytes.Equal(got[:n], want) {
			o.t.Fatalf("%s holds %d bytes differing from the reference's %d", name, n, len(want))
		}
	}
}

func (o *oracle) bytes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(o.rng.Uint32())
	}
	return b
}

func TestDifferentialOracle(t *testing.T) {
	dead, err := simdisk.ParseFaultPlan("fail:1@0s")
	if err != nil {
		t.Fatal(err)
	}
	for _, setup := range []struct {
		name   string
		config func(*Config)
	}{
		{"healthy", func(*Config) {}},
		{"raid5-dead-member", func(c *Config) {
			c.Disks, c.RAIDLevel, c.Faults = 4, simdisk.RAID5, dead
		}},
		{"inject-retry", func(c *Config) {
			c.Inject = InjectSpec{Rate: 4, Permanent: 3}
			c.Retry = RetryPolicy{Max: 2}
		}},
	} {
		for _, seed := range []uint64{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/seed=%d", setup.name, seed), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Cache.NumPages = 64 // evictions, misses and write-backs engage
				setup.config(&cfg)
				store := MustNewFileStore(cfg)
				defer store.Close()
				o := &oracle{t: t, rng: rand.New(rand.NewPCG(seed, 0)), store: store,
					h: make([]*refHandle, 4), ref: map[string][]byte{}}
				for range o.h {
					sess := store.NewSession()
					defer sess.Release()
					o.sess = append(o.sess, sess)
				}
				for range 3000 {
					o.step()
				}
				for _, h := range o.h {
					if h != nil {
						h.f.Close()
					}
				}
				o.verify()
				if o.read == 0 {
					t.Fatal("no bytes read; the comparison is vacuous")
				}
				if injecting := cfg.Inject.Enabled(); injecting != (o.failed > 0) {
					t.Fatalf("%d operations failed with injection %v", o.failed, injecting)
				}
				if cfg.Faults != nil && store.TotalDiskStats().ReconstructReads == 0 {
					t.Fatal("the dead member was never reconstructed around; the degraded setup is vacuous")
				}
			})
		}
	}
}
