package fsim

import (
	"errors"
	"io"
	"testing"
)

// TestFaultFileOperationsFail pins the injection gate on handle
// operations: with every roll firing and no retries, read, seek and
// write on a session's handle each fail with a *FaultError naming the
// op, leave the handle position and the file contents alone, and close
// still succeeds.
func TestFaultFileOperationsFail(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Inject = InjectSpec{Seed: 1, Rate: 1, Ops: MaskOf(OpRead, OpWrite, OpSeek)}
	store := MustNewFileStore(cfg)
	defer store.Close()
	if _, err := store.Create("f", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	sess := store.NewSession()
	defer sess.Release()
	f, _, err := sess.Open("f") // open is not targeted
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		op OpKind
		do func() error
	}{
		{OpRead, func() error { _, _, err := f.Read(make([]byte, 5)); return err }},
		{OpSeek, func() error { _, _, err := f.SeekTo(2, io.SeekStart); return err }},
		{OpWrite, func() error { _, _, err := f.Write([]byte("x")); return err }},
	} {
		err := tc.do()
		var fe *FaultError
		if !errors.As(err, &fe) || fe.Op != tc.op || !errors.Is(err, ErrInjected) {
			t.Fatalf("%s err = %v, want an injected *FaultError on %s", tc.op, err, tc.op)
		}
	}
	if _, err := f.Close(); err != nil { // close never injects
		t.Fatal(err)
	}
	g, _, err := store.Open("f") // the default session never injects
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if n, _, _ := g.Read(buf); string(buf[:n]) != "hello" {
		t.Fatalf("contents after failed ops = %q, want %q", buf[:n], "hello")
	}
}

func TestRemoveFileStore(t *testing.T) {
	s := MustNewFileStore(DefaultConfig())
	s.Create("victim", []byte("data"))
	dur, err := s.Remove("victim")
	if err != nil {
		t.Fatal(err)
	}
	if dur <= 0 {
		t.Fatal("remove cost nothing")
	}
	if s.Exists("victim") {
		t.Fatal("file survived Remove")
	}
	if _, err := s.Remove("victim"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("second remove err = %v", err)
	}
}

func TestRemoveOSStore(t *testing.T) {
	s := newOSStore(t)
	s.Create("victim", []byte("data"))
	if _, err := s.Remove("victim"); err != nil {
		t.Fatal(err)
	}
	if s.Exists("victim") {
		t.Fatal("file survived Remove")
	}
	if _, err := s.Remove("victim"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("second remove err = %v", err)
	}
}
