package netsim

import (
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Unix(0, 0)

func TestParamsValidate(t *testing.T) {
	if err := LANParams().Validate(); err != nil {
		t.Fatalf("LAN params invalid: %v", err)
	}
	if err := WANParams().Validate(); err != nil {
		t.Fatalf("WAN params invalid: %v", err)
	}
	bad := []Params{
		{Latency: -1, Bandwidth: 1},
		{Latency: 0, Bandwidth: 0},
		{Latency: 0, Bandwidth: 1, PerMessageCPU: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, p)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, LANParams()); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := New(4, Params{Bandwidth: -1}); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestMessageCostComponents(t *testing.T) {
	p := LANParams()
	zero := p.MessageCost(0)
	big := p.MessageCost(100 << 20) // 1 second of transfer at 100 MB/s
	if zero != p.PerMessageCPU+p.Latency {
		t.Fatalf("zero-byte cost = %v", zero)
	}
	if big-zero < 900*time.Millisecond {
		t.Fatalf("transfer term missing: %v", big)
	}
}

func TestSendDelivery(t *testing.T) {
	nw := MustNew(4, LANParams())
	done, err := nw.Send(t0, 0, 1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	want := LANParams().MessageCost(1 << 20)
	if got := done.Sub(t0); got != want {
		t.Fatalf("delivery %v, want %v", got, want)
	}
}

func TestSendSelfIsCheap(t *testing.T) {
	nw := MustNew(2, LANParams())
	done, err := nw.Send(t0, 1, 1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if got := done.Sub(t0); got != LANParams().PerMessageCPU {
		t.Fatalf("self-send cost %v, want software overhead only", got)
	}
}

func TestSendBoundsChecked(t *testing.T) {
	nw := MustNew(2, LANParams())
	if _, err := nw.Send(t0, -1, 0, 1); err == nil {
		t.Error("negative src accepted")
	}
	if _, err := nw.Send(t0, 0, 5, 1); err == nil {
		t.Error("out-of-range dst accepted")
	}
	if _, err := nw.Send(t0, 0, 1, -1); err == nil {
		t.Error("negative size accepted")
	}
}

func TestNICSerializesSends(t *testing.T) {
	nw := MustNew(3, LANParams())
	d1, _ := nw.Send(t0, 0, 1, 1<<20)
	d2, _ := nw.Send(t0, 0, 2, 1<<20) // same source: must queue
	if !d2.After(d1) {
		t.Fatalf("second send from same NIC not serialized: %v vs %v", d2, d1)
	}
	// Different sources do not queue on each other.
	nw2 := MustNew(3, LANParams())
	e1, _ := nw2.Send(t0, 0, 2, 1<<20)
	e2, _ := nw2.Send(t0, 1, 2, 1<<20)
	if !e1.Equal(e2) {
		t.Fatalf("independent NICs interfered: %v vs %v", e1, e2)
	}
}

func TestStatsAccumulate(t *testing.T) {
	nw := MustNew(4, LANParams())
	nw.Send(t0, 0, 1, 1000)
	nw.Send(t0, 2, 3, 500)
	s := nw.Stats()
	if s.Messages != 2 || s.Bytes != 1500 || s.BusyTime != LANParams().MessageCost(1000)+LANParams().MessageCost(500) {
		t.Fatalf("stats = %+v", s)
	}
	nw.Reset()
	if s := nw.Stats(); s.Messages != 0 {
		t.Fatal("reset did not clear stats")
	}
}

func TestWANSlowerThanLAN(t *testing.T) {
	lan := MustNew(2, LANParams())
	wan := MustNew(2, WANParams())
	dl, _ := lan.Send(t0, 0, 1, 1<<20)
	dw, _ := wan.Send(t0, 0, 1, 1<<20)
	if !dw.After(dl) {
		t.Fatalf("WAN %v not slower than LAN %v", dw, dl)
	}
}

func TestSendDeliveryMonotoneProperty(t *testing.T) {
	nw := MustNew(4, LANParams())
	now := t0
	f := func(src, dst uint8, size uint16) bool {
		done, err := nw.Send(now, int(src)%4, int(dst)%4, int64(size))
		if err != nil {
			return false
		}
		return !done.Before(now)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
