package gen

import (
	"bytes"
	"testing"

	"repro/internal/trace"
)

var testSpec = Spec{Records: 10000, PIDs: 4, FileSize: 32 << 20, WritePct: 11, JumpPct: 2}

func encode(t *testing.T, spec Spec, seed uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, spec, seed); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSeedDeterminesBytes(t *testing.T) {
	a, b := encode(t, testSpec, 1), encode(t, testSpec, 1)
	if !bytes.Equal(a, b) {
		t.Error("one seed gave two different files")
	}
	if bytes.Equal(a, encode(t, testSpec, 2)) {
		t.Error("seeds 1 and 2 gave the same file")
	}
}

func TestScannerCountsEveryRecord(t *testing.T) {
	sc, err := trace.NewScanner(bytes.NewReader(encode(t, testSpec, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.Header().SampleFile; got != SampleFile {
		t.Errorf("sample file %q, want %q", got, SampleFile)
	}
	region := testSpec.FileSize / int64(testSpec.PIDs)
	writes, data := 0, 0
	for sc.Next() {
		rec := sc.Record()
		if rec.Op != trace.OpRead && rec.Op != trace.OpWrite {
			continue
		}
		// Data operations are dealt round-robin and stay in their PID's region.
		if want := uint32(data % testSpec.PIDs); rec.PID != want {
			t.Fatalf("data op %d: pid %d, want %d (round-robin)", data, rec.PID, want)
		}
		if lo := int64(rec.PID) * region; rec.Offset < lo || rec.Offset+rec.Length > lo+region {
			t.Fatalf("data op %d: [%d,+%d) leaves pid %d's region", data, rec.Offset, rec.Length, rec.PID)
		}
		if rec.Op == trace.OpWrite {
			writes++
		}
		data++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if sc.Count() != int64(testSpec.Records) {
		t.Errorf("scanner counted %d records, want %d", sc.Count(), testSpec.Records)
	}
	if share := 100 * writes / data; share < 8 || share > 14 {
		t.Errorf("write share %d%%, want about %d%%", share, testSpec.WritePct)
	}
}

func TestValidateRejectsImpossibleSpecs(t *testing.T) {
	for _, spec := range []Spec{
		{Records: 100, PIDs: 0, FileSize: 1 << 20},
		{Records: 5, PIDs: 4, FileSize: 1 << 20},
		{Records: 100, PIDs: 4, FileSize: OpSize},
		{Records: 100, PIDs: 1, FileSize: 1 << 20, WritePct: 101},
	} {
		if err := Encode(&bytes.Buffer{}, spec, 1); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
}
