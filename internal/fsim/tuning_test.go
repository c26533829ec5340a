package fsim

import (
	"flag"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/buffercache"
	"repro/internal/simdisk"
)

// TestDefaultConfigIsAValue: nothing a process does — tuning a config,
// building a store from it — changes what DefaultConfig returns.
func TestDefaultConfigIsAValue(t *testing.T) {
	before := DefaultConfig()
	cfg, err := Tuning{Shards: 8, Writeback: 8, DiskQueue: DiskQueueShared, Spares: 2}.Apply(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	MustNewFileStore(cfg).Close()
	if after := DefaultConfig(); !reflect.DeepEqual(before, after) {
		t.Fatalf("DefaultConfig changed:\n%+v\n%+v", before, after)
	}
	if c := DefaultConfig(); c.Cache.Shards != 1 || c.Cache.WritebackThreshold != 0 || c.DiskQueue != DiskQueuePrivate ||
		c.Faults != nil || c.Inject != (InjectSpec{}) || c.Retry != (RetryPolicy{}) || c.Spares != 0 {
		t.Fatalf("DefaultConfig is not the paper's configuration: %+v", c)
	}
}

func TestTuningApply(t *testing.T) {
	base := DefaultConfig()
	base.Disks, base.RAIDLevel, base.Spares = 3, simdisk.RAID1, 2
	if got, err := (Tuning{}).Apply(base); err != nil || !reflect.DeepEqual(got, base) {
		t.Fatalf("zero Tuning changed the base (err %v):\n%+v\n%+v", err, base, got)
	}

	plan := &simdisk.FaultPlan{Faults: []simdisk.Fault{{Disk: 1, Kind: simdisk.FaultDevice}}}
	full := Tuning{
		Shards: 8, Writeback: 16, WritebackBatch: 4, WritebackHighwater: 64,
		SchedPolicy: simdisk.SCAN, DiskQueue: DiskQueueShared,
		Disks: 4, RAIDLevel: simdisk.RAID5, Faults: plan,
		Inject: InjectSpec{Seed: 7, Rate: 40}, Retry: RetryPolicy{Max: 3, Base: 50 * time.Microsecond},
		Spares: 1,
	}
	got, err := full.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	want := base
	want.Cache.Shards, want.Cache.WritebackThreshold, want.Cache.WritebackBatch = 8, 16, 4
	want.Cache.WritebackHighwater, want.Cache.WritebackPolicy = 64, simdisk.SCAN
	want.DiskQueue, want.Disks, want.RAIDLevel, want.Faults = DiskQueueShared, 4, simdisk.RAID5, plan
	want.Inject, want.Retry, want.Spares = full.Inject, full.Retry, 1
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Apply:\n got %+v\nwant %+v", got, want)
	}

	// The rules are Config.Validate's, whatever the base.
	for name, bad := range map[string]Tuning{
		"shards not a power of two":     {Shards: 3},
		"high-water without write-back": {WritebackHighwater: 4},
		"negative write-back":           {Writeback: -1},
		"negative spares":               {Spares: -1},
		"no disks":                      {Disks: -1},
		"fault on a missing disk":       {Faults: &simdisk.FaultPlan{Faults: []simdisk.Fault{{Disk: 9, Kind: simdisk.FaultDevice}}}},
		"bad retry":                     {Retry: RetryPolicy{Max: -1}},
	} {
		if _, err := bad.Apply(base); err == nil {
			t.Errorf("%s: applied", name)
		}
	}
}

func TestRegisterFlags(t *testing.T) {
	parse := func(names []string, args ...string) (Tuning, error) {
		var tune Tuning
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		tune.RegisterFlags(fs, names...)
		return tune, fs.Parse(args)
	}
	var all []string
	for name := range tuningFlags {
		all = append(all, name)
	}

	tune, err := parse(all)
	if err != nil || !reflect.DeepEqual(tune, Tuning{}) {
		t.Fatalf("no flags = %+v, %v; want the zero Tuning", tune, err)
	}
	tune, err = parse(all, "-shards", "8", "-writeback", "16", "-writeback-batch", "4", "-writeback-highwater", "64",
		"-sched", "sstf", "-disk-queue", "shared", "-disks", "4", "-raid", "raid5", "-faults", "fail:1@0s",
		"-inject", "seed=7,rate=40", "-retry", "max=3,base=50us", "-spares", "2")
	if err != nil {
		t.Fatal(err)
	}
	want := Tuning{Shards: 8, Writeback: 16, WritebackBatch: 4, WritebackHighwater: 64,
		SchedPolicy: simdisk.SSTF, DiskQueue: DiskQueueShared, Disks: 4, RAIDLevel: simdisk.RAID5,
		Faults: &simdisk.FaultPlan{Faults: []simdisk.Fault{{Disk: 1, Kind: simdisk.FaultDevice}}},
		Inject: InjectSpec{Seed: 7, Rate: 40}, Retry: RetryPolicy{Max: 3, Base: 50 * time.Microsecond}, Spares: 2}
	if !reflect.DeepEqual(tune, want) {
		t.Fatalf("parsed\n got %+v\nwant %+v", tune, want)
	}
	if tune, err = parse(all, "-shards", "0"); err != nil || tune.Shards != buffercache.AutoShards() {
		t.Fatalf("-shards 0 = %d, %v; want AutoShards %d", tune.Shards, err, buffercache.AutoShards())
	}

	for _, bad := range [][]string{{"-sched", "elevator"}, {"-disk-queue", "communal"}, {"-raid", "raid6"},
		{"-faults", "explode:1@0s"}, {"-inject", "budget=-1"}, {"-retry", "max=x"}, {"-writeback", "many"}} {
		if _, err := parse(all, bad...); err == nil {
			t.Errorf("%v: parsed", bad)
		}
	}
	// A binary gets the flags it names and no others.
	if _, err := parse([]string{"disks", "raid"}, "-shards", "8"); err == nil {
		t.Error("-shards parsed on a flag set that registered only -disks and -raid")
	}
	defer func() {
		if recover() == nil {
			t.Error("registering an unknown store flag did not panic")
		}
	}()
	parse([]string{"sharts"})
}

func TestParseMembers(t *testing.T) {
	for in, want := range map[string][]int{"": nil, "1": {1}, "1,2": {1, 2}, " 0 , 3 ": {0, 3}} {
		if got, err := ParseMembers(in); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("ParseMembers(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"x", "1,", "-1", "1;2"} {
		if _, err := ParseMembers(bad); err == nil {
			t.Errorf("ParseMembers(%q) accepted", bad)
		}
	}
}

// TestREADMEListsEveryStoreFlag: README's knob table has a row for every
// flag RegisterFlags can declare. (cli_test.go checks the table's
// binaries and JSON keys against the built tools.)
func TestREADMEListsEveryStoreFlag(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	for name := range tuningFlags {
		if !strings.Contains(string(readme), "| `-"+name+"` |") {
			t.Errorf("README knob table has no row for -%s", name)
		}
	}
}
