package fsim

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/buffercache"
	"repro/internal/simdisk"
)

// Tuning is the user-settable part of a store configuration — every
// field a flag or an options file may set — as one value. The zero
// Tuning changes nothing: Apply overlays only the non-zero fields on a
// base calibration, so the same Tuning rides on the trace-replay, web
// and distributed calibrations alike.
type Tuning struct {
	// Shards is the page-cache lock-stripe count (a power of two).
	Shards int
	// Writeback is the background write-back threshold in dirty pages
	// per stripe; WritebackBatch caps one drain, WritebackHighwater
	// stalls foreground writers (and needs Writeback > 0).
	Writeback          int
	WritebackBatch     int
	WritebackHighwater int
	// SchedPolicy orders write-back batches and the shared disk queue.
	SchedPolicy simdisk.SchedPolicy
	// DiskQueue selects private per-session timing views or one shared
	// contended queue.
	DiskQueue DiskQueueMode
	// Disks and RAIDLevel shape the array.
	Disks     int
	RAIDLevel simdisk.Level
	// Faults is the scheduled device fault plan, Inject the seeded
	// op-level fault schedule, Retry the sessions' recovery policy.
	Faults *simdisk.FaultPlan
	Inject InjectSpec
	Retry  RetryPolicy
	// Spares is the hot-spare pool size rebuilds draw from.
	Spares int
}

// Apply overlays t's non-zero fields on base and validates the result;
// Config.Validate is the one statement of what a legal store is.
func (t Tuning) Apply(base Config) (Config, error) {
	overlay(&base.Cache.Shards, t.Shards)
	overlay(&base.Cache.WritebackThreshold, t.Writeback)
	overlay(&base.Cache.WritebackBatch, t.WritebackBatch)
	overlay(&base.Cache.WritebackHighwater, t.WritebackHighwater)
	overlay(&base.Cache.WritebackPolicy, t.SchedPolicy)
	overlay(&base.DiskQueue, t.DiskQueue)
	overlay(&base.Disks, t.Disks)
	overlay(&base.RAIDLevel, t.RAIDLevel)
	overlay(&base.Faults, t.Faults)
	overlay(&base.Inject, t.Inject)
	overlay(&base.Retry, t.Retry)
	overlay(&base.Spares, t.Spares)
	return base, base.Validate()
}

func overlay[T comparable](dst *T, v T) {
	var zero T
	if v != zero {
		*dst = v
	}
}

// tuningFlags declares every store flag once: its usage (the backquoted
// word names the value in -h) and how its argument lands in a Tuning.
// README's knob table is checked against it.
var tuningFlags = map[string]struct {
	usage string
	set   func(*Tuning, string) error
}{
	"shards": {"page-cache lock `stripes`, a power of two (default 1); 0 = derive from GOMAXPROCS",
		field(func(t *Tuning) *int { return &t.Shards }, parseShards)},
	"writeback": {"background write-back threshold in dirty `pages` per stripe (0 = flush on close)",
		field(func(t *Tuning) *int { return &t.Writeback }, strconv.Atoi)},
	"writeback-batch": {"`pages` per scheduled write-back drain (0 = whole dirty set)",
		field(func(t *Tuning) *int { return &t.WritebackBatch }, strconv.Atoi)},
	"writeback-highwater": {"dirty-`pages` high-water mark per stripe that stalls writers (0 = never; needs -writeback)",
		field(func(t *Tuning) *int { return &t.WritebackHighwater }, strconv.Atoi)},
	"sched": {"disk scheduling `policy` (write-back batches, and the shared queue): fcfs | sstf | scan (default fcfs)",
		field(func(t *Tuning) *simdisk.SchedPolicy { return &t.SchedPolicy }, simdisk.ParsePolicy)},
	"disk-queue": {"disk-queue `mode`: private (per-session timing views) | shared (one contended queue) (default private)",
		field(func(t *Tuning) *DiskQueueMode { return &t.DiskQueue }, ParseDiskQueue)},
	"disks": {"simulated `disks` in the array (0 = the mode's default)",
		field(func(t *Tuning) *int { return &t.Disks }, strconv.Atoi)},
	"raid": {"array redundancy `level`: raid0 | raid1 | raid5 (empty = the mode's default)",
		field(func(t *Tuning) *simdisk.Level { return &t.RAIDLevel }, simdisk.ParseLevel)},
	"faults": {"device fault `plan`, e.g. \"fail:1@0s,slow:0@1ms+200us..5ms,media:2@0s:4096+8192\"",
		field(func(t *Tuning) **simdisk.FaultPlan { return &t.Faults }, simdisk.ParseFaultPlan)},
	"inject": {"seeded op-level fault `schedule`, e.g. \"seed=7,rate=40,budget=4,ops=read|write\"",
		field(func(t *Tuning) *InjectSpec { return &t.Inject }, ParseInjectSpec)},
	"retry": {"session recovery `policy`, e.g. \"max=3,base=50us\"",
		field(func(t *Tuning) *RetryPolicy { return &t.Retry }, ParseRetrySpec)},
	"spares": {"hot-spare pool `size` rebuilds draw from (0 = the mode's default)",
		field(func(t *Tuning) *int { return &t.Spares }, strconv.Atoi)},
}

func field[T any](get func(*Tuning) *T, parse func(string) (T, error)) func(*Tuning, string) error {
	return func(t *Tuning, s string) error {
		v, err := parse(s)
		if err == nil {
			*get(t) = v
		}
		return err
	}
}

// RegisterFlags declares the named store flags on fs, parsing into t.
// Each binary names the subset it honours; an unknown name is a bug.
func (t *Tuning) RegisterFlags(fs *flag.FlagSet, names ...string) {
	for _, name := range names {
		f, ok := tuningFlags[name]
		if !ok {
			panic("fsim: no store flag -" + name)
		}
		fs.Func(name, f.usage, func(s string) error { return f.set(t, s) })
	}
}

// parseShards parses -shards: 0 asks for the machine-derived count,
// anything else passes through for Config.Validate to judge.
func parseShards(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err == nil && n == 0 {
		n = buffercache.AutoShards()
	}
	return n, err
}

// ParseMembers parses a -rebuild member list ("1" or "1,2"); empty
// means no rebuild.
func ParseMembers(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("-rebuild: bad member %q (want a non-negative index list like \"1,2\")", part)
		}
		out = append(out, n)
	}
	return out, nil
}
