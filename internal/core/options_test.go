package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/buffercache"
	"repro/internal/fsim"
	"repro/internal/netsim"
	"repro/internal/simdisk"
	"repro/internal/webserver"
)

func TestDefaultOptionsValid(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	// The zero Options is the paper's configuration too.
	if err := (Options{}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFillDefaults(t *testing.T) {
	var zero Options
	filled := zero.fillDefaults()
	if filled.Machine.NumCPUs == 0 || filled.Base == 0 || filled.TraceParams.FileSize == 0 {
		t.Fatalf("fillDefaults left zeros: %+v", filled)
	}
}

func TestLoadOptionsOverlays(t *testing.T) {
	cfg := `{"cpus": 8, "disks": 4, "base_seconds": 10, "trace_file_size_mb": 64, "trace_requests": 50}`
	opts, err := LoadOptions(strings.NewReader(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if opts.Machine.NumCPUs != 8 || opts.Machine.NumDisks != 4 {
		t.Fatalf("machine = %+v", opts.Machine)
	}
	if opts.Base != 10*time.Second {
		t.Fatalf("base = %v", opts.Base)
	}
	if opts.TraceParams.FileSize != 64<<20 || opts.TraceParams.Requests != 50 {
		t.Fatalf("trace params = %+v", opts.TraceParams)
	}
	// Untouched fields keep defaults.
	if opts.Machine.CPUParFrac != DefaultOptions().Machine.CPUParFrac {
		t.Fatal("unset field changed")
	}
}

// TestLoadOptionsRejects: every invalid value fails loudly, and the
// error names the key that carried it.
func TestLoadOptionsRejects(t *testing.T) {
	cases := []struct {
		name, cfg, key string
	}{
		{"unknown key", `{"cpuz": 8}`, "cpuz"},
		{"invalid machine", `{"cpus": 0}`, "cpus"},
		{"negative base", `{"base_seconds": -1}`, "base_seconds"},
		{"zero base", `{"base_seconds": 0}`, "base_seconds"},
		{"bad json", `{`, "parsing config"},
		{"bad trace", `{"trace_requests": -5}`, "trace_requests"},
		{"non-power-of-two shards", `{"cache_shards": 6}`, "cache_shards"},
		{"negative shards", `{"cache_shards": -2}`, "cache_shards"},
		{"negative writeback", `{"writeback": -1}`, "writeback"},
		{"negative writeback batch", `{"writeback": 8, "writeback_batch": -1}`, "writeback_batch"},
		{"high-water without writeback", `{"writeback_highwater": 64}`, "writeback_highwater"},
		{"negative high-water", `{"writeback": 8, "writeback_highwater": -1}`, "writeback_highwater"},
		{"unknown policy", `{"sched_policy": "elevator-of-doom"}`, "sched_policy"},
		{"unknown disk queue", `{"disk_queue": "communal"}`, "disk_queue"},
		{"fault on a missing disk", `{"faults": "slow:9@1ms+200us"}`, "faults"},
		{"bad inject", `{"inject": "budget=-1"}`, "inject"},
		{"bad retry", `{"retry": "max=-1"}`, "retry"},
		{"bad shed", `{"shed": "max=-1"}`, "shed"},
		{"negative spares", `{"spares": -1}`, "spares"},
		{"bad deadline", `{"rpc_deadline": "soon"}`, "rpc_deadline"},
		{"negative deadline", `{"rpc_deadline": "-1ms"}`, "rpc_deadline"},
		{"bad plan", `{"rpc_deadline": "5ms", "net_faults": "explode:server0@1ms"}`, "net_faults"},
		{"plan without deadline", `{"net_faults": "kill:server0@20ms"}`, "net_faults"},
	}
	for _, tc := range cases {
		_, err := LoadOptions(strings.NewReader(tc.cfg))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.key) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.key)
		}
	}
}

// TestOptionsValidateRejects: options built in code get the same rules
// as a config file, as an error instead of a silent reset.
func TestOptionsValidateRejects(t *testing.T) {
	cases := map[string]func(*Options){
		"shards not a power of two":     func(o *Options) { o.Store.Shards = 3 },
		"high-water without write-back": func(o *Options) { o.Store.WritebackHighwater = 4 },
		"negative spares":               func(o *Options) { o.Store.Spares = -1 },
		"bad inject":                    func(o *Options) { o.Store.Inject.Budget = -1 },
		"bad retry":                     func(o *Options) { o.Store.Retry.Max = -1 },
		"bad shed":                      func(o *Options) { o.Shed.MaxInFlight = -1 },
		"negative deadline":             func(o *Options) { o.RPCDeadline = -time.Millisecond },
		"net faults nobody can detect": func(o *Options) {
			o.NetFaults = &netsim.FaultPlan{Faults: []netsim.Fault{{Target: "server0", Kind: netsim.FaultKill}}}
		},
	}
	for name, mutate := range cases {
		opts := DefaultOptions()
		mutate(&opts)
		if err := opts.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
		if err := opts.Run(new(strings.Builder), []string{"fig1"}, "text"); err == nil {
			t.Errorf("%s: Run accepted the options", name)
		}
	}
}

func TestLoadOptionsCacheShards(t *testing.T) {
	opts, err := LoadOptions(strings.NewReader(`{"cache_shards": 8}`))
	if err != nil {
		t.Fatal(err)
	}
	if opts.Store.Shards != 8 {
		t.Fatalf("Store.Shards = %d, want 8", opts.Store.Shards)
	}
	// Explicit 0 asks for the machine-derived stripe count.
	opts, err = LoadOptions(strings.NewReader(`{"cache_shards": 0}`))
	if err != nil {
		t.Fatal(err)
	}
	if opts.Store.Shards != buffercache.AutoShards() {
		t.Fatalf("Store.Shards = %d, want AutoShards %d", opts.Store.Shards, buffercache.AutoShards())
	}
}

// storeUnder builds a store the way every registry experiment does:
// the options' store tuning applied to the replay calibration.
func storeUnder(t *testing.T, opts Options) *fsim.FileStore {
	t.Helper()
	cfg, err := opts.Store.Apply(fsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	store := fsim.MustNewFileStore(cfg)
	t.Cleanup(func() { store.Close() })
	return store
}

func TestSetOptionsCacheShardsReachStores(t *testing.T) {
	opts := DefaultOptions()
	opts.Store.Shards = 8
	if got := storeUnder(t, opts).Cache().NumShards(); got != 8 {
		t.Fatalf("store built under Shards=8 has %d shards", got)
	}
	if got := storeUnder(t, DefaultOptions()).Cache().NumShards(); got != 1 {
		t.Fatalf("store under the defaults has %d shards, want 1", got)
	}
}

func TestLoadOptionsWriteback(t *testing.T) {
	opts, err := LoadOptions(strings.NewReader(`{"writeback": 32, "sched_policy": "sstf"}`))
	if err != nil {
		t.Fatal(err)
	}
	if opts.Store.Writeback != 32 || opts.Store.SchedPolicy != simdisk.SSTF {
		t.Fatalf("writeback options = %d/%v", opts.Store.Writeback, opts.Store.SchedPolicy)
	}
}

func TestLoadOptionsWritebackHighwater(t *testing.T) {
	opts, err := LoadOptions(strings.NewReader(`{"writeback": 8, "writeback_highwater": 64}`))
	if err != nil {
		t.Fatal(err)
	}
	if opts.Store.WritebackHighwater != 64 {
		t.Fatalf("writeback_highwater = %d, want 64", opts.Store.WritebackHighwater)
	}
	if got := storeUnder(t, opts).Cache().Config().WritebackHighwater; got != 64 {
		t.Fatalf("store built under highwater=64 got %d", got)
	}
}

func TestSetOptionsWritebackReachesStores(t *testing.T) {
	opts := DefaultOptions()
	opts.Store.Writeback = 16
	opts.Store.SchedPolicy = simdisk.SCAN
	store := storeUnder(t, opts)
	if !store.Cache().WritebackEnabled() {
		t.Fatal("store built under Writeback=16 has write-back disabled")
	}
	if got := store.Cache().Config().WritebackPolicy; got != simdisk.SCAN {
		t.Fatalf("write-back policy = %v, want SCAN", got)
	}
	if storeUnder(t, DefaultOptions()).Cache().WritebackEnabled() {
		t.Fatal("store under the defaults has write-back enabled")
	}
}

func TestSetOptionsAffectsRegistry(t *testing.T) {
	opts := DefaultOptions()
	opts.Base = 1 * time.Second
	e, ok := opts.ByID("errorcheck")
	if !ok {
		t.Fatal("errorcheck missing")
	}
	// Experiments still run correctly under the override.
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "PASS") {
		t.Fatalf("errorcheck under override:\n%s", res.Text)
	}
}

func TestLoadOptionsFaultTolerance(t *testing.T) {
	cfg := `{"spares": 2, "shed": "max=8,deadline=2ms", "rpc_deadline": "5ms", "net_faults": "kill:server0@20ms,drop:link1@10ms+5ms"}`
	opts, err := LoadOptions(strings.NewReader(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if opts.Store.Spares != 2 {
		t.Fatalf("spares = %d", opts.Store.Spares)
	}
	if want := (webserver.ShedPolicy{MaxInFlight: 8, Deadline: 2 * time.Millisecond}); opts.Shed != want {
		t.Fatalf("shed = %+v", opts.Shed)
	}
	if opts.RPCDeadline != 5*time.Millisecond {
		t.Fatalf("rpc_deadline = %v", opts.RPCDeadline)
	}
	if opts.NetFaults == nil || len(opts.NetFaults.Faults) != 2 {
		t.Fatalf("net_faults = %+v", opts.NetFaults)
	}
}

func TestSetOptionsSparesReachStores(t *testing.T) {
	opts := DefaultOptions()
	opts.Store.Spares = 3
	store := storeUnder(t, opts)
	if store.SparePool() == nil || store.SparePool().Available() != 3 {
		t.Fatalf("store did not pick up the configured spare pool: %+v", store.SparePool())
	}
}

// TestRegistriesKeepTheirOwnOptions runs distload and table1 from two
// registries built from different Options at the same time: each must
// see its own store tuning, deadline and fabric faults, which no
// process-wide configuration could give them.
func TestRegistriesKeepTheirOwnOptions(t *testing.T) {
	faulty := DefaultOptions()
	faulty.TraceParams.FileSize, faulty.TraceParams.Requests = 64<<20, 40
	plain := faulty
	faulty.Store = fsim.Tuning{Disks: 4, RAIDLevel: simdisk.RAID5,
		Faults: &simdisk.FaultPlan{Faults: []simdisk.Fault{{Disk: 1, Kind: simdisk.FaultDevice}}}}
	faulty.RPCDeadline = 5 * time.Millisecond
	faulty.NetFaults = &netsim.FaultPlan{Faults: []netsim.Fault{
		{Target: "server0", Kind: netsim.FaultKill, At: 20 * time.Millisecond}}}

	type key struct{ registry, id string }
	got := map[key]*Result{}
	t.Run("concurrently", func(t *testing.T) {
		for name, opts := range map[string]Options{"faulty": faulty, "plain": plain} {
			for _, id := range []string{"distload", "table1"} {
				res := new(Result)
				got[key{name, id}] = res
				t.Run(name+"/"+id, func(t *testing.T) {
					t.Parallel()
					e, _ := opts.ByID(id)
					var err error
					if *res, err = e.Run(); err != nil {
						t.Error(err)
					}
				})
			}
		}
	})
	note := "net faults: " + faulty.NetFaults.String()
	if notes := strings.Join(got[key{"faulty", "distload"}].Notes, "\n"); !strings.Contains(notes, note) {
		t.Errorf("faulty registry's distload ran without its fault plan; notes:\n%s", notes)
	}
	if notes := strings.Join(got[key{"plain", "distload"}].Notes, "\n"); strings.Contains(notes, "net faults") {
		t.Errorf("plain registry's distload picked up a fault plan; notes:\n%s", notes)
	}
	if got[key{"faulty", "distload"}].Text == got[key{"plain", "distload"}].Text {
		t.Error("distload printed the same sweep with and without a killed server")
	}
	if got[key{"faulty", "table1"}].Text == got[key{"plain", "table1"}].Text {
		t.Error("table1 printed the same times on a degraded RAID5 array and a healthy disk")
	}
	alone, _ := plain.ByID("table1")
	if res, err := alone.Run(); err != nil || res.Text != got[key{"plain", "table1"}].Text {
		t.Errorf("plain table1 beside a faulty registry differs from plain table1 alone (err %v)", err)
	}
}
