package core

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/appmodel"
	"repro/internal/buffercache"
	"repro/internal/fsim"
	"repro/internal/netsim"
	"repro/internal/simdisk"
	"repro/internal/tracegen"
	"repro/internal/webserver"
)

// Options parameterizes the experiment registry. Zero fields take the
// reproduction defaults, so Options{} == the paper's configuration.
type Options struct {
	// Machine is benchmark 1's baseline machine.
	Machine appmodel.Machine
	// Base is benchmark 1's model-unit duration.
	Base time.Duration
	// TraceParams configures benchmark 2's generation and replay.
	TraceParams tracegen.Params
	// CacheShards is the page-cache lock-stripe count every simulated
	// store in the registry is built with. Zero keeps the paper's
	// deterministic single stripe; otherwise it must be a power of two.
	CacheShards int
	// Writeback is the page-cache background write-back threshold (dirty
	// pages per stripe) every simulated store is built with. Zero keeps
	// the paper's flush-on-close behavior.
	Writeback int
	// WritebackBatch caps how many pages one background drain submits to
	// the disk queue; zero means the whole dirty set.
	WritebackBatch int
	// WritebackHighwater is the per-stripe dirty-page high-water mark:
	// a write that saturates a stripe's dirty set stalls the foreground
	// writer until the stripe drains (pdflush throttling). Zero (the
	// default) never stalls writers; requires Writeback > 0.
	WritebackHighwater int
	// SchedPolicy orders write-back batches at the disk queue: FCFS,
	// SSTF, or SCAN. In shared disk-queue mode it also orders the
	// contended queue itself. Ignored while Writeback is zero and
	// DiskQueue is private.
	SchedPolicy simdisk.SchedPolicy
	// DiskQueue selects private per-session disk-timing views (the
	// default) or one shared contended queue across all sessions.
	DiskQueue fsim.DiskQueueMode
	// Faults is the per-disk device fault plan (slowdowns, latent sector
	// errors, whole-device failures on simulated time) every simulated
	// store in the registry is built with. Nil keeps a healthy array.
	Faults *simdisk.FaultPlan
	// Inject is the seeded op-level fault schedule store sessions roll;
	// the zero spec injects nothing.
	Inject fsim.InjectSpec
	// Retry is the sessions' recovery policy: bounded retries with
	// simulated-time exponential backoff. The zero policy never retries.
	// The distributed benchmark reuses it as the failover retry budget.
	Retry fsim.RetryPolicy
	// Shed is the web tier's graceful-degradation policy (admission
	// control + per-request I/O deadline). The zero policy never sheds.
	Shed webserver.ShedPolicy
	// Spares provisions a hot-spare pool on every simulated store, for
	// member rebuilds after device faults. Zero keeps ad-hoc spares.
	Spares int
	// RPCDeadline is the distributed benchmark's client RPC deadline;
	// zero means attempts never expire (static client-to-replica routing).
	RPCDeadline time.Duration
	// NetFaults schedules node kills and link-drop windows on the
	// distributed benchmark's fabric. Requires RPCDeadline > 0.
	NetFaults *netsim.FaultPlan
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options {
	return Options{
		Machine:     appmodel.DefaultMachine(),
		Base:        appmodel.QCRDBaseTime,
		TraceParams: tracegen.DefaultParams(),
	}
}

// current is the process-wide configuration Experiments() uses; tools
// override it once at startup via SetOptions.
var current = DefaultOptions()

// SetOptions replaces the registry's process-wide configuration. Zero
// fields take the defaults. Call before Experiments()/Run; not safe to
// race with running experiments.
func SetOptions(opts Options) {
	current = opts.fillDefaults()
	// The stores the experiments build pick the stripe count up from the
	// buffercache default. LoadOptions validates CacheShards; a caller
	// setting an invalid count directly falls back to the single stripe,
	// and the registry's recorded options are corrected to match so the
	// configuration never claims stripes the stores don't have.
	if err := buffercache.SetDefaultShards(current.CacheShards); err != nil {
		current.CacheShards = 0
		buffercache.SetDefaultShards(0)
	}
	if err := buffercache.SetDefaultWriteback(current.Writeback, current.WritebackBatch, current.WritebackHighwater, current.SchedPolicy); err != nil {
		current.Writeback = 0
		current.WritebackBatch = 0
		current.WritebackHighwater = 0
		current.SchedPolicy = simdisk.FCFS
		buffercache.SetDefaultWriteback(0, 0, 0, simdisk.FCFS)
	}
	if err := fsim.SetDefaultDiskQueue(current.DiskQueue); err != nil {
		current.DiskQueue = fsim.DiskQueuePrivate
		fsim.SetDefaultDiskQueue(fsim.DiskQueuePrivate)
	}
	// The fault plan's geometry (disk indices, RAID level) is validated
	// against each store when it is built; only the spec-level invariants
	// are checked here, with the invalid value dropped like the above.
	fsim.SetDefaultFaults(current.Faults)
	if err := current.Inject.Validate(); err != nil {
		current.Inject = fsim.InjectSpec{}
	}
	fsim.SetDefaultInject(current.Inject)
	if err := current.Retry.Validate(); err != nil {
		current.Retry = fsim.RetryPolicy{}
	}
	fsim.SetDefaultRetry(current.Retry)
	if err := current.Shed.Validate(); err != nil {
		current.Shed = webserver.ShedPolicy{}
	}
	webserver.SetDefaultShed(current.Shed)
	if current.Spares < 0 {
		current.Spares = 0
	}
	fsim.SetDefaultSpares(current.Spares)
	if current.RPCDeadline < 0 {
		current.RPCDeadline = 0
	}
	// A fault plan nobody can detect is dropped, matching the invalid
	// values above: the distributed benchmark rejects the combination.
	if current.NetFaults != nil && current.RPCDeadline <= 0 {
		current.NetFaults = nil
	}
}

// Current returns the registry's active configuration (after
// SetOptions' invalid-value corrections).
func Current() Options { return current }

// fillDefaults replaces zero fields with defaults.
func (o Options) fillDefaults() Options {
	def := DefaultOptions()
	if o.Machine == (appmodel.Machine{}) {
		o.Machine = def.Machine
	}
	if o.Base == 0 {
		o.Base = def.Base
	}
	if o.TraceParams == (tracegen.Params{}) {
		o.TraceParams = def.TraceParams
	}
	return o
}

// configJSON is the on-disk form read by LoadOptions — flat, in
// human-friendly units, with every field optional.
type configJSON struct {
	CPUs               *int     `json:"cpus"`
	Disks              *int     `json:"disks"`
	CPUParFrac         *float64 `json:"cpu_parallel_fraction"`
	IOQueueDepth       *int     `json:"io_queue_depth"`
	BaseSeconds        *float64 `json:"base_seconds"`
	TraceFileSizeMB    *int64   `json:"trace_file_size_mb"`
	TraceRequests      *int     `json:"trace_requests"`
	CacheShards        *int     `json:"cache_shards"`
	Writeback          *int     `json:"writeback"`
	WritebackBatch     *int     `json:"writeback_batch"`
	WritebackHighwater *int     `json:"writeback_highwater"`
	SchedPolicy        *string  `json:"sched_policy"`
	DiskQueue          *string  `json:"disk_queue"`
	Faults             *string  `json:"faults"`
	Inject             *string  `json:"inject"`
	Retry              *string  `json:"retry"`
	Shed               *string  `json:"shed"`
	Spares             *int     `json:"spares"`
	RPCDeadline        *string  `json:"rpc_deadline"`
	NetFaults          *string  `json:"net_faults"`
}

// LoadOptions reads a JSON configuration, overlaying it on the defaults.
// Unknown keys are rejected so typos fail loudly.
func LoadOptions(r io.Reader) (Options, error) {
	opts := DefaultOptions()
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var cfg configJSON
	if err := dec.Decode(&cfg); err != nil {
		return Options{}, fmt.Errorf("core: parsing config: %w", err)
	}
	if cfg.CPUs != nil {
		opts.Machine.NumCPUs = *cfg.CPUs
	}
	if cfg.Disks != nil {
		opts.Machine.NumDisks = *cfg.Disks
	}
	if cfg.CPUParFrac != nil {
		opts.Machine.CPUParFrac = *cfg.CPUParFrac
	}
	if cfg.IOQueueDepth != nil {
		opts.Machine.IOQueueDepth = *cfg.IOQueueDepth
	}
	if cfg.BaseSeconds != nil {
		opts.Base = time.Duration(*cfg.BaseSeconds * float64(time.Second))
	}
	if cfg.TraceFileSizeMB != nil {
		opts.TraceParams.FileSize = *cfg.TraceFileSizeMB << 20
	}
	if cfg.TraceRequests != nil {
		opts.TraceParams.Requests = *cfg.TraceRequests
	}
	if cfg.CacheShards != nil {
		// 0 in the file is an explicit ask for the machine-derived stripe
		// count; absent keeps the deterministic single stripe.
		if *cfg.CacheShards == 0 {
			opts.CacheShards = buffercache.AutoShards()
		} else {
			opts.CacheShards = *cfg.CacheShards
		}
		if n := opts.CacheShards; n < 0 || n&(n-1) != 0 {
			return Options{}, fmt.Errorf("core: cache_shards %d must be a power of two", n)
		}
	}
	if cfg.Writeback != nil {
		if *cfg.Writeback < 0 {
			return Options{}, fmt.Errorf("core: writeback %d must be non-negative", *cfg.Writeback)
		}
		opts.Writeback = *cfg.Writeback
	}
	if cfg.WritebackBatch != nil {
		if *cfg.WritebackBatch < 0 {
			return Options{}, fmt.Errorf("core: writeback_batch %d must be non-negative", *cfg.WritebackBatch)
		}
		opts.WritebackBatch = *cfg.WritebackBatch
	}
	if cfg.WritebackHighwater != nil {
		if *cfg.WritebackHighwater < 0 {
			return Options{}, fmt.Errorf("core: writeback_highwater %d must be non-negative", *cfg.WritebackHighwater)
		}
		if *cfg.WritebackHighwater > 0 && opts.Writeback == 0 {
			return Options{}, fmt.Errorf("core: writeback_highwater requires writeback > 0")
		}
		opts.WritebackHighwater = *cfg.WritebackHighwater
	}
	if cfg.SchedPolicy != nil {
		policy, err := simdisk.ParsePolicy(*cfg.SchedPolicy)
		if err != nil {
			return Options{}, fmt.Errorf("core: %w", err)
		}
		opts.SchedPolicy = policy
	}
	if cfg.DiskQueue != nil {
		mode, err := fsim.ParseDiskQueue(*cfg.DiskQueue)
		if err != nil {
			return Options{}, fmt.Errorf("core: %w", err)
		}
		opts.DiskQueue = mode
	}
	if cfg.Faults != nil {
		plan, err := simdisk.ParseFaultPlan(*cfg.Faults)
		if err != nil {
			return Options{}, fmt.Errorf("core: %w", err)
		}
		opts.Faults = plan
	}
	if cfg.Inject != nil {
		spec, err := fsim.ParseInjectSpec(*cfg.Inject)
		if err != nil {
			return Options{}, fmt.Errorf("core: %w", err)
		}
		opts.Inject = spec
	}
	if cfg.Retry != nil {
		pol, err := fsim.ParseRetrySpec(*cfg.Retry)
		if err != nil {
			return Options{}, fmt.Errorf("core: %w", err)
		}
		opts.Retry = pol
	}
	if cfg.Shed != nil {
		shed, err := webserver.ParseShedPolicy(*cfg.Shed)
		if err != nil {
			return Options{}, fmt.Errorf("core: %w", err)
		}
		opts.Shed = shed
	}
	if cfg.Spares != nil {
		if *cfg.Spares < 0 {
			return Options{}, fmt.Errorf("core: spares %d must be non-negative", *cfg.Spares)
		}
		opts.Spares = *cfg.Spares
	}
	if cfg.RPCDeadline != nil {
		d, err := time.ParseDuration(*cfg.RPCDeadline)
		if err != nil {
			return Options{}, fmt.Errorf("core: rpc_deadline: %w", err)
		}
		if d < 0 {
			return Options{}, fmt.Errorf("core: rpc_deadline %v must be non-negative", d)
		}
		opts.RPCDeadline = d
	}
	if cfg.NetFaults != nil {
		plan, err := netsim.ParseFaultPlan(*cfg.NetFaults)
		if err != nil {
			return Options{}, fmt.Errorf("core: %w", err)
		}
		if plan != nil && opts.RPCDeadline <= 0 {
			return Options{}, fmt.Errorf("core: net_faults requires a positive rpc_deadline to detect losses")
		}
		opts.NetFaults = plan
	}
	if err := opts.Machine.Validate(); err != nil {
		return Options{}, err
	}
	if opts.Base <= 0 {
		return Options{}, fmt.Errorf("core: base_seconds must be positive")
	}
	if err := opts.TraceParams.Validate(); err != nil {
		return Options{}, err
	}
	return opts, nil
}
