package core

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/appmodel"
	"repro/internal/buffercache"
	"repro/internal/distbench"
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
	// Store tunes every simulated store the registry builds (cache
	// stripes, write-back, disk queue, device faults, op injection,
	// retries, spares), overlaid on each experiment's own calibration.
	// The distributed benchmark reuses Store.Retry as its failover
	// retry budget.
	Store fsim.Tuning
	// Shed is the web tier's graceful-degradation policy (admission
	// control + per-request I/O deadline). The zero policy never sheds.
	Shed webserver.ShedPolicy
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

// Validate reports the first problem with the options, or nil. The
// store, deadline and fabric-fault rules are fsim's and distbench's own,
// checked on the configuration distload would run.
func (o Options) Validate() error {
	o = o.fillDefaults()
	if err := o.Machine.Validate(); err != nil {
		return err
	}
	if o.Base <= 0 {
		return fmt.Errorf("core: base duration %v must be positive", o.Base)
	}
	if err := o.TraceParams.Validate(); err != nil {
		return err
	}
	if _, err := o.distConfig(); err != nil {
		return err
	}
	return o.Shed.Validate()
}

// distConfig is the distributed benchmark under o: the store tuning on
// each server's store, and the fault-tolerance options — with a deadline
// the clients route by consistent hash and fail over; with a net-fault
// plan the fabric loses nodes mid-run.
func (o Options) distConfig() (distbench.Config, error) {
	cfg := distbench.DefaultConfig()
	var err error
	if cfg.Store, err = o.Store.Apply(cfg.Store); err != nil {
		return cfg, err
	}
	cfg.Deadline, cfg.Retry, cfg.NetFaults = o.RPCDeadline, o.Store.Retry, o.NetFaults
	return cfg, cfg.Validate()
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
// Unknown keys are rejected so typos fail loudly, and the options are
// re-validated after every key so the error names the one that broke
// them (keys apply in configJSON order: a key that needs another —
// writeback_highwater, net_faults — comes after it).
func LoadOptions(r io.Reader) (Options, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var cfg configJSON
	if err := dec.Decode(&cfg); err != nil {
		return Options{}, fmt.Errorf("core: parsing config: %w", err)
	}
	opts := DefaultOptions()
	var err error
	set(&opts, &err, "cpus", cfg.CPUs, &opts.Machine.NumCPUs, same[int])
	set(&opts, &err, "disks", cfg.Disks, &opts.Machine.NumDisks, same[int])
	set(&opts, &err, "cpu_parallel_fraction", cfg.CPUParFrac, &opts.Machine.CPUParFrac, same[float64])
	set(&opts, &err, "io_queue_depth", cfg.IOQueueDepth, &opts.Machine.IOQueueDepth, same[int])
	set(&opts, &err, "base_seconds", cfg.BaseSeconds, &opts.Base, func(s float64) (time.Duration, error) {
		if s <= 0 { // a zero Base would read as "unset" and take the default
			return 0, fmt.Errorf("must be positive")
		}
		return time.Duration(s * float64(time.Second)), nil
	})
	set(&opts, &err, "trace_file_size_mb", cfg.TraceFileSizeMB, &opts.TraceParams.FileSize, func(mb int64) (int64, error) {
		return mb << 20, nil
	})
	set(&opts, &err, "trace_requests", cfg.TraceRequests, &opts.TraceParams.Requests, same[int])
	// 0 in the file is an explicit ask for the machine-derived stripe
	// count; absent keeps the deterministic single stripe.
	set(&opts, &err, "cache_shards", cfg.CacheShards, &opts.Store.Shards, func(n int) (int, error) {
		if n == 0 {
			n = buffercache.AutoShards()
		}
		return n, nil
	})
	set(&opts, &err, "writeback", cfg.Writeback, &opts.Store.Writeback, same[int])
	set(&opts, &err, "writeback_batch", cfg.WritebackBatch, &opts.Store.WritebackBatch, same[int])
	set(&opts, &err, "writeback_highwater", cfg.WritebackHighwater, &opts.Store.WritebackHighwater, same[int])
	set(&opts, &err, "sched_policy", cfg.SchedPolicy, &opts.Store.SchedPolicy, simdisk.ParsePolicy)
	set(&opts, &err, "disk_queue", cfg.DiskQueue, &opts.Store.DiskQueue, fsim.ParseDiskQueue)
	set(&opts, &err, "faults", cfg.Faults, &opts.Store.Faults, simdisk.ParseFaultPlan)
	set(&opts, &err, "inject", cfg.Inject, &opts.Store.Inject, fsim.ParseInjectSpec)
	set(&opts, &err, "retry", cfg.Retry, &opts.Store.Retry, fsim.ParseRetrySpec)
	set(&opts, &err, "shed", cfg.Shed, &opts.Shed, webserver.ParseShedPolicy)
	set(&opts, &err, "spares", cfg.Spares, &opts.Store.Spares, same[int])
	set(&opts, &err, "rpc_deadline", cfg.RPCDeadline, &opts.RPCDeadline, time.ParseDuration)
	set(&opts, &err, "net_faults", cfg.NetFaults, &opts.NetFaults, netsim.ParseFaultPlan)
	if err != nil {
		return Options{}, err
	}
	return opts, nil
}

// set applies one present key: convert, store, re-validate. After the
// first failure it does nothing, so *errp names the first bad key.
func set[S, T any](opts *Options, errp *error, key string, src *S, dst *T, conv func(S) (T, error)) {
	if src == nil || *errp != nil {
		return
	}
	v, err := conv(*src)
	if err == nil {
		*dst = v
		err = opts.Validate()
	}
	if err != nil {
		*errp = fmt.Errorf("core: %s: %w", key, err)
	}
}

func same[T any](v T) (T, error) { return v, nil }
