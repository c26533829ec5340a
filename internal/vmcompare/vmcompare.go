// Package vmcompare implements the paper's first future-work direction
// (§5): "evaluate performance of the benchmarks for I/O-intensive
// computing on other virtual machines like java virtual machine" and
// "compare the performance of the benchmarks on different CLI-based
// virtual machines."
//
// It reruns the paper's most runtime-sensitive experiment — Table 6's
// repeated reads of the same file — under each vm.Profile (SSCLI, a
// commercial CLR, a HotSpot-style JVM, and a native-AOT baseline), all on
// identical simulated storage, isolating the managed runtime's
// contribution to I/O latency.
package vmcompare

import (
	"fmt"
	"time"

	"repro/internal/fsim"
	"repro/internal/metrics"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Trials is the repeated-read count, matching Table 6.
const Trials = 6

// ProfileResult is one runtime's warm-up curve.
type ProfileResult struct {
	Profile vm.Profile
	// TrialMS holds the per-trial read latency in milliseconds.
	TrialMS []float64
}

// FirstTrialMS returns the cold first-read latency.
func (r ProfileResult) FirstTrialMS() float64 {
	if len(r.TrialMS) == 0 {
		return 0
	}
	return r.TrialMS[0]
}

// SteadyMS returns the final-trial (steady-state) latency.
func (r ProfileResult) SteadyMS() float64 {
	if len(r.TrialMS) == 0 {
		return 0
	}
	return r.TrialMS[len(r.TrialMS)-1]
}

// WarmupFactor returns first/steady — how much the runtime's first touch
// costs relative to its steady state.
func (r ProfileResult) WarmupFactor() float64 {
	if r.SteadyMS() == 0 {
		return 0
	}
	return r.FirstTrialMS() / r.SteadyMS()
}

// runProfile executes the Table 6 pipeline on one profile over a fresh
// store.
func runProfile(p vm.Profile, cfg fsim.Config) (ProfileResult, error) {
	store, err := fsim.NewFileStore(cfg)
	if err != nil {
		return ProfileResult{}, err
	}
	if err := workload.Install(store, workload.WebCorpus()); err != nil {
		return ProfileResult{}, err
	}
	store.Cache().Invalidate()
	rt, err := p.NewRuntime()
	if err != nil {
		return ProfileResult{}, err
	}
	name := workload.WebCorpus()[3].Name
	res := ProfileResult{Profile: p}
	for trial := 0; trial < Trials; trial++ {
		stream, openDur, err := vm.OpenFileStream(rt, store, name)
		if err != nil {
			return ProfileResult{}, err
		}
		_, readDur, err := stream.ReadAll()
		closeDur, _ := stream.Close()
		if err != nil {
			return ProfileResult{}, err
		}
		total := openDur + readDur + closeDur
		res.TrialMS = append(res.TrialMS, float64(total)/float64(time.Millisecond))
	}
	return res, nil
}

// Compare runs the repeated-read experiment under every profile (nil =
// all of vm.Profiles), each on its own store: the replay calibration
// under tune.
func Compare(profiles []vm.Profile, tune fsim.Tuning) ([]ProfileResult, error) {
	if len(profiles) == 0 {
		profiles = vm.Profiles()
	}
	cfg, err := tune.Apply(fsim.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("vmcompare: %w", err)
	}
	out := make([]ProfileResult, 0, len(profiles))
	for _, p := range profiles {
		res, err := runProfile(p, cfg)
		if err != nil {
			return nil, fmt.Errorf("vmcompare: profile %s: %w", p.Name, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// Table renders the comparison: one row per runtime, per-trial latencies
// plus the warm-up factor.
func Table(results []ProfileResult) *metrics.Table {
	headers := []interface{}{}
	_ = headers
	cols := []string{"Runtime"}
	for i := 1; i <= Trials; i++ {
		cols = append(cols, fmt.Sprintf("Trial %d (ms)", i))
	}
	cols = append(cols, "Warm-up factor")
	tb := metrics.NewTable(
		"Repeated 14063-byte reads across virtual machines (Table 6 workload)",
		cols...)
	for _, r := range results {
		row := []interface{}{r.Profile.Name}
		for _, t := range r.TrialMS {
			row = append(row, t)
		}
		row = append(row, r.WarmupFactor())
		tb.AddRow(row...)
	}
	return tb
}

// Figure renders each runtime's warm-up curve as one series.
func Figure(results []ProfileResult) *metrics.Figure {
	labels := make([]string, Trials)
	for i := range labels {
		labels[i] = fmt.Sprintf("%d", i+1)
	}
	fig := metrics.NewFigure(
		"Warm-up curves across virtual machines",
		"trial number", "read time (ms)")
	for _, r := range results {
		fig.Add(metrics.NewSeries(r.Profile.Name, labels, r.TrialMS))
	}
	return fig
}
