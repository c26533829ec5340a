// Bench is the repository benchmark: five wall-clock workloads through
// the real tracebench and webbench binaries, and a traced in-process
// run that attributes the time to the modules under internal/.
//
//	go run -C bench . -workload replay_warm -seed 1          # end to end
//	go run -C bench . -workload replay_warm -seed 1 -trace 1 # per layer
//	go run -C bench . -seed 1                                # every workload
//	go run -C bench . -compare out/a.json out/b.json
//	go run -C bench . -update-golden
//
// BENCHMARK.json at the repository root is the contract: workload and
// metric names, units, directions and regression bounds. README.md says
// why each workload exists and which layer metric should move which
// end-to-end metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"text/tabwriter"
	"time"

	"repro/internal/metrics"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// metricResult is one reported number: the median over the invocation's
// samples, how far they spread, and how many there were.
type metricResult struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Spread is the distance between the samples' first and third
	// quartile as a share of their median: the statistic the contract
	// judges steadiness by, here within one invocation.
	Spread float64 `json:"spread"`
	N      int     `json:"n"`
	// Exact marks a traced count that read the same on every repeat, so
	// a later change may rest a claim on it.
	Exact bool `json:"exact,omitempty"`
	// Derived marks a metric that restates another on this workload (a
	// batch replay's "latency" is its run time, records / ops_per_s):
	// printed because a run reports every metric, left out of -compare's
	// verdicts.
	Derived bool `json:"derived,omitempty"`
	// Samples are the values the median was taken over, in run order.
	Samples []float64 `json:"samples,omitempty"`
}

// workloadResult is one workload's outcome; its contract view is the
// last line of standard output.
type workloadResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]metricResult `json:"metrics"`
	// Notes are printed for the reader and not part of the contract.
	Notes map[string]float64 `json:"notes,omitempty"`
}

// resultFile is what -json writes and -compare reads.
type resultFile struct {
	Seed      uint64                    `json:"seed"`
	Trace     int                       `json:"trace"`
	Seconds   float64                   `json:"seconds"`
	Scale     float64                   `json:"scale"`
	Workloads map[string]workloadResult `json:"workloads"`
}

// summarize reduces samples to a metricResult: their median with the
// interquartile spread.
func summarize(samples []float64, unit string) metricResult {
	var s metrics.Sample
	for _, v := range samples {
		s.Add(v)
	}
	r := metricResult{Value: s.Median(), Unit: unit, N: len(samples), Samples: samples}
	if r.Value != 0 {
		r.Spread = (s.Quantile(0.75) - s.Quantile(0.25)) / math.Abs(r.Value)
	}
	return r
}

// findRoot returns the checkout: the nearest of . and .. that holds
// BENCHMARK.json (`go run -C bench .` starts in bench/).
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("BENCHMARK.json not found in . or ..: run from the repository root or bench/")
}

// workloadTimeout is how long one workload may take after the first
// build; its children are killed when it passes. The contract allows a
// run 180 s.
const workloadTimeout = 170 * time.Second

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the whole command; ctx's end kills every child it started.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name         = fs.String("workload", "all", "workload to run, or all")
		seed         = fs.Uint64("seed", 1, "seed for the trace generator and the web request sequence")
		seconds      = fs.Float64("seconds", 0, "how long to measure (0 = run_seconds from BENCHMARK.json)")
		trace        = fs.Int("trace", 0, "0: end-to-end metrics from the real binaries; 1: per-layer metrics from the traced in-process run")
		scale        = fs.Float64("scale", 1, "multiplies every record and request count (the self-test runs at 0.01)")
		jsonPath     = fs.String("json", "", "result file (default bench/out/<workload>.trace<n>.json)")
		compare      = fs.Bool("compare", false, "compare two result files given as arguments and exit")
		updateGolden = fs.Bool("update-golden", false, "regenerate bench/golden/ and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	mf, err := loadManifest(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return fail(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(errors.New("-compare needs two result files"))
		}
		if err := compareFiles(stdout, mf, fs.Arg(0), fs.Arg(1)); err != nil {
			return fail(err)
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace %d: want 0 or 1", *trace))
	}
	if *seconds == 0 {
		*seconds = float64(mf.RunSeconds)
	}
	all := workloads(*scale)
	if *name != "all" {
		w, err := findWorkload(all, *name)
		if err != nil {
			return fail(err)
		}
		all = []workloadDef{w}
	}

	h := &harness{root: root, out: filepath.Join(root, "bench", "out"), seed: *seed}
	h.work = filepath.Join(h.out, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(h.work, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(h.work)
	// The first build in a checkout compiles everything and is allowed
	// far longer than a run; do it before the run's clock starts.
	if err := h.build(ctx); err != nil {
		return fail(err)
	}
	// The fidelity check does not depend on the workload: once per
	// invocation, counted into every workload's result.
	differ, err := h.checkGoldens(ctx, *updateGolden)
	if err != nil {
		return fail(err)
	}
	if *updateGolden {
		return 0
	}

	file := resultFile{Seed: *seed, Trace: *trace, Seconds: *seconds, Scale: *scale, Workloads: map[string]workloadResult{}}
	code := 0
	var last workloadResult
	for _, w := range all {
		wctx, cancel := context.WithTimeout(ctx, workloadTimeout)
		var res workloadResult
		var err error
		if *trace == 1 {
			res, err = h.tracedRun(wctx, w, *seconds)
		} else {
			res, err = h.endToEndRun(wctx, w, *seconds)
		}
		cancel()
		res.Attempted += int64(len(goldens))
		res.Failed += int64(len(differ))
		if err == nil && len(differ) > 0 {
			err = fmt.Errorf("golden outputs differ: %v", differ)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		}
		res.Correct = err == nil && res.Failed == 0
		if !res.Correct {
			code = 1
		}
		defs := endToEnd
		if *trace == 1 {
			defs = perLayer
		}
		printResult(stdout, w.name, res, defs)
		file.Workloads[w.name] = res
		last = res
	}
	if *jsonPath == "" {
		*jsonPath = filepath.Join(h.out, fmt.Sprintf("%s.trace%d.json", *name, *trace))
	}
	if data, err := json.MarshalIndent(file, "", "  "); err != nil {
		return fail(err)
	} else if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
		return fail(err)
	}
	if code == 0 && len(all) == 1 {
		// The contract line: exactly correct, attempted, failed, metrics,
		// each metric exactly value and unit.
		type contractMetric struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}
		line := struct {
			Correct   bool                      `json:"correct"`
			Attempted int64                     `json:"attempted"`
			Failed    int64                     `json:"failed"`
			Metrics   map[string]contractMetric `json:"metrics"`
		}{last.Correct, last.Attempted, last.Failed, map[string]contractMetric{}}
		for k, m := range last.Metrics {
			line.Metrics[k] = contractMetric{m.Value, m.Unit}
		}
		data, err := json.Marshal(line)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", data)
	}
	return code
}

// minUnits is the fewest set-up + measure units an invocation runs,
// however short -seconds is: a median needs three.
const minUnits = 3

// unitSeed is the seed of an invocation's nth unit. Every unit draws a
// fresh input from the invocation's seed (unit 0 the seed's own, which is
// also the traced run's): what a trace costs to replay depends on where
// its jumps land (replay_sharedq's records/s moves 30% between seeds and
// 2% between runs of one seed), so a median over units is a median over
// inputs too, and no single trace decides an invocation's result.
func unitSeed(seed uint64, n int) uint64 { return seed + uint64(n)<<32 }

// endToEndRun repeats set-up + measured child until the measured time
// adds up to seconds, and reports each metric's median over the units.
// A result is returned even on error, with what was counted so far.
func (h *harness) endToEndRun(ctx context.Context, w workloadDef, seconds float64) (workloadResult, error) {
	res := workloadResult{Metrics: map[string]metricResult{}}
	samples := map[string][]float64{}
	notes := map[string][]float64{}
	var measured float64
	for n := 0; n < minUnits || measured < seconds; n++ {
		var u unit
		var err error
		if w.web != nil {
			u, err = h.webUnit(ctx, w, unitSeed(h.seed, n))
		} else {
			u, err = h.replayUnit(ctx, w, unitSeed(h.seed, n))
		}
		res.Attempted += u.attempted
		res.Failed += u.failed
		if err != nil {
			if res.Failed == 0 {
				res.Failed = 1 // a unit that could not be measured is a failure, not a short run
			}
			return res, err
		}
		for k, v := range u.m {
			samples[k] = append(samples[k], v)
		}
		for k, v := range u.extra {
			notes[k] = append(notes[k], v)
		}
		measured += u.wall.Seconds()
	}
	for _, d := range endToEnd {
		m := summarize(samples[d.name], d.unit)
		m.Derived = w.replay != nil && (d.name == "lat_p50_us" || d.name == "lat_tail_us")
		res.Metrics[d.name] = m
	}
	if len(notes) > 0 {
		res.Notes = map[string]float64{}
		for k, v := range notes {
			res.Notes[k] = summarize(v, "").Value
		}
	}
	return res, nil
}

func printResult(w io.Writer, name string, res workloadResult, defs []metricDef) {
	fmt.Fprintf(w, "%s: attempted %d, failed %d, correct %v\n", name, res.Attempted, res.Failed, res.Correct)
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  metric\tvalue\tunit\tspread\tn\t")
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			continue
		}
		exact := ""
		if m.Exact {
			exact = "exact"
		}
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%.1f%%\t%d\t%s\n", d.name, m.Value, m.Unit, m.Spread*100, m.N, exact)
	}
	keys := make([]string, 0, len(res.Notes))
	for k := range res.Notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(tw, "  (%s)\t%.6g\t\t\t\t\n", k, res.Notes[k])
	}
	tw.Flush()
}
