// Package core is the benchmark suite's public surface: a registry of
// every experiment in the paper — each table and figure of the evaluation
// plus the §2.3 model-error check — with a uniform way to run them and
// render their artifacts.
//
// The three benchmarks underneath are:
//
//	appmodel  — benchmark 1, the application behavioral model (Figs. 2-5)
//	tracesim  — benchmark 2, the trace-driven simulator (Tables 1-4)
//	webserver — benchmark 3, the multithreaded web server (Tables 5-6, Fig. 6)
package core

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/appmodel"
	"repro/internal/distbench"
	"repro/internal/metrics"
	"repro/internal/tracesim"
	"repro/internal/vmcompare"
	"repro/internal/webserver"
)

// Kind classifies an experiment's artifact.
type Kind int

// Artifact kinds.
const (
	KindTable Kind = iota
	KindFigure
	KindCheck
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindTable:
		return "table"
	case KindFigure:
		return "figure"
	case KindCheck:
		return "check"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Result is a finished experiment's renderable artifact.
type Result struct {
	ID    string
	Title string
	Kind  Kind
	// Text is the rendered table or figure.
	Text string
	// CSV is the machine-readable form, when the artifact has one.
	CSV string
	// Values are the artifact's headline numbers (speedup points, trial
	// latencies, error rates) for programmatic consumers.
	Values []float64
	// Notes carries reproduction commentary (paper-vs-measured caveats).
	Notes []string
}

// Experiment is one regenerable table, figure, or check.
type Experiment struct {
	ID    string
	Title string
	Kind  Kind
	Run   func() (Result, error)
}

// Experiments returns the full registry in paper order, configured by
// opts; zero fields take the defaults. Every store and server an
// experiment builds is built from opts, so registries with different
// options coexist in one process.
func (opts Options) Experiments() []Experiment {
	opts = opts.fillDefaults()
	machine := opts.Machine
	base := opts.Base
	traceParams := opts.TraceParams

	return []Experiment{
		{
			ID:    "fig1",
			Title: "Figure 1: example program behaviour (working sets and phases)",
			Kind:  KindFigure,
			Run: func() (Result, error) {
				out, err := appmodel.RenderTimeline(appmodel.FigureExample(), 100*time.Second, 64)
				if err != nil {
					return Result{}, err
				}
				return Result{
					Text: out,
					Notes: []string{
						"~Γ = [(0.52,0.29,0.287,1), (0,0.85,0.185,2), (0,0.57,0.194,1), (0.81,0,0.148,1)]",
					},
				}, nil
			},
		},
		{
			ID:    "fig2",
			Title: "Figure 2: QCRD execution time of computation and disk I/O",
			Kind:  KindFigure,
			Run: func() (Result, error) {
				fig, res, err := appmodel.Figure2(machine, base)
				if err != nil {
					return Result{}, err
				}
				return Result{
					Text: fig.RenderBars(40),
					CSV:  fig.CSV(),
					Values: []float64{
						res.App.CPU.Seconds(), res.App.IO.Seconds(),
					},
					Notes: []string{
						fmt.Sprintf("application wall time %.1f s (paper scale ≈170 s)", res.Wall.Seconds()),
					},
				}, nil
			},
		},
		{
			ID:    "fig3",
			Title: "Figure 3: QCRD percentage of execution time",
			Kind:  KindFigure,
			Run: func() (Result, error) {
				fig, res, err := appmodel.Figure3(machine, base)
				if err != nil {
					return Result{}, err
				}
				return Result{
					Text:   fig.RenderBars(40),
					CSV:    fig.CSV(),
					Values: []float64{res.App.CPUPercent(), res.App.IOPercent()},
				}, nil
			},
		},
		{
			ID:    "fig4",
			Title: "Figure 4: QCRD speedup vs number of disks",
			Kind:  KindFigure,
			Run: func() (Result, error) {
				fig, speedups, err := appmodel.Figure4(machine, base)
				if err != nil {
					return Result{}, err
				}
				return Result{
					Text:   fig.RenderLines(44, 10),
					CSV:    fig.CSV(),
					Values: speedups,
					Notes:  []string{"paper: nearly flat, ≈1.0-1.3 across 2-32 disks"},
				}, nil
			},
		},
		{
			ID:    "fig5",
			Title: "Figure 5: QCRD speedup vs number of CPUs",
			Kind:  KindFigure,
			Run: func() (Result, error) {
				fig, speedups, err := appmodel.Figure5(machine, base)
				if err != nil {
					return Result{}, err
				}
				return Result{
					Text:   fig.RenderLines(44, 10),
					CSV:    fig.CSV(),
					Values: speedups,
					Notes:  []string{"paper: rises to ≈2.1-2.4 at 32 CPUs"},
				}, nil
			},
		},
		{
			ID:    "errorcheck",
			Title: "§2.3 check: simulator vs analytic model error < 10%",
			Kind:  KindCheck,
			Run: func() (Result, error) {
				errRate, err := appmodel.SimulatorError(appmodel.QCRD(), machine, base)
				if err != nil {
					return Result{}, err
				}
				status := "PASS"
				if errRate > 0.10 {
					status = "FAIL"
				}
				return Result{
					Text:   fmt.Sprintf("simulator vs analytic error: %.2f%% (< 10%% required) — %s\n", errRate*100, status),
					Values: []float64{errRate},
				}, nil
			},
		},
		tableExperiment("table1", "Table 1: data mining (Dmine) operation times",
			func() (*metrics.Table, error) { t, _, err := tracesim.Table1(traceParams, opts.Store); return t, err }),
		tableExperiment("table2", "Table 2: Titan operation times",
			func() (*metrics.Table, error) { t, _, err := tracesim.Table2(traceParams, opts.Store); return t, err }),
		tableExperiment("table3", "Table 3: LU per-request seek times",
			func() (*metrics.Table, error) { t, _, err := tracesim.Table3(traceParams, opts.Store); return t, err }),
		tableExperiment("table4", "Table 4: Cholesky per-request seek/read times",
			func() (*metrics.Table, error) { t, _, err := tracesim.Table4(traceParams, opts.Store); return t, err }),
		{
			ID:    "table5",
			Title: "Table 5: web server first read/write response times",
			Kind:  KindTable,
			Run: func() (Result, error) {
				tb, _, err := webserver.Table5(opts.Store, opts.Shed)
				if err != nil {
					return Result{}, err
				}
				return Result{Text: tb.Render(), CSV: tb.CSV()}, nil
			},
		},
		{
			ID:    "table6",
			Title: "Table 6: repeated reads of the same file",
			Kind:  KindTable,
			Run: func() (Result, error) {
				tb, times, err := webserver.Table6(opts.Store, opts.Shed)
				if err != nil {
					return Result{}, err
				}
				return Result{Text: tb.Render(), CSV: tb.CSV(), Values: times,
					Notes: []string{"paper: 9.0 ms declining to 3.2 ms over six trials"}}, nil
			},
		},
		{
			ID:    "fig6",
			Title: "Figure 6: read response time vs trial number",
			Kind:  KindFigure,
			Run: func() (Result, error) {
				fig, times, err := webserver.Figure6(opts.Store, opts.Shed)
				if err != nil {
					return Result{}, err
				}
				return Result{Text: fig.RenderLines(44, 10), CSV: fig.CSV(), Values: times}, nil
			},
		},
		{
			ID:    "vmcompare",
			Title: "Extension (§5 future work): Table 6 workload across virtual machines",
			Kind:  KindTable,
			Run: func() (Result, error) {
				results, err := vmcompare.Compare(nil, opts.Store)
				if err != nil {
					return Result{}, err
				}
				tb := vmcompare.Table(results)
				var values []float64
				for _, r := range results {
					values = append(values, r.WarmupFactor())
				}
				return Result{
					Text:   tb.Render() + "\n" + vmcompare.Figure(results).RenderLines(44, 10),
					CSV:    tb.CSV(),
					Values: values,
					Notes:  []string{"warm-up factors per runtime (SSCLI, CLR, JVM, Native)"},
				}, nil
			},
		},
		{
			ID:    "sensitivity",
			Title: "Calibration sensitivity: which parameters the Figure 4/5 shapes depend on",
			Kind:  KindTable,
			Run: func() (Result, error) {
				tb := metrics.NewTable(
					"Sensitivity of QCRD speedups to machine calibration (paper bands: disks ≤1.3, CPUs 2.1-2.4)",
					"Parameter", "Value", "32-disk speedup", "32-CPU speedup")
				app := appmodel.QCRD()
				sweep := func(label string, mutate func(appmodel.Machine, float64) appmodel.Machine, vals []float64) error {
					for _, v := range vals {
						m := mutate(machine, v)
						diskUp, err := appmodel.Speedups(app, m.WithDisks(1), base, []int{32},
							func(mm appmodel.Machine, n int) appmodel.Machine { return mm.WithDisks(n) })
						if err != nil {
							return err
						}
						cpuUp, err := appmodel.Speedups(app, m.WithCPUs(1), base, []int{32},
							func(mm appmodel.Machine, n int) appmodel.Machine { return mm.WithCPUs(n) })
						if err != nil {
							return err
						}
						tb.AddRow(label, v, diskUp[0], cpuUp[0])
					}
					return nil
				}
				if err := sweep("cpu_parallel_fraction",
					func(m appmodel.Machine, v float64) appmodel.Machine { m.CPUParFrac = v; return m },
					[]float64{0.5, 0.6, 0.75, 0.9}); err != nil {
					return Result{}, err
				}
				if err := sweep("io_queue_depth",
					func(m appmodel.Machine, v float64) appmodel.Machine { m.IOQueueDepth = int(v); return m },
					[]float64{2, 4, 6, 12}); err != nil {
					return Result{}, err
				}
				return Result{Text: tb.Render(), CSV: tb.CSV(),
					Notes: []string{"defaults: cpu_parallel_fraction=0.75, io_queue_depth=6 land inside the paper's bands"}}, nil
			},
		},
		{
			ID:    "catalog",
			Title: "Extension (§2.3 future work): behavioral models for the §3.1 application classes",
			Kind:  KindTable,
			Run: func() (Result, error) {
				tb := metrics.NewTable(
					"Application catalog: requirements (relative units) and baseline execution",
					"Application", "R_CPU", "R_Disk", "R_COM", "IO share (%)",
					"Wall (s, base 60s)", "8-disk speedup")
				sim := appmodel.MustNewSimulator(machine, 60*time.Second)
				for _, app := range appmodel.Catalog() {
					r := app.Requirements()
					res, err := sim.Run(app)
					if err != nil {
						return Result{}, err
					}
					ups, err := appmodel.Speedups(app, machine.WithDisks(1), 60*time.Second,
						[]int{8}, func(m appmodel.Machine, n int) appmodel.Machine { return m.WithDisks(n) })
					if err != nil {
						return Result{}, err
					}
					tb.AddRow(app.Name, r.CPU, r.Disk, r.Comm,
						100*r.Disk/r.Total(), res.Wall.Seconds(), ups[0])
				}
				return Result{Text: tb.Render(), CSV: tb.CSV()}, nil
			},
		},
		{
			ID:    "distload",
			Title: "Extension (§5 future work): distributed load scaling",
			Kind:  KindTable,
			Run: func() (Result, error) {
				cfg, err := opts.distConfig()
				if err != nil {
					return Result{}, err
				}
				results, err := distbench.Sweep(cfg, distbench.NodeSweep)
				if err != nil {
					return Result{}, err
				}
				tb := distbench.Table(results)
				var values []float64
				for _, r := range results {
					values = append(values, r.Throughput)
				}
				notes := []string{"throughput saturates as the server NIC/disk path fills"}
				if cfg.NetFaults != nil {
					notes = append(notes, "net faults: "+cfg.NetFaults.String())
				}
				return Result{
					Text:   tb.Render() + "\n" + distbench.Figure(results).RenderLines(44, 10),
					CSV:    tb.CSV(),
					Values: values,
					Notes:  notes,
				}, nil
			},
		},
	}
}

// tableExperiment adapts a metrics.Table producer to an Experiment.
func tableExperiment(id, title string, run func() (*metrics.Table, error)) Experiment {
	return Experiment{
		ID:    id,
		Title: title,
		Kind:  KindTable,
		Run: func() (Result, error) {
			tb, err := run()
			if err != nil {
				return Result{}, err
			}
			return Result{Text: tb.Render(), CSV: tb.CSV()}, nil
		},
	}
}

// IDs returns every registered experiment id, in paper order; the ids
// do not depend on the options.
func IDs() []string {
	exps := Options{}.Experiments()
	out := make([]string, len(exps))
	for i, e := range exps {
		out[i] = e.ID
	}
	return out
}

// ByID finds an experiment in opts' registry.
func (opts Options) ByID(id string) (Experiment, bool) {
	for _, e := range opts.Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// selectExperiments validates opts and resolves ids ("all" or empty =
// every experiment) against its registry, dropping repeats.
func (opts Options) selectExperiments(ids []string) ([]Experiment, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if len(ids) == 0 || (len(ids) == 1 && ids[0] == "all") {
		return opts.Experiments(), nil
	}
	var selected []Experiment
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			continue
		}
		seen[id] = true
		e, ok := opts.ByID(id)
		if !ok {
			return nil, fmt.Errorf("core: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
		}
		selected = append(selected, e)
	}
	return selected, nil
}

// Run executes the named experiments ("all" or empty = every one) under
// opts and writes their rendered artifacts to w. CSV output is selected
// by format == "csv".
func (opts Options) Run(w io.Writer, ids []string, format string) error {
	selected, err := opts.selectExperiments(ids)
	if err != nil {
		return err
	}
	for _, e := range selected {
		res, err := e.Run()
		if err != nil {
			return fmt.Errorf("core: running %s: %w", e.ID, err)
		}
		res.ID, res.Title, res.Kind = e.ID, e.Title, e.Kind
		fmt.Fprintf(w, "=== %s — %s ===\n", e.ID, e.Title)
		if format == "csv" && res.CSV != "" {
			fmt.Fprint(w, res.CSV)
		} else {
			fmt.Fprint(w, res.Text)
		}
		for _, n := range res.Notes {
			fmt.Fprintf(w, "note: %s\n", n)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// RunToDir executes the named experiments under opts and writes each
// artifact to dir as <id>.txt (and <id>.csv when the experiment has a
// CSV form), creating dir if needed.
func (opts Options) RunToDir(dir string, ids []string) error {
	selected, err := opts.selectExperiments(ids)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: creating %s: %w", dir, err)
	}
	for _, e := range selected {
		res, err := e.Run()
		if err != nil {
			return fmt.Errorf("core: running %s: %w", e.ID, err)
		}
		text := res.Text
		for _, n := range res.Notes {
			text += "note: " + n + "\n"
		}
		if err := os.WriteFile(filepath.Join(dir, e.ID+".txt"), []byte(text), 0o644); err != nil {
			return err
		}
		if res.CSV != "" {
			if err := os.WriteFile(filepath.Join(dir, e.ID+".csv"), []byte(res.CSV), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

// SortIDs sorts experiment ids into paper order; unknown ids go last,
// alphabetically.
func SortIDs(ids []string) {
	order := map[string]int{}
	for i, id := range IDs() {
		order[id] = i
	}
	sort.SliceStable(ids, func(i, j int) bool {
		oi, iok := order[ids[i]]
		oj, jok := order[ids[j]]
		switch {
		case iok && jok:
			return oi < oj
		case iok:
			return true
		case jok:
			return false
		default:
			return ids[i] < ids[j]
		}
	})
}
