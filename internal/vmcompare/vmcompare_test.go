package vmcompare

import (
	"strings"
	"testing"

	"repro/internal/fsim"
	"repro/internal/vm"
)

func TestCompareAllProfiles(t *testing.T) {
	results, err := Compare(nil, fsim.Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4 profiles", len(results))
	}
	for _, r := range results {
		if len(r.TrialMS) != Trials {
			t.Fatalf("%s: %d trials", r.Profile.Name, len(r.TrialMS))
		}
		for i, ms := range r.TrialMS {
			if ms <= 0 {
				t.Fatalf("%s trial %d: non-positive latency %v", r.Profile.Name, i+1, ms)
			}
		}
	}
}

func TestManagedRuntimesWarmUp(t *testing.T) {
	results, err := Compare(nil, fsim.Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ProfileResult{}
	for _, r := range results {
		byName[r.Profile.Name] = r
	}
	// Every JIT-ing runtime shows a first-trial penalty; native does not.
	for _, name := range []string{"SSCLI", "CLR", "JVM"} {
		if f := byName[name].WarmupFactor(); f < 1.5 {
			t.Errorf("%s warm-up factor %.2f, want ≥ 1.5", name, f)
		}
	}
	native := byName["Native"]
	// Native's first trial still pays the cold page cache, but far less
	// than SSCLI's JIT-dominated first trial.
	if native.FirstTrialMS() >= byName["SSCLI"].FirstTrialMS() {
		t.Errorf("native first trial %.3f not below SSCLI %.3f",
			native.FirstTrialMS(), byName["SSCLI"].FirstTrialMS())
	}
	// SSCLI is the slowest starter of the four — that is the paper's
	// platform.
	for _, name := range []string{"CLR", "JVM", "Native"} {
		if byName[name].FirstTrialMS() >= byName["SSCLI"].FirstTrialMS() {
			t.Errorf("%s first trial %.3f not below SSCLI %.3f",
				name, byName[name].FirstTrialMS(), byName["SSCLI"].FirstTrialMS())
		}
	}
}

func TestSteadyStatesConverge(t *testing.T) {
	// Warm trials are dominated by the (shared) storage path, so all
	// runtimes converge within an order of magnitude.
	results, err := Compare(nil, fsim.Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	min, max := results[0].SteadyMS(), results[0].SteadyMS()
	for _, r := range results {
		s := r.SteadyMS()
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	if max > 10*min {
		t.Fatalf("steady states diverge: min %.4f max %.4f", min, max)
	}
}

func TestCompareSubset(t *testing.T) {
	results, err := Compare([]vm.Profile{vm.ProfileJVM()}, fsim.Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Profile.Name != "JVM" {
		t.Fatalf("subset results: %+v", results)
	}
}

func TestTableAndFigure(t *testing.T) {
	results, err := Compare(nil, fsim.Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	tb := Table(results).Render()
	for _, want := range []string{"SSCLI", "CLR", "JVM", "Native", "Warm-up factor"} {
		if !strings.Contains(tb, want) {
			t.Errorf("table missing %q", want)
		}
	}
	fig := Figure(results).RenderLines(40, 10)
	if !strings.Contains(fig, "SSCLI") {
		t.Fatalf("figure render:\n%s", fig)
	}
}

func TestDeterministic(t *testing.T) {
	a, err := Compare(nil, fsim.Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compare(nil, fsim.Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for j := range a[i].TrialMS {
			if a[i].TrialMS[j] != b[i].TrialMS[j] {
				t.Fatalf("nondeterministic at %d/%d", i, j)
			}
		}
	}
}
