// End-to-end tests of the command-line tools: each binary is built once
// and driven through its main flag combinations.
package repro

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

var update = flag.Bool("update", false, "rewrite testdata/{clibench,tracebench_sharedq}_*.txt from the current binaries; "+
	"they pin every registry experiment's output at the defaults and under one all-knobs config, "+
	"and the shared-queue replay under FCFS and SCAN, so moving them means moving the model: say so in the change")

// buildTool compiles ./cmd/<name> into a per-test-run temp dir and
// returns the binary path. Builds are cached per test binary run.
var builtTools = map[string]string{}

func buildTool(t *testing.T, name string) string {
	t.Helper()
	if path, ok := builtTools[name]; ok {
		return path
	}
	dir := os.TempDir()
	bin := filepath.Join(dir, "repro-clitest-"+name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	builtTools[name] = bin
	return bin
}

// run executes the tool and returns combined output, failing on error.
func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCLIClibenchList(t *testing.T) {
	bin := buildTool(t, "clibench")
	out := run(t, bin, "-list")
	for _, id := range []string{"fig1", "fig4", "table5", "vmcompare", "distload", "sensitivity"} {
		if !strings.Contains(out, id) {
			t.Errorf("-list missing %s", id)
		}
	}
}

func TestCLIClibenchExperiment(t *testing.T) {
	bin := buildTool(t, "clibench")
	out := run(t, bin, "-experiment", "errorcheck,fig1")
	if !strings.Contains(out, "PASS") || !strings.Contains(out, "Figure 1") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestCLIClibenchCSVAndOutputDir(t *testing.T) {
	bin := buildTool(t, "clibench")
	out := run(t, bin, "-experiment", "fig3", "-format", "csv")
	if !strings.Contains(out, "component,CPU,IO") {
		t.Fatalf("csv output:\n%s", out)
	}
	dir := t.TempDir()
	run(t, bin, "-experiment", "errorcheck", "-output", dir)
	if _, err := os.Stat(filepath.Join(dir, "errorcheck.txt")); err != nil {
		t.Fatal(err)
	}
}

func TestCLIClibenchConfig(t *testing.T) {
	bin := buildTool(t, "clibench")
	cfg := filepath.Join(t.TempDir(), "cfg.json")
	if err := os.WriteFile(cfg, []byte(`{"cpus": 2, "base_seconds": 2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := run(t, bin, "-config", cfg, "-experiment", "errorcheck")
	if !strings.Contains(out, "PASS") {
		t.Fatalf("output:\n%s", out)
	}
	// A bad config must fail loudly, naming the key.
	for key, bad := range map[string]string{"cpuz": `{"cpuz": 2}`, "cache_shards": `{"cache_shards": 6}`,
		"writeback_highwater": `{"writeback_highwater": 4}`, "net_faults": `{"net_faults": "kill:server0@20ms"}`} {
		if err := os.WriteFile(cfg, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command(bin, "-config", cfg, "-experiment", "fig1").CombinedOutput()
		if err == nil || !strings.Contains(string(out), key) {
			t.Errorf("config %s: err %v, output:\n%s", bad, err, out)
		}
	}
}

// TestCLIClibenchGoldens pins the whole registry byte for byte: at the
// defaults, and under a config that sets every store, web and
// distributed knob at once (the files were generated by the binaries of
// the commit before configuration became a value).
func TestCLIClibenchGoldens(t *testing.T) {
	bin := buildTool(t, "clibench")
	for file, args := range map[string][]string{
		"testdata/clibench_all.txt":    {"-experiment", "all"},
		"testdata/clibench_config.txt": {"-config", "testdata/clibench_config.json", "-experiment", "all"},
	} {
		out := run(t, bin, args...)
		if *update {
			if err := os.WriteFile(file, []byte(out), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if out != string(want) {
			t.Errorf("clibench %v differs from %s (-update rewrites it; read the flag's help first)", args, file)
		}
	}
}

// TestCLISharedQueuePolicies pins the 8-lane shared-queue replay byte for
// byte under FCFS and SCAN, as bench/golden/tracebench_sharedq.txt pins
// it under SSTF: how the queue indexes its pending set must never change
// which request it serves, or when.
func TestCLISharedQueuePolicies(t *testing.T) {
	bin := buildTool(t, "tracebench")
	for _, sched := range []string{"fcfs", "scan"} {
		file := "testdata/tracebench_sharedq_" + sched + ".txt"
		out := run(t, bin, "-app", "Parallel", "-workers", "8", "-concurrent", "-shards", "8",
			"-disk-queue", "shared", "-sched", sched, "-requests-detail")
		if *update {
			if err := os.WriteFile(file, []byte(out), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if out != string(want) {
			t.Errorf("tracebench -sched %s differs from %s (-update rewrites it; read the flag's help first)", sched, file)
		}
	}
}

func TestCLITracegenAndTracebench(t *testing.T) {
	gen := buildTool(t, "tracegen")
	benchBin := buildTool(t, "tracebench")
	dir := t.TempDir()
	out := run(t, gen, "-out", dir, "-filesize", "67108864", "-requests", "50")
	if !strings.Contains(out, "Cholesky") {
		t.Fatalf("tracegen output:\n%s", out)
	}
	// Replay one generated file.
	out = run(t, benchBin, "-trace", filepath.Join(dir, "lu.trace"), "-filesize", "67108864")
	if !strings.Contains(out, "seek") || !strings.Contains(out, "replayed") {
		t.Fatalf("tracebench output:\n%s", out)
	}
	// Dump mode.
	out = run(t, benchBin, "-app", "Dmine", "-dump", "-filesize", "67108864", "-requests", "20")
	if !strings.Contains(out, "# sample=") {
		t.Fatalf("dump output:\n%s", out)
	}
	// Tables mode (reduced scale).
	out = run(t, benchBin, "-tables", "-filesize", "67108864", "-requests", "40")
	if !strings.Contains(out, "Table 4") {
		t.Fatalf("tables output:\n%s", out)
	}
}

func TestCLITracebenchConcurrentAndPaced(t *testing.T) {
	bin := buildTool(t, "tracebench")
	out := run(t, bin, "-app", "Pgrep", "-concurrent", "-filesize", "67108864", "-requests", "40")
	if !strings.Contains(out, "read") {
		t.Fatalf("concurrent output:\n%s", out)
	}
	out = run(t, bin, "-app", "Dmine", "-paced", "-filesize", "67108864", "-requests", "20")
	if !strings.Contains(out, "replayed") {
		t.Fatalf("paced output:\n%s", out)
	}
}

// TestCLIRejectedCombinations: a flag the chosen mode cannot honour, or
// a value the store would reject, is an error that names it — never a
// run that silently ignores it.
func TestCLIRejectedCombinations(t *testing.T) {
	small := []string{"-filesize", "67108864", "-requests", "40"}
	cases := []struct {
		tool string
		args []string
		want string // substring of the error
	}{
		// Only serial replay reads the wall-clock stamps.
		{"tracebench", []string{"-app", "Pgrep", "-paced", "-concurrent"}, "-paced"},
		{"tracebench", []string{"-app", "Pgrep", "-paced", "-stream"}, "-paced"},
		{"tracebench", []string{"-app", "Pgrep", "-paced", "-sweep"}, "-paced"},
		{"tracebench", []string{"-app", "Parallel", "-rebuild", "1"}, "-rebuild"},
		{"tracebench", []string{"-app", "Mixed", "-sweep", "-shards", "4"}, "-shards"},
		{"tracebench", []string{"-app", "Dmine", "-real", "-writeback", "8"}, "-writeback"},
		// -tables and -sweep build their stores from the flags too.
		{"tracebench", []string{"-tables", "-shards", "8", "-writeback", "8", "-sched", "scan", "-disk-queue", "shared",
			"-disks", "4", "-raid", "raid5", "-faults", "fail:9@0s"}, "disk 9 out of range"},
		{"tracebench", []string{"-app", "Mixed", "-sweep", "-writeback-highwater", "4"}, "high-water"},
		{"tracebench", []string{"-app", "Dmine", "-shards", "3"}, "power of two"},
		{"tracebench", []string{"-app", "Dmine", "-sched", "elevator"}, "-sched"},
		// Injection rolls on session lanes; serial replay and -tables open none.
		{"tracebench", []string{"-app", "Dmine", "-inject", "seed=7,rate=2"}, "-inject"},
		{"tracebench", []string{"-app", "Dmine", "-inject", "seed=7,rate=2", "-retry", "max=2"}, "-inject"},
		{"tracebench", []string{"-tables", "-concurrent", "-inject", "seed=7,rate=2"}, "-inject"},
		{"tracebench", []string{"-app", "Pgrep", "-concurrent", "-retry", "max=2"}, "-inject"},
		{"webbench", []string{"-mode", "tables", "-shards", "8"}, "-shards"},
		{"webbench", []string{"-mode", "servefs", "-writeback", "8"}, "-writeback"},
		{"webbench", []string{"-mode", "load", "-sched", "sstf"}, "-sched"},
		{"webbench", []string{"-mode", "serve", "-addr", "127.0.0.1:0", "-spares", "2"}, "-spares"},
		{"webbench", []string{"-mode", "serve", "-addr", "127.0.0.1:0", "-disk-queue", "shared"}, "-lanes"},
		{"webbench", []string{"-mode", "degraded", "-addr", "127.0.0.1:0", "-lanes"}, "-lanes"},
		{"webbench", []string{"-mode", "degraded", "-addr", "127.0.0.1:0", "-rebuild", "x"}, "-rebuild"},
		{"webbench", []string{"-mode", "bogus"}, "bogus"},
		// Only the injection gate reads the retry policy, and webbench has
		// no -inject (the invalid -shards keeps a parent build from serving).
		{"webbench", []string{"-mode", "serve", "-addr", "127.0.0.1:0", "-retry", "max=2", "-shards", "3"}, "-retry"},
		{"distbench", []string{"-faults", "fail:5@0s", "-raid", "raid1", "-disks", "2"}, "disk 5 out of range"},
		{"distbench", []string{"-spares", "-1"}, "spare"},
		{"distbench", []string{"-rebuild", "1,x"}, "-rebuild"},
	}
	for _, tc := range cases {
		args := tc.args
		if tc.tool == "tracebench" {
			args = append(slices.Clone(args), small...)
		}
		out, err := exec.Command(buildTool(t, tc.tool), args...).CombinedOutput()
		if err == nil || !strings.Contains(string(out), tc.want) {
			t.Errorf("%s %v: err %v, want an error naming %q:\n%s", tc.tool, tc.args, err, tc.want, out)
		}
	}
}

// TestREADMEKnobTable checks README's configuration table against the
// built tools: a binary's -h lists a flag exactly when the row says the
// binary accepts it, and every JSON key is one LoadOptions knows.
func TestREADMEKnobTable(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, _ := strings.Cut(string(readme), "<!-- knobs:begin")
	table, _, ok := strings.Cut(table, "<!-- knobs:end")
	if !ok {
		t.Fatal("README has no knobs:begin/knobs:end table")
	}
	accepts := map[string][]string{} // flag -> binaries, over all its rows
	for _, row := range regexp.MustCompile("(?m)^\\| `.*\\| (`\\w+`|—) \\| `-([a-z-]+)` \\| (.*) \\|$").FindAllStringSubmatch(table, -1) {
		if key := strings.Trim(row[1], "`"); key != "—" {
			if _, err := core.LoadOptions(strings.NewReader(`{"` + key + `": null}`)); err != nil {
				t.Errorf("row -%s: JSON key: %v", row[2], err)
			}
		}
		accepts[row[2]] = append(accepts[row[2]], strings.Split(row[3], ", ")...)
	}
	if len(accepts) < 15 {
		t.Fatalf("parsed only %d flags out of the README table", len(accepts))
	}
	for _, tool := range []string{"tracebench", "webbench", "distbench"} {
		help, _ := exec.Command(buildTool(t, tool), "-h").CombinedOutput()
		for name, tools := range accepts {
			has := regexp.MustCompile(`(?m)^  -` + name + `( |$)`).Match(help)
			if listed := slices.Contains(tools, tool); has != listed {
				t.Errorf("%s -h lists -%s: %v; README says: %v", tool, name, has, listed)
			}
		}
	}
}

func TestCLIQcrdsim(t *testing.T) {
	bin := buildTool(t, "qcrdsim")
	out := run(t, bin, "-cpus", "4", "-disks", "2", "-base", "2s", "-analytic")
	for _, want := range []string{"QCRD", "Program1", "Program2", "R_CPU", "Simulator-vs-analytic"} {
		if !strings.Contains(out, want) {
			t.Errorf("qcrdsim missing %q:\n%s", want, out)
		}
	}
}

func TestCLIWebbenchTables(t *testing.T) {
	bin := buildTool(t, "webbench")
	out := run(t, bin, "-mode", "tables")
	for _, want := range []string{"Table 5", "Table 6", "Figure 6"} {
		if !strings.Contains(out, want) {
			t.Errorf("webbench missing %q", want)
		}
	}
}
