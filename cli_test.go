// End-to-end tests of the command-line tools: each binary is built once
// and driven through its main flag combinations.
package repro

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

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
	// Bad config must fail loudly.
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte(`{"cpuz": 2}`), 0o644)
	if _, err := exec.Command(bin, "-config", bad).CombinedOutput(); err == nil {
		t.Fatal("bad config accepted")
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
	// Only serial replay reads the stamps; the other modes must refuse
	// -paced rather than print unpaced numbers.
	for _, mode := range []string{"-concurrent", "-stream", "-sweep"} {
		out, err := exec.Command(bin, "-app", "Pgrep", "-paced", mode, "-filesize", "67108864", "-requests", "40").CombinedOutput()
		if err == nil || !strings.Contains(string(out), "-paced") {
			t.Errorf("-paced %s accepted (err %v):\n%s", mode, err, out)
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
