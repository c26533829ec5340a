package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// testHarness builds the binaries once into the checkout's bench/out,
// the way an invocation does.
func testHarness(t *testing.T) *harness {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{root: root, out: filepath.Join(root, "bench", "out"), seed: 1}
	h.work = t.TempDir()
	if err := h.build(context.Background()); err != nil {
		t.Fatal(err)
	}
	return h
}

func names[T any](items []T, name func(T) string) []string {
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = name(it)
	}
	sort.Strings(out)
	return out
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("%s:\n got  %v\n want %v", what, got, want)
	}
}

func leftoverRunDirs(t *testing.T, h *harness) []string {
	t.Helper()
	dirs, err := filepath.Glob(filepath.Join(h.out, "run-*"))
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// TestSmallScaleMatchesManifest runs every workload both ways at 1% of
// the sizes and holds the emitted JSON to BENCHMARK.json: the same
// workloads, exactly the metrics of the mode, every value finite.
func TestSmallScaleMatchesManifest(t *testing.T) {
	h := testHarness(t)
	mf, err := loadManifest(filepath.Join(h.root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	metricName := func(m manifestMetric) string { return m.Name }
	wantWorkloads := names(mf.Workloads, func(w manifestWorkload) string { return w.Name })
	sameNames(t, "workloads in code", names(workloads(1), func(w workloadDef) string { return w.name }), wantWorkloads)

	for trace, want := range [][]string{names(mf.EndToEnd, metricName), names(mf.PerLayer, metricName)} {
		path := filepath.Join(t.TempDir(), "results.json")
		var stdout, stderr bytes.Buffer
		code := run(context.Background(), []string{"-scale", "0.01", "-seconds", "0.001", "-trace", string(rune('0' + trace)), "-json", path}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %d: exit %d\n%s%s", trace, code, stdout.String(), stderr.String())
		}
		res, err := readResults(path)
		if err != nil {
			t.Fatal(err)
		}
		sameNames(t, "workloads in results", keys(res.Workloads), wantWorkloads)
		for name, w := range res.Workloads {
			sameNames(t, name+" metrics", keys(w.Metrics), want)
			if !w.Correct || w.Failed != 0 || w.Attempted < 1 {
				t.Errorf("%s: correct %v, attempted %d, failed %d", name, w.Correct, w.Attempted, w.Failed)
			}
			for metric, m := range w.Metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s %s = %v", name, metric, m.Value)
				}
				if trace == 0 && m.Value <= 0 {
					t.Errorf("%s %s = %v: end-to-end metrics are never 0", name, metric, m.Value)
				}
			}
		}
	}
	if dirs := leftoverRunDirs(t, h); len(dirs) > 0 {
		t.Errorf("scratch directories left behind: %v", dirs)
	}
}

// TestContractLine checks the last line of a single-workload run.
func TestContractLine(t *testing.T) {
	testHarness(t)
	var stdout, stderr bytes.Buffer
	path := filepath.Join(t.TempDir(), "r.json")
	code := run(context.Background(), []string{"--workload", "replay_cold", "--seed", "2", "--seconds", "0.001", "--trace", "0", "-scale", "0.01", "-json", path}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	sameNames(t, "contract keys", keys(line), []string{"attempted", "correct", "failed", "metrics"})
	var metrics map[string]map[string]json.RawMessage
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	sameNames(t, "contract metrics", keys(metrics), names(endToEnd, func(d metricDef) string { return d.name }))
	for name, m := range metrics {
		sameNames(t, name+" keys", keys(m), []string{"unit", "value"})
	}
}

// TestFailureCleansUp runs under a clock that has already expired: the
// exit code is non-zero, no result line is printed and the scratch
// directory is gone.
func TestFailureCleansUp(t *testing.T) {
	h := testHarness(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	var stdout, stderr bytes.Buffer
	code := run(ctx, []string{"-workload", "web_loopback", "-scale", "0.01", "-json", filepath.Join(t.TempDir(), "r.json")}, &stdout, &stderr)
	if code == 0 {
		t.Error("exit 0 from a run whose clock had expired")
	}
	if strings.Contains(stdout.String(), `"correct"`) {
		t.Errorf("a failed run printed a result line:\n%s", stdout.String())
	}
	// The same expiry inside a workload, past the build: the unit that
	// could not be measured counts as a failure.
	web, err := findWorkload(workloads(0.01), "web_loopback")
	if err != nil {
		t.Fatal(err)
	}
	if res, err := h.endToEndRun(ctx, web, 0.001); err == nil || res.Failed == 0 {
		t.Errorf("endToEndRun under an expired clock: failed %d, err %v", res.Failed, err)
	}
	if dirs := leftoverRunDirs(t, h); len(dirs) > 0 {
		t.Errorf("scratch directories left behind: %v", dirs)
	}
}

// TestServerStopsWithContext starts the real server, reaches it on the
// address parsed from its "serving benchmark corpus on" line, and checks
// that ending the context kills it.
func TestServerStopsWithContext(t *testing.T) {
	h := testHarness(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := h.startServer(ctx)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialTimeout("tcp", srv.addr, 2*time.Second)
	if err != nil {
		t.Fatalf("server not reachable on parsed address %q: %v", srv.addr, err)
	}
	conn.Close()
	cancel()
	if _, _, err := srv.stop(); err == nil {
		t.Error("a killed server reported a clean exit")
	}
	if srv.cmd.ProcessState == nil {
		t.Fatal("server not reaped")
	}
	if conn, err := net.DialTimeout("tcp", srv.addr, time.Second); err == nil {
		conn.Close()
		t.Errorf("%s still accepts connections after the context ended", srv.addr)
	}
}

func TestVerdict(t *testing.T) {
	lower := manifestMetric{Name: "lat", Better: "lower", Bound: 0.10}
	higher := manifestMetric{Name: "ops", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		a, b metricResult
		m    manifestMetric
		want string
	}{
		{metricResult{Value: 100, Spread: 0.02}, metricResult{Value: 105, Spread: 0.02}, lower, "agree"},
		{metricResult{Value: 100, Spread: 0.02}, metricResult{Value: 115, Spread: 0.02}, lower, "differ"},
		{metricResult{Value: 100, Spread: 0.02}, metricResult{Value: 50, Spread: 0.02}, lower, "agree"},
		{metricResult{Value: 100, Spread: 0.02}, metricResult{Value: 85, Spread: 0.02}, higher, "differ"},
		{metricResult{Value: 100, Spread: 0.02}, metricResult{Value: 130, Spread: 0.02}, higher, "agree"},
		{metricResult{Value: 100, Spread: 0.30}, metricResult{Value: 101, Spread: 0.02}, lower, "unresolved"},
	} {
		if got := verdict(c.a, c.b, c.m); got != c.want {
			t.Errorf("verdict(%v, %v, %s) = %s, want %s", c.a.Value, c.b.Value, c.m.Better, got, c.want)
		}
	}
}
