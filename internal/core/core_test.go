package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig2", "fig3", "fig4", "fig5", "errorcheck",
		"table1", "table2", "table3", "table4", "table5", "table6", "fig6",
		"vmcompare", "sensitivity", "catalog", "distload",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestByID(t *testing.T) {
	e, ok := DefaultOptions().ByID("fig4")
	if !ok || e.ID != "fig4" || e.Kind != KindFigure {
		t.Fatalf("ByID(fig4) = %+v, %v", e, ok)
	}
	if _, ok := DefaultOptions().ByID("nope"); ok {
		t.Fatal("unknown id found")
	}
}

func TestKindString(t *testing.T) {
	if KindTable.String() != "table" || KindFigure.String() != "figure" || KindCheck.String() != "check" {
		t.Fatal("kind names wrong")
	}
	if Kind(9).String() != "kind(9)" {
		t.Fatal("unknown kind name wrong")
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := DefaultOptions().Run(&buf, []string{"errorcheck"}, "text"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "errorcheck") || !strings.Contains(out, "PASS") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := DefaultOptions().Run(&bytes.Buffer{}, []string{"bogus"}, "text"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunDeduplicates(t *testing.T) {
	var buf bytes.Buffer
	if err := DefaultOptions().Run(&buf, []string{"errorcheck", "errorcheck"}, "text"); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "=== errorcheck"); n != 1 {
		t.Fatalf("duplicate id ran %d times", n)
	}
}

func TestRunCSVFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := DefaultOptions().Run(&buf, []string{"fig3"}, "csv"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "component,CPU,IO") {
		t.Fatalf("csv output:\n%s", buf.String())
	}
}

func TestSortIDs(t *testing.T) {
	ids := []string{"table6", "fig2", "zzz", "table1", "aaa"}
	SortIDs(ids)
	want := []string{"fig2", "table1", "table6", "aaa", "zzz"}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("SortIDs = %v, want %v", ids, want)
		}
	}
}

// TestRunWebExperiments exercises the experiments that stand up real TCP
// servers; the appmodel full-scale runs are covered by TestRunAll below.
func TestRunWebExperiments(t *testing.T) {
	var buf bytes.Buffer
	if err := DefaultOptions().Run(&buf, []string{"table5", "table6"}, "text"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 5", "Table 6", "7501", "14063"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output", want)
		}
	}
}

func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite run in -short mode")
	}
	var buf bytes.Buffer
	if err := DefaultOptions().Run(&buf, []string{"all"}, "text"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range IDs() {
		if !strings.Contains(out, "=== "+id) {
			t.Errorf("suite output missing experiment %s", id)
		}
	}
}

func TestRunToDir(t *testing.T) {
	dir := t.TempDir()
	if err := DefaultOptions().RunToDir(dir, []string{"errorcheck", "fig1"}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"errorcheck.txt", "fig1.txt"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Errorf("missing artifact %s: %v", want, err)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "errorcheck.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "PASS") {
		t.Fatalf("artifact contents:\n%s", data)
	}
}

func TestRunToDirUnknownExperiment(t *testing.T) {
	err := DefaultOptions().RunToDir(t.TempDir(), []string{"bogus"})
	if err == nil {
		t.Fatal("unknown id accepted")
	}
	// Run and RunToDir select through one helper: same error, naming
	// the ids that do exist.
	if runErr := DefaultOptions().Run(&bytes.Buffer{}, []string{"bogus"}, "text"); runErr.Error() != err.Error() || !strings.Contains(err.Error(), "fig1") {
		t.Fatalf("RunToDir: %v\nRun:      %v", err, runErr)
	}
}
