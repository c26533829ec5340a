package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
)

// goldens are the fidelity check. The model is unvalidated against
// hardware (the repository holds no reference measurements), so instead
// of an error figure the benchmark refuses to report unless the paper
// tables and the deterministic contention, fault and availability
// reports are byte-identical to the files in golden/: a change meant
// only to speed the simulator up must leave every simulated statistic
// alone.
var goldens = []struct {
	file, bin string
	args      []string
}{
	{"tracebench_tables.txt", "tracebench", []string{"-tables"}},
	{"webbench_tables.txt", "webbench", []string{"-mode", "tables"}},
	{"qcrdsim.txt", "qcrdsim", nil},
	{"distbench_default.txt", "distbench", nil},
	// The node-kill leg of `make bench-avail`.
	{"distbench_kill.txt", "distbench", []string{"-nodes", "8", "-servers", "3", "-requests", "32",
		"-deadline", "5ms", "-retry", "max=3,base=200us", "-net-faults", "kill:server0@20ms"}},
	{"tracebench_sharedq.txt", "tracebench", []string{"-app", "Parallel", "-workers", "8", "-concurrent",
		"-shards", "8", "-disk-queue", "shared", "-sched", "sstf", "-requests-detail"}},
}

// checkGoldens runs every golden command and returns the files whose
// output differs; with update set it rewrites them instead.
func (h *harness) checkGoldens(ctx context.Context, update bool) (differ []string, err error) {
	dir := filepath.Join(h.root, "bench", "golden")
	for _, g := range goldens {
		c, err := runChild(ctx, h.bin(g.bin), g.args...)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, g.file)
		if update {
			if err := os.WriteFile(path, c.stdout, 0o644); err != nil {
				return nil, err
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("golden %s: %w (regenerate with -update-golden)", g.file, err)
		}
		if !bytes.Equal(c.stdout, want) {
			differ = append(differ, g.file)
		}
	}
	return differ, nil
}
