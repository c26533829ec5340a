// Package repro's claims checklist: every quantitative or qualitative
// claim the paper's prose makes about its results, asserted end to end
// against this reproduction. Each test names the claim and the section it
// comes from. These run the full experiment pipelines (reduced scale
// where the full scale only changes constants).
package repro

import (
	"testing"
	"time"

	"repro/internal/appmodel"
	"repro/internal/fsim"
	"repro/internal/trace"
	"repro/internal/tracegen"
	"repro/internal/tracesim"
	"repro/internal/vmcompare"
	"repro/internal/webserver"
)

// claimBase keeps behavioral-model claims fast; the shapes are scale-free.
const claimBase = 2 * time.Second

func claimTraceParams() tracegen.Params {
	p := tracegen.DefaultParams()
	p.FileSize = 128 << 20
	p.Requests = 100
	return p
}

// §2.3: "the speedup changes slightly with the increasing value of the
// disk number" — disk speedup is flat and modest.
func TestClaimDiskSpeedupFlat(t *testing.T) {
	_, speedups, err := appmodel.Figure4(appmodel.DefaultMachine(), claimBase)
	if err != nil {
		t.Fatal(err)
	}
	spread := speedups[len(speedups)-1] - speedups[0]
	if spread > 0.5 {
		t.Fatalf("disk speedup spread %.2f too large for 'changes slightly': %v", spread, speedups)
	}
	if speedups[len(speedups)-1] > 1.5 {
		t.Fatalf("disk speedup %.2f exceeds the paper's modest ceiling", speedups[len(speedups)-1])
	}
}

// §2.3: "it is expected to efficiently improve the performance of QCRD by
// increasing the number of CPUs" — CPU speedup clearly dominates.
func TestClaimCPUSpeedupDominates(t *testing.T) {
	_, disks, err := appmodel.Figure4(appmodel.DefaultMachine(), claimBase)
	if err != nil {
		t.Fatal(err)
	}
	_, cpus, err := appmodel.Figure5(appmodel.DefaultMachine(), claimBase)
	if err != nil {
		t.Fatal(err)
	}
	if cpus[len(cpus)-1] < disks[len(disks)-1]+0.5 {
		t.Fatalf("CPU speedup %.2f does not clearly dominate disk speedup %.2f",
			cpus[len(cpus)-1], disks[len(disks)-1])
	}
}

// §2.3: "the speedup is dominated by the first program of the
// application, and the first program runs longer than the second".
func TestClaimProgram1Dominates(t *testing.T) {
	sim := appmodel.MustNewSimulator(appmodel.DefaultMachine(), claimBase)
	res, err := sim.Run(appmodel.QCRD())
	if err != nil {
		t.Fatal(err)
	}
	if res.Programs[0].Wall <= res.Programs[1].Wall {
		t.Fatal("program 1 does not run longer than program 2")
	}
	if res.Wall != res.Programs[0].Wall {
		t.Fatal("application makespan not set by program 1")
	}
}

// §2.3: "compare the simulated result with that generated from a real
// implementation, the error rate is less than 10%" — our analog compares
// the discrete-event simulator to the closed-form model.
func TestClaimModelErrorUnder10Percent(t *testing.T) {
	errRate, err := appmodel.SimulatorError(appmodel.QCRD(), appmodel.DefaultMachine(), claimBase)
	if err != nil {
		t.Fatal(err)
	}
	if errRate >= 0.10 {
		t.Fatalf("model error %.1f%% ≥ 10%%", errRate*100)
	}
}

// §3.4: "for all trace files the time spent closing a file was longer
// than the time taken to open the file".
func TestClaimCloseSlowerThanOpenAllTraces(t *testing.T) {
	for _, app := range tracegen.AppNames {
		rep, err := tracesim.RunApp(app, claimTraceParams(), fsim.Tuning{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Close.Mean() <= rep.Open.Mean() {
			t.Errorf("%s: close %.6g ms not slower than open %.6g ms",
				app, rep.Close.Mean(), rep.Open.Mean())
		}
	}
}

// §3.4: "reading 28048 bytes takes more time than reading 133692 bytes
// ... because a page fault occurs".
func TestClaimCholeskyPageFaultInversion(t *testing.T) {
	rep, err := tracesim.RunApp("Cholesky", claimTraceParams(), fsim.Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	var small, large float64
	for _, r := range rep.Requests {
		if r.Op != trace.OpRead {
			continue // a seek row's Size is its target offset, not a length
		}
		switch r.Size {
		case 28048:
			small = r.ReadMS
		case 84140:
			large = r.ReadMS
		}
	}
	if small == 0 || large == 0 {
		t.Fatal("inversion pair not found in replay")
	}
	if small <= large {
		t.Fatalf("cold 28048-byte read %.4f ms not slower than warm 84140-byte read %.4f ms",
			small, large)
	}
}

// §4.2: "the first file I/O operation by the server takes more time than
// the subsequent read or write operations".
func TestClaimFirstServerIOOperationSlowest(t *testing.T) {
	_, times, err := webserver.Table6(fsim.Tuning{}, webserver.ShedPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(times); i++ {
		if times[i] >= times[0] {
			t.Fatalf("trial %d (%.3f ms) not below trial 1 (%.3f ms)", i+1, times[i], times[0])
		}
	}
}

// §4.2 explanation 2: "there is a delay caused by the JIT compiler when
// the web server is handling the first read or write request" — with the
// JIT disabled (native profile) the first-trial penalty largely vanishes.
func TestClaimJITCausesFirstRequestDelay(t *testing.T) {
	results, err := vmcompare.Compare(nil, fsim.Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	var sscli, native vmcompare.ProfileResult
	for _, r := range results {
		switch r.Profile.Name {
		case "SSCLI":
			sscli = r
		case "Native":
			native = r
		}
	}
	if sscli.FirstTrialMS() < 10*native.FirstTrialMS() {
		t.Fatalf("JIT share of first-trial cost too small: SSCLI %.3f ms vs native %.3f ms",
			sscli.FirstTrialMS(), native.FirstTrialMS())
	}
}

// §5 (conclusion): "the CLI is a potential virtual machine for
// I/O-intensive computing" — steady-state managed I/O is within a small
// factor of the native baseline.
func TestClaimManagedSteadyStateCompetitive(t *testing.T) {
	results, err := vmcompare.Compare(nil, fsim.Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	var sscli, native vmcompare.ProfileResult
	for _, r := range results {
		switch r.Profile.Name {
		case "SSCLI":
			sscli = r
		case "Native":
			native = r
		}
	}
	ratio := sscli.SteadyMS() / native.SteadyMS()
	if ratio > 2.0 {
		t.Fatalf("steady-state managed/native ratio %.2f undermines the paper's conclusion", ratio)
	}
}

// §4.1: "no synchronization is required for write operations" because
// every POST writes a fresh file — concurrent POSTs must produce distinct
// files with intact contents.
func TestClaimPostsNeedNoSynchronization(t *testing.T) {
	h, err := webserver.NewHarness(fsim.Tuning{}, webserver.ShedPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	const posts = 12
	done := make(chan error, posts)
	for i := 0; i < posts; i++ {
		go func(i int) {
			c, err := webserver.Dial(h.ServerAddr())
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			_, err = c.Post("x", []byte{byte(i)})
			done <- err
		}(i)
	}
	for i := 0; i < posts; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	files := map[string]bool{}
	for _, rec := range h.Server.Records() {
		if rec.Kind == webserver.KindPost {
			files[rec.File] = true
		}
	}
	if len(files) != posts {
		t.Fatalf("%d concurrent POSTs produced %d distinct files", posts, len(files))
	}
}
