// Vmcompare runs the paper's future-work comparison (§5): the Table 6
// repeated-read workload under four managed-runtime calibrations — the
// SSCLI the paper measured, a commercial CLR, a HotSpot-style JVM, and a
// native-AOT baseline — all on identical simulated storage, so the
// differences are purely the runtimes'.
//
//	go run ./examples/vmcompare
package main

import (
	"fmt"
	"log"

	"repro/internal/fsim"
	"repro/internal/vm"
	"repro/internal/vmcompare"
)

func main() {
	for _, p := range vm.Profiles() {
		fmt.Printf("%-8s %s\n", p.Name, p.Description)
	}
	fmt.Println()

	results, err := vmcompare.Compare(nil, fsim.Tuning{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(vmcompare.Table(results).Render())
	fmt.Println(vmcompare.Figure(results).RenderLines(44, 10))

	// The paper's conclusion, quantified across runtimes: the CLI's
	// first-touch penalty is a JIT artifact, not an I/O limitation.
	var sscli, native vmcompare.ProfileResult
	for _, r := range results {
		switch r.Profile.Name {
		case "SSCLI":
			sscli = r
		case "Native":
			native = r
		}
	}
	jitShare := (sscli.FirstTrialMS() - native.FirstTrialMS()) / sscli.FirstTrialMS() * 100
	fmt.Printf("SSCLI first-read penalty attributable to the managed runtime: %.1f%%\n", jitShare)
	fmt.Printf("steady-state gap SSCLI vs native: %.2fx\n", sscli.SteadyMS()/native.SteadyMS())
}
