// Quickstart shows the three-line path to regenerating the paper's
// results: pick experiments from the core registry and run them.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
)

func main() {
	fmt.Println("CLI I/O benchmark suite — quickstart")
	fmt.Println("Available experiments:")
	for _, e := range core.DefaultOptions().Experiments() {
		fmt.Printf("  %-12s %s\n", e.ID, e.Title)
	}
	fmt.Println()

	// Regenerate one artifact from each of the paper's three benchmarks:
	// the model-error check (benchmark 1), the Cholesky table (benchmark
	// 2), and the web server warm-up table (benchmark 3).
	if err := core.DefaultOptions().Run(os.Stdout, []string{"errorcheck", "table4", "table6"}, "text"); err != nil {
		log.Fatal(err)
	}
}
