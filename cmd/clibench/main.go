// Clibench regenerates every table and figure of "Benchmarking the CLI
// for I/O-Intensive Computing" (Qin & Xie, IPDPS'05).
//
// Usage:
//
//	clibench -list
//	clibench -experiment all
//	clibench -experiment fig4,table5 -format csv
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "comma-separated experiment ids, or 'all'")
		format     = flag.String("format", "text", "output format: text or csv")
		list       = flag.Bool("list", false, "list available experiments and exit")
		outDir     = flag.String("output", "", "write each artifact to this directory instead of stdout")
		configPath = flag.String("config", "", "JSON config overriding machine/trace parameters")
	)
	flag.Parse()

	opts := core.DefaultOptions()
	if *configPath != "" {
		f, err := os.Open(*configPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "clibench: %v\n", err)
			os.Exit(1)
		}
		opts, err = core.LoadOptions(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "clibench: %v\n", err)
			os.Exit(1)
		}
	}

	if *list {
		for _, e := range opts.Experiments() {
			fmt.Printf("%-12s %-7s %s\n", e.ID, e.Kind, e.Title)
		}
		return
	}
	if *format != "text" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "clibench: unknown format %q (want text or csv)\n", *format)
		os.Exit(2)
	}
	ids := strings.Split(*experiment, ",")
	for i := range ids {
		ids[i] = strings.TrimSpace(ids[i])
	}
	core.SortIDs(ids)
	if *outDir != "" {
		if err := opts.RunToDir(*outDir, ids); err != nil {
			fmt.Fprintf(os.Stderr, "clibench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("artifacts written to %s\n", *outDir)
		return
	}
	if err := opts.Run(os.Stdout, ids, *format); err != nil {
		fmt.Fprintf(os.Stderr, "clibench: %v\n", err)
		os.Exit(1)
	}
}
