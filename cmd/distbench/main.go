// Distbench runs the distributed benchmark standalone: client nodes
// issue file requests over the simulated fabric to replicated servers,
// sweeping the client count. With a deadline the clients route by
// consistent hash and fail over past dead replicas; a net-fault plan
// kills server nodes or drops links mid-run, and the availability curve
// shows how deep the throughput dipped and how long recovery took.
//
// Usage:
//
//	distbench
//	distbench -nodes 1,2,4,8 -servers 3
//	distbench -servers 3 -deadline 5ms -retry "max=3,base=200us" -net-faults "kill:server0@20ms"
//	distbench -servers 3 -deadline 5ms -retry "max=3,base=200us" -net-faults "kill:server0@20ms" \
//	    -disks 3 -raid raid1 -faults "fail:1@0s,fail:2@0s" -spares 2 -rebuild 1,2
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/distbench"
	"repro/internal/fsim"
	"repro/internal/netsim"
)

func main() {
	var (
		nodes     = flag.String("nodes", "", `client-node counts to sweep, e.g. "1,2,4,8" (empty = the default sweep)`)
		servers   = flag.Int("servers", 1, "replicated server nodes")
		requests  = flag.Int("requests", 64, "requests per client node")
		workers   = flag.Int("workers", 4, "worker threads per server")
		wan       = flag.Bool("wan", false, "use the WAN interconnect instead of the LAN")
		deadline  = flag.Duration("deadline", 0, "client RPC deadline; 0 = never expires (static client-to-replica routing)")
		retry     = flag.String("retry", "", `failover retry policy, e.g. "max=3,base=200us"`)
		netFaults = flag.String("net-faults", "", `fabric fault plan, e.g. "kill:server0@20ms,drop:link1@10ms+5ms"`)
		rebuild   = flag.String("rebuild", "", `members every server rebuilds while serving, e.g. "1,2"`)
		curve     = flag.Bool("curve", true, "print the availability curve of the largest fault-aware run")
		tune      fsim.Tuning // each server's store
	)
	tune.RegisterFlags(flag.CommandLine, "disks", "raid", "faults", "spares")
	flag.Parse()

	cfg := distbench.DefaultConfig()
	cfg.Servers = *servers
	cfg.RequestsPerNode = *requests
	cfg.ServerWorkers = *workers
	if *wan {
		cfg.Net = netsim.WANParams()
	}
	cfg.Deadline = *deadline
	var err error
	if cfg.Retry, err = fsim.ParseRetrySpec(*retry); err != nil {
		fatal(err)
	}
	if cfg.NetFaults, err = netsim.ParseFaultPlan(*netFaults); err != nil {
		fatal(err)
	}
	if cfg.Store, err = tune.Apply(cfg.Store); err != nil {
		fatal(err)
	}
	if cfg.RebuildMembers, err = fsim.ParseMembers(*rebuild); err != nil {
		fatal(err)
	}

	sweep := distbench.NodeSweep
	if *nodes != "" {
		sweep = nil
		for _, part := range strings.Split(*nodes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				fatal(fmt.Errorf("-nodes: bad count %q", part))
			}
			sweep = append(sweep, n)
		}
	}

	results, err := distbench.Sweep(cfg, sweep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(distbench.Table(results).Render())
	fmt.Println(distbench.Figure(results).RenderLines(44, 10))

	last := results[len(results)-1]
	if cfg.Deadline > 0 && *curve {
		fmt.Printf("largest run (%d nodes):\n", last.Nodes)
		fmt.Print(distbench.FormatCurve(last))
	}
	if len(last.RebuildMembers) > 0 {
		for _, m := range last.RebuildMembers {
			fmt.Printf("rebuild (per server): member %d reconstructed, %d blocks (%d spare writes)\n",
				m.Member, m.Rows, m.Writes)
		}
		fmt.Printf("rebuild: %d blocks across servers, slowest copy %.2f ms (simulated)\n",
			last.RebuildRows, last.RebuildMS)
	}
	if last.Lost > 0 {
		fmt.Printf("warning: %d requests exhausted their retry budget\n", last.Lost)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "distbench: %v\n", err)
	os.Exit(1)
}
