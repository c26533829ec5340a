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
	"repro/internal/simdisk"
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
		disks     = flag.Int("disks", 0, "simulated disks in each server's array (0 = config default)")
		raid      = flag.String("raid", "", "array redundancy: raid0 | raid1 | raid5 (empty = config default)")
		faults    = flag.String("faults", "", `per-server device fault plan, e.g. "fail:1@0s"`)
		spares    = flag.Int("spares", 0, "hot-spare pool size per server (0 = none)")
		rebuild   = flag.String("rebuild", "", `members every server rebuilds while serving, e.g. "1,2"`)
		curve     = flag.Bool("curve", true, "print the availability curve of the largest fault-aware run")
	)
	flag.Parse()

	cfg := distbench.DefaultConfig()
	cfg.Servers = *servers
	cfg.RequestsPerNode = *requests
	cfg.ServerWorkers = *workers
	if *wan {
		cfg.Net = netsim.WANParams()
	}
	cfg.Deadline = *deadline
	if *retry != "" {
		pol, err := fsim.ParseRetrySpec(*retry)
		if err != nil {
			fatal(err)
		}
		cfg.Retry = pol
	}
	if *netFaults != "" {
		plan, err := netsim.ParseFaultPlan(*netFaults)
		if err != nil {
			fatal(err)
		}
		cfg.NetFaults = plan
	}
	if *disks > 0 {
		cfg.Store.Disks = *disks
	}
	if *raid != "" {
		level, err := simdisk.ParseLevel(*raid)
		if err != nil {
			fatal(err)
		}
		cfg.Store.RAIDLevel = level
	}
	if *faults != "" {
		plan, err := simdisk.ParseFaultPlan(*faults)
		if err != nil {
			fatal(err)
		}
		cfg.Store.Faults = plan
	}
	if *spares > 0 {
		cfg.Store.Spares = *spares
	}
	if *rebuild != "" {
		for _, part := range strings.Split(*rebuild, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 0 {
				fatal(fmt.Errorf("-rebuild: bad member %q", part))
			}
			cfg.RebuildMembers = append(cfg.RebuildMembers, n)
		}
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
