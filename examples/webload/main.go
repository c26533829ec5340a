// Webload runs the paper's multithreaded web server micro benchmark
// under concurrent load: it starts the server on an ephemeral port,
// drives it with several persistent-connection clients mixing GETs and
// POSTs, and reports the server-side I/O latency distribution plus the
// first-touch (JIT + cold cache) effect of §4.2.
//
//	go run ./examples/webload
package main

import (
	"fmt"
	"log"
	"sync"

	"repro/internal/fsim"
	"repro/internal/metrics"
	"repro/internal/webserver"
	"repro/internal/workload"
)

func main() {
	h, err := webserver.NewHarness(fsim.Tuning{}, webserver.ShedPolicy{})
	if err != nil {
		log.Fatal(err)
	}
	defer h.Close()

	// First-touch effect: the very first GET pays JIT compilation and
	// cold buffer-cache misses.
	name := workload.WebCorpus()[0].Name
	first, err := h.Client.Get(name)
	if err != nil {
		log.Fatal(err)
	}
	second, err := h.Client.Get(name)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("first GET %s: %.3f ms   second: %.3f ms   (%.0fx warm-up)\n\n",
		name,
		float64(first.ServerIOTime.Microseconds())/1000,
		float64(second.ServerIOTime.Microseconds())/1000,
		float64(first.ServerIOTime)/float64(second.ServerIOTime))

	// Concurrent load: 8 clients × 40 requests, one GET corpus rotation
	// with a POST every fourth request.
	const clients, requests = 8, 40
	var wg sync.WaitGroup
	var mu sync.Mutex
	var gets, posts metrics.Sample
	serverAddr := h.ServerAddr()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl, err := webserver.Dial(serverAddr)
			if err != nil {
				log.Print(err)
				return
			}
			defer cl.Close()
			corpus := workload.WebCorpus()
			for i := 0; i < requests; i++ {
				spec := corpus[(id+i)%len(corpus)]
				if i%4 == 3 {
					resp, err := cl.Post(spec.Name, workload.Payload(uint64(i), spec.Size))
					if err != nil {
						log.Print(err)
						return
					}
					mu.Lock()
					posts.AddDuration(resp.ServerIOTime)
					mu.Unlock()
				} else {
					resp, err := cl.Get(spec.Name)
					if err != nil {
						log.Print(err)
						return
					}
					mu.Lock()
					gets.AddDuration(resp.ServerIOTime)
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()

	fmt.Printf("load: %d clients × %d requests\n", clients, requests)
	fmt.Printf("GET  server I/O: mean %.4f ms  p50 %.4f  p99 %.4f  (n=%d)\n",
		gets.Mean(), gets.Quantile(0.5), gets.Quantile(0.99), gets.N())
	fmt.Printf("POST server I/O: mean %.4f ms  p50 %.4f  p99 %.4f  (n=%d)\n",
		posts.Mean(), posts.Quantile(0.5), posts.Quantile(0.99), posts.N())

	recs := h.Server.Records()
	fmt.Printf("server recorded %d requests; store now holds %d files\n",
		len(recs), len(h.Store.Names()))
}
