package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/fsim"
	"repro/internal/vm"
	"repro/internal/webserver"
	"repro/internal/workload"
)

// The web ladder serves the same request plan three ways, each rung one
// module higher, so a module's cost is its rung minus the one below:
//
//	a fsim       Open / Read / Close (Create / Write / Close for a POST) on the bare store
//	b vm         OpenFileStream / ReadAll / Close (CreateFileStream + StreamWriter)
//	c webserver  webserver.New + Start in process, webserver.Dial over loopback
//
// Every rung runs the workload's connections concurrently, each on its
// own session where the rung touches the store directly — what -lanes
// gives the server's connections.

// webStore builds the store `webbench -mode serve -lanes -shards 8` serves.
func webStore() (*fsim.FileStore, error) {
	cfg := fsim.DefaultConfig()
	cfg.Cache.Shards = cacheShards
	store, err := fsim.NewFileStore(cfg)
	if err != nil {
		return nil, err
	}
	if err := workload.Install(store, workload.WebCorpus()); err != nil {
		store.Close()
		return nil, err
	}
	return store, nil
}

func webRuntime() (*vm.Runtime, error) {
	rt, err := vm.New(vm.DefaultConfig(), nil)
	if err != nil {
		return nil, err
	}
	rt.RegisterBCL()
	return rt, nil
}

// webHandler serves one planned request on one connection and reports
// whether the reply was right.
type webHandler func(t *track, conn int, rq webRequest, seq int) bool

// driveRung runs every connection's plan through handle, a get or post
// span (of the rung's layer) around each request, and returns the
// elapsed time and how many requests were answered wrongly.
func driveRung(wc *webCfg, seed uint64, tr *tracer, get, post kind, handle webHandler) (time.Duration, int64) {
	files := len(workload.WebCorpus())
	perConn := wc.traced / wc.conns
	failed := make([]int64, wc.conns)
	tracks := make([]*track, wc.conns)
	for c := range tracks {
		tracks[c] = tr.track()
	}
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < wc.conns; c++ {
		plan := webPlan(seed, c, perConn, files)
		t := tracks[c]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, rq := range plan {
				k := get
				if rq.file < 0 {
					k = post
				}
				if t != nil {
					t.req = int32(i*wc.conns + c)
				}
				t.begin(k)
				ok := handle(t, c, rq, i)
				t.end()
				if !ok {
					failed[c]++
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var total int64
	for _, f := range failed {
		total += f
	}
	return elapsed, total
}

// storeRung is rung a. The nested fsim spans give the web workload its
// fsim.* per-op times.
func storeRung(wc *webCfg, seed uint64, tr *tracer) (time.Duration, int64, error) {
	store, err := webStore()
	if err != nil {
		return 0, 0, err
	}
	defer store.Close()
	names, bodies := webBodies()
	postBody := workload.Payload(seed, wc.postSize)
	sessions := make([]*fsim.Session, wc.conns)
	bufs := make([][]byte, wc.conns)
	for c := range sessions {
		sessions[c] = store.NewSession()
		defer sessions[c].Release()
		bufs[c] = make([]byte, 64<<10)
	}
	elapsed, failed := driveRung(wc, seed, tr, kFsimGet, kFsimPost, func(t *track, c int, rq webRequest, seq int) bool {
		sess := sessions[c]
		if rq.file < 0 {
			name := fmt.Sprintf("post-%d-%d", c, seq)
			t.begin(kFsimOpen)
			_, err := sess.Create(name, nil)
			var f fsim.File
			if err == nil {
				f, _, err = sess.Open(name)
			}
			t.end()
			if err != nil {
				return false
			}
			t.begin(kFsimWrite)
			n, _, err := f.Write(postBody)
			t.end()
			t.begin(kFsimClose)
			_, cerr := f.Close()
			t.end()
			return err == nil && cerr == nil && n == len(postBody)
		}
		t.begin(kFsimOpen)
		f, _, err := sess.Open(names[rq.file])
		t.end()
		if err != nil {
			return false
		}
		var got []byte
		for err == nil {
			var n int
			t.begin(kFsimRead)
			n, _, err = f.Read(bufs[c])
			t.end()
			got = append(got, bufs[c][:n]...)
		}
		t.begin(kFsimClose)
		_, cerr := f.Close()
		t.end()
		return err == io.EOF && cerr == nil && bytes.Equal(got, bodies[rq.file])
	})
	return elapsed, failed, nil
}

// vmRung is rung b: the calls doGet and doPost make, without the socket.
func vmRung(wc *webCfg, seed uint64, tr *tracer) (int64, error) {
	store, err := webStore()
	if err != nil {
		return 0, err
	}
	defer store.Close()
	rt, err := webRuntime()
	if err != nil {
		return 0, err
	}
	names, bodies := webBodies()
	postBody := string(workload.Payload(seed, wc.postSize))
	sessions := make([]*fsim.Session, wc.conns)
	for c := range sessions {
		sessions[c] = store.NewSession()
		defer sessions[c].Release()
	}
	_, failed := driveRung(wc, seed, tr, kVMGet, kVMPost, func(_ *track, c int, rq webRequest, seq int) bool {
		if rq.file < 0 {
			stream, _, err := vm.CreateFileStream(rt, sessions[c], fmt.Sprintf("post-%d-%d", c, seq), nil)
			if err != nil {
				return false
			}
			w, _ := vm.NewStreamWriter(rt, stream)
			n, _, err := w.WriteString(postBody)
			_, cerr := w.Close()
			return err == nil && cerr == nil && n == len(postBody)
		}
		stream, _, err := vm.OpenFileStream(rt, sessions[c], names[rq.file])
		if err != nil {
			return false
		}
		got, _, err := stream.ReadAll()
		_, cerr := stream.Close()
		return err == nil && cerr == nil && bytes.Equal(got, bodies[rq.file])
	})
	return failed, nil
}

// serverRung is rung c, and the one whose store's counters the web
// workload reports: it is the whole path.
func serverRung(wc *webCfg, seed uint64, tr *tracer, s sampler) (int64, error) {
	store, err := webStore()
	if err != nil {
		return 0, err
	}
	defer store.Close()
	rt, err := webRuntime()
	if err != nil {
		return 0, err
	}
	srv, err := webserver.New(webserver.Config{Addr: "127.0.0.1:0", Store: store, Runtime: rt, Lanes: true})
	if err != nil {
		return 0, err
	}
	addr, err := srv.Start()
	if err != nil {
		return 0, err
	}
	names, bodies := webBodies()
	postBody := workload.Payload(seed, wc.postSize)
	clients := make([]*webserver.Client, wc.conns)
	for c := range clients {
		if clients[c], err = webserver.Dial(addr); err != nil {
			srv.Close()
			return 0, err
		}
	}
	_, failed := driveRung(wc, seed, tr, kWebGet, kWebPost, func(_ *track, c int, rq webRequest, _ int) bool {
		if rq.file < 0 {
			resp, err := clients[c].Post("upload", postBody)
			return err == nil && resp.Status == 200 && strings.HasPrefix(string(resp.Body), "stored ")
		}
		resp, err := clients[c].Get(names[rq.file])
		return err == nil && resp.Status == 200 && bytes.Equal(resp.Body, bodies[rq.file])
	})
	for _, cl := range clients {
		cl.Close()
	}
	if err := srv.Close(); err != nil {
		return failed, err
	}
	var non200 int64
	recs := srv.Records()
	for _, r := range recs {
		if r.Status != 200 {
			non200++
		}
	}
	s.add("webserver.served", float64(len(recs)))
	s.add("webserver.non200", float64(non200))
	addStoreCounts(s, store.Cache().Stats(), store.TotalDiskStats())
	return failed + non200, nil
}

// invokeNs times the managed-dispatch call every stream operation pays.
func invokeNs() (float64, error) {
	rt, err := webRuntime()
	if err != nil {
		return 0, err
	}
	const calls = 200000
	start := time.Now()
	for i := 0; i < calls; i++ {
		rt.Invoke(vm.MethodFileStreamRead)
	}
	return float64(time.Since(start)) / calls, nil
}

// webLadder runs rungs a-c once. The load generator's own CPU per
// request needs the server in another process, so the first repeat also
// runs one end-to-end unit and keeps that one number from it.
func (h *harness) webLadder(ctx context.Context, w workloadDef, s sampler, first bool) (events []traceEvent, attempted, failed int64, err error) {
	wc := w.web
	attempted = int64(wc.traced / wc.conns * wc.conns)
	fail := func(err error) ([]traceEvent, int64, int64, error) { return nil, attempted, attempted, err }

	plain, _, err := storeRung(wc, h.seed, nil)
	if err != nil {
		return fail(err)
	}
	trA := newTracer()
	traced, failedA, err := storeRung(wc, h.seed, trA)
	if err != nil {
		return fail(err)
	}
	s.add("harness.trace_overhead_pct", 100*ratio(float64(traced-plain), float64(plain)))
	trB := newTracer()
	failedB, err := vmRung(wc, h.seed, trB)
	if err != nil {
		return fail(err)
	}
	trC := newTracer()
	failedC, err := serverRung(wc, h.seed, trC, s)
	if err != nil {
		return fail(err)
	}
	mean := func(tr *tracer, kinds ...kind) float64 {
		t := tr.total(kinds...)
		return ratio(float64(t.busy), float64(t.calls))
	}
	s.add("fsim.read_ns_per_op", mean(trA, kFsimRead))
	s.add("fsim.write_ns_per_op", mean(trA, kFsimWrite))
	s.add("fsim.openclose_ns_per_op", mean(trA, kFsimOpen, kFsimClose))
	s.add("fsim.ops", float64(trA.total(kFsimOpen, kFsimClose, kFsimRead, kFsimWrite).calls))
	s.add("fsim.failed_ops", float64(failedA))
	s.add("vm.filestream_self_ns_per_get", mean(trB, kVMGet)-mean(trA, kFsimGet))
	s.add("webserver.self_us_per_get", (mean(trC, kWebGet)-mean(trB, kVMGet))/1e3)
	s.add("webserver.self_us_per_post", (mean(trC, kWebPost)-mean(trB, kVMPost))/1e3)
	ns, err := invokeNs()
	if err != nil {
		return fail(err)
	}
	s.add("vm.invoke_ns", ns)
	if first {
		u, err := h.webUnit(ctx, w, h.seed)
		if err != nil {
			return fail(err)
		}
		s.add("harness.client_cpu_us_per_req", u.extra["client_cpu_us_per_req"])
	}
	events = append(append(trA.events(1), trB.events(2)...), trC.events(3)...)
	return events, attempted, failedA + failedB + failedC, nil
}
