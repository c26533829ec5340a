package webserver

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/fsim"
	"repro/internal/workload"
)

func newHTTPFSServer(t *testing.T) (*fsim.FileStore, *HTTPFS, *httptest.Server) {
	t.Helper()
	store, err := fsim.NewFileStore(fsim.ShardedConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	if err := workload.Install(store, workload.WebCorpus()); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Create("assets/style/site.css", []byte("body{}\n")); err != nil {
		t.Fatal(err)
	}
	h := NewHTTPFS(store)
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return store, h, ts
}

func TestHTTPFSServesCatalog(t *testing.T) {
	store, h, ts := newHTTPFSServer(t)
	spec := workload.WebCorpus()[0]

	resp, err := http.Get(ts.URL + "/" + spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /%s = %d", spec.Name, resp.StatusCode)
	}
	if int64(len(body)) != spec.Size {
		t.Fatalf("body %d bytes, want %d", len(body), spec.Size)
	}
	if want := workload.Payload(1, spec.Size); string(body) != string(want) {
		t.Fatal("served bytes differ from the installed corpus payload")
	}

	// Nested path through the synthesized directory tree.
	resp, err = http.Get(ts.URL + "/assets/style/site.css")
	if err != nil {
		t.Fatal(err)
	}
	css, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(css) != "body{}\n" {
		t.Fatalf("nested GET = %d body %q", resp.StatusCode, css)
	}

	// Missing files 404 via the facade's fs.ErrNotExist.
	resp, err = http.Get(ts.URL + "/no-such-file")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET missing = %d, want 404", resp.StatusCode)
	}

	// Directory index is synthesized from the prefix listing.
	resp, err = http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	index, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(index), spec.Name) {
		t.Fatalf("index = %d, listing contains %q = %v", resp.StatusCode, spec.Name, strings.Contains(string(index), spec.Name))
	}

	ts.Close() // the last handler records after its client has the body
	recs := h.Records()
	if len(recs) != 4 {
		t.Fatalf("%d records, want 4", len(recs))
	}
	var hitCost int64
	for _, r := range recs {
		if r.File == spec.Name {
			hitCost = int64(r.IOTime)
			if r.Size != spec.Size {
				t.Errorf("record size %d, want %d", r.Size, spec.Size)
			}
		}
	}
	if hitCost <= 0 {
		t.Fatalf("catalog hit recorded IOTime %d, want > 0 (simulated costs must survive the facade)", hitCost)
	}
	// Per-request lanes fold back into the timeline on release.
	if lanes := store.Timeline().Lanes(); lanes != 1 {
		t.Fatalf("%d lanes alive after serving, want 1 (sessions must be released)", lanes)
	}
	if store.Timeline().Elapsed() <= 0 {
		t.Fatal("timeline did not advance: request lanes were not billed")
	}
}

func TestHTTPFSRangeRequest(t *testing.T) {
	_, _, ts := newHTTPFSServer(t)
	spec := workload.WebCorpus()[0]
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/"+spec.Name, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Range", "bytes=100-199")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("range GET = %d, want 206", resp.StatusCode)
	}
	want := workload.Payload(1, spec.Size)[100:200]
	if string(body) != string(want) {
		t.Fatal("range body differs from corpus slice — facade Seek/Read path broken")
	}
}

func TestHTTPFSConcurrentClients(t *testing.T) {
	store, h, ts := newHTTPFSServer(t)
	corpus := workload.WebCorpus()
	const clients, perClient = 8, 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				spec := corpus[(c+i)%len(corpus)]
				resp, err := http.Get(ts.URL + "/" + spec.Name)
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// A handler appends its record after the client has its body; Close
	// returns once every handler has.
	ts.Close()
	if got := len(h.Records()); got != clients*perClient {
		t.Fatalf("%d records, want %d", got, clients*perClient)
	}
	if lanes := store.Timeline().Lanes(); lanes != 1 {
		t.Fatalf("%d lanes alive after concurrent serving, want 1", lanes)
	}
}
