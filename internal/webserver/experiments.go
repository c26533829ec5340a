package webserver

import (
	"fmt"
	"time"

	"repro/internal/fsim"
	"repro/internal/metrics"
	"repro/internal/simdisk"
	"repro/internal/vm"
	"repro/internal/workload"
)

// vmCalibration returns the managed-runtime cost model for the web
// benchmarks: a lighter JIT than vm.DefaultConfig so that first-request
// latencies land near the paper's 2-9 ms scale.
func vmCalibration() vm.Config {
	cfg := vm.DefaultConfig()
	cfg.JITBaseCost = 200 * time.Microsecond
	cfg.JITCostPerILByte = 500 * time.Nanosecond
	return cfg
}

// storeCalibration returns the file-store configuration for the web
// benchmarks. Unlike the trace replays (whose 1 GB file is mostly hot in
// the OS cache), the web corpus is cold on first touch, so the backing
// store is given millisecond-scale access costs approximating a desktop
// disk path with partial caching — first reads of the ~7-50 KB images
// then land near the paper's 1.7-2.2 ms.
func storeCalibration() fsim.Config {
	cfg := fsim.DefaultConfig()
	cfg.Disk = simdisk.Params{
		Capacity:           8 << 30,
		TrackToTrackSeek:   200 * time.Microsecond,
		FullStrokeSeek:     1500 * time.Microsecond,
		RPM:                60000, // 1 ms rotation
		TransferRate:       100 << 20,
		ControllerOverhead: 100 * time.Microsecond,
		TrackSize:          512 << 10,
	}
	cfg.WarmPagesOnOpen = 0 // first touch is genuinely cold
	// Creating a POST's fresh file pays a directory update on this disk
	// path — the reason every Table 5 row's write exceeds its read.
	cfg.CreateCost = 500 * time.Microsecond
	return cfg
}

// Harness bundles a running server, its store and runtime, and a
// connected client — the full benchmark fixture.
type Harness struct {
	Server  *Server
	Client  *Client
	Store   *fsim.FileStore
	Runtime *vm.Runtime
	addr    string
}

// ServerAddr returns the running server's bound address, for additional
// clients.
func (h *Harness) ServerAddr() string { return h.addr }

// NewHarness starts a cold server (fresh runtime, a fresh store on the
// web calibration under tune, corpus installed, shedding per shed) and
// connects a client.
func NewHarness(tune fsim.Tuning, shed ShedPolicy) (*Harness, error) {
	cfg, err := tune.Apply(storeCalibration())
	if err != nil {
		return nil, err
	}
	store, err := fsim.NewFileStore(cfg)
	if err != nil {
		return nil, err
	}
	if err := workload.Install(store, workload.WebCorpus()); err != nil {
		return nil, err
	}
	// Installing the corpus dirtied the page cache; drop it so every
	// file's first GET is a genuinely cold read, as in the paper.
	store.Cache().Invalidate()
	rt, err := vm.New(vmCalibration(), nil)
	if err != nil {
		return nil, err
	}
	rt.RegisterBCL()
	srv, err := New(Config{Store: store, Runtime: rt, Shed: shed})
	if err != nil {
		return nil, err
	}
	addr, err := srv.Start()
	if err != nil {
		return nil, err
	}
	client, err := Dial(addr)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &Harness{Server: srv, Client: client, Store: store, Runtime: rt, addr: addr}, nil
}

// Close tears the harness down.
func (h *Harness) Close() {
	if h.Client != nil {
		h.Client.Close()
	}
	if h.Server != nil {
		h.Server.Close()
	}
}

// Table5 regenerates the paper's Table 5: for each image file, the
// server-side response time of its first read (GET) and first write
// (POST of the same payload), on a cold VM.
func Table5(tune fsim.Tuning, shed ShedPolicy) (*metrics.Table, []RequestRecord, error) {
	h, err := NewHarness(tune, shed)
	if err != nil {
		return nil, nil, err
	}
	defer h.Close()
	// The paper's request order is file sizes 7501, 50607, 14603.
	specs := workload.WebCorpus()[:3]
	tb := metrics.NewTable("Table 5. Response time of read and write operations",
		"Request number", "Data size (Bytes)", "Read Time (ms)", "Write Time (ms)")
	for i, spec := range specs {
		get, err := h.Client.Get(spec.Name)
		if err != nil {
			return nil, nil, fmt.Errorf("webserver: GET %s: %w", spec.Name, err)
		}
		if get.Status != 200 {
			return nil, nil, fmt.Errorf("webserver: GET %s -> %d", spec.Name, get.Status)
		}
		post, err := h.Client.Post(spec.Name, get.Body)
		if err != nil {
			return nil, nil, fmt.Errorf("webserver: POST %s: %w", spec.Name, err)
		}
		tb.AddRow(i+1, spec.Size,
			float64(get.ServerIOTime.Nanoseconds())/1e6,
			float64(post.ServerIOTime.Nanoseconds())/1e6)
	}
	return tb, h.Server.Records(), nil
}

// Table6Trials is the number of repeated reads in Table 6 / Figure 6.
const Table6Trials = 6

// Table6 regenerates the paper's Table 6: the response time of reading
// the same ~14 KB file six times on a cold VM — the JIT-plus-buffer-cache
// warm-up curve.
func Table6(tune fsim.Tuning, shed ShedPolicy) (*metrics.Table, []float64, error) {
	h, err := NewHarness(tune, shed)
	if err != nil {
		return nil, nil, err
	}
	defer h.Close()
	name := workload.WebCorpus()[3].Name
	tb := metrics.NewTable("Table 6. Response time of repeated read operations",
		"Trail number", "Data size (Bytes)", "Read Time (ms)")
	var times []float64
	for i := 0; i < Table6Trials; i++ {
		resp, err := h.Client.Get(name)
		if err != nil {
			return nil, nil, fmt.Errorf("webserver: trial %d: %w", i+1, err)
		}
		if resp.Status != 200 {
			return nil, nil, fmt.Errorf("webserver: trial %d -> %d", i+1, resp.Status)
		}
		ms := float64(resp.ServerIOTime.Nanoseconds()) / 1e6
		times = append(times, ms)
		tb.AddRow(i+1, workload.Table6FileSize, ms)
	}
	return tb, times, nil
}

// Figure6 renders Table 6's series as the paper's Figure 6 line chart:
// response time of read operations vs trial number.
func Figure6(tune fsim.Tuning, shed ShedPolicy) (*metrics.Figure, []float64, error) {
	_, times, err := Table6(tune, shed)
	if err != nil {
		return nil, nil, err
	}
	labels := make([]string, len(times))
	for i := range labels {
		labels[i] = fmt.Sprintf("%d", i+1)
	}
	fig := metrics.NewFigure(
		"Figure 6. Data size (Bytes) vs. response time of read operations",
		"trial number (bytes read 14063)", "time taken in milliseconds")
	fig.Add(metrics.NewSeries("Series1", labels, times))
	return fig, times, nil
}
