package tracesim

import (
	"fmt"

	"repro/internal/fsim"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// RunApp generates the named application's synthetic trace and replays it
// on a fresh simulated store — the replay calibration under tune —
// returning the report. It is the common path behind the Table 1-4
// drivers.
func RunApp(app string, params tracegen.Params, tune fsim.Tuning) (*Report, error) {
	tr, err := tracegen.Generate(app, params)
	if err != nil {
		return nil, err
	}
	cfg, err := tune.Apply(fsim.DefaultConfig())
	if err != nil {
		return nil, err
	}
	store, err := fsim.NewFileStore(cfg)
	if err != nil {
		return nil, err
	}
	rp := NewReplayer(store)
	rp.SampleFileSize = params.FileSize
	return rp.Replay(app, tr)
}

// Table1 regenerates the paper's Table 1: the data-mining application's
// data size and average read/open/close/seek times.
func Table1(params tracegen.Params, tune fsim.Tuning) (*metrics.Table, *Report, error) {
	rep, err := RunApp("Dmine", params, tune)
	if err != nil {
		return nil, nil, err
	}
	tb := metrics.NewTable("Table 1. Results for the data mining application",
		"Appl. name", "Data size (Bytes)", "Read time (ms)", "Open time (ms)",
		"Close time (ms)", "Seek time (ms)")
	tb.AddRow("Data Mining", 131072, rep.Read.Mean(), rep.Open.Mean(),
		rep.Close.Mean(), rep.Seek.Mean())
	return tb, rep, nil
}

// Table2 regenerates the paper's Table 2: the Titan application's data
// size and average read/open/close times.
func Table2(params tracegen.Params, tune fsim.Tuning) (*metrics.Table, *Report, error) {
	rep, err := RunApp("Titan", params, tune)
	if err != nil {
		return nil, nil, err
	}
	tb := metrics.NewTable("Table 2. Results for the titan application",
		"Appl. name", "Data size (Bytes)", "Read time (ms)", "Open time (ms)",
		"Close time (ms)")
	tb.AddRow("Titan", 187681, rep.Read.Mean(), rep.Open.Mean(), rep.Close.Mean())
	return tb, rep, nil
}

// Table3 regenerates the paper's Table 3: the LU factorization's six
// seek requests ("data size" is the seek target) with per-request seek
// times, plus the open/close times reported in its caption text.
func Table3(params tracegen.Params, tune fsim.Tuning) (*metrics.Table, *Report, error) {
	rep, err := RunApp("LU", params, tune)
	if err != nil {
		return nil, nil, err
	}
	tb := metrics.NewTable(
		fmt.Sprintf("Table 3. Results for the LU application (open %s ms, close %s ms)",
			metrics.FormatCell(rep.Open.Mean()), metrics.FormatCell(rep.Close.Mean())),
		"Request number", "Data size (Bytes)", "Seek Time (ms)")
	n := 0
	for _, req := range rep.Requests {
		if req.Op != trace.OpSeek {
			continue
		}
		n++
		tb.AddRow(n, req.Size, req.SeekMS)
	}
	return tb, rep, nil
}

// Table4 regenerates the paper's Table 4: the sparse Cholesky
// factorization's sixteen reads with per-request seek and read times,
// plus open/close in the caption.
func Table4(params tracegen.Params, tune fsim.Tuning) (*metrics.Table, *Report, error) {
	rep, err := RunApp("Cholesky", params, tune)
	if err != nil {
		return nil, nil, err
	}
	tb := metrics.NewTable(
		fmt.Sprintf("Table 4. Results for the Cholesky application (open %s ms, close %s ms)",
			metrics.FormatCell(rep.Open.Mean()), metrics.FormatCell(rep.Close.Mean())),
		"Request number", "Data size (Bytes)", "Seek time (ms)", "Read Time (ms)")
	n := 0
	for _, req := range rep.Requests {
		if req.Op != trace.OpRead {
			continue
		}
		n++
		tb.AddRow(n, req.Size, req.SeekMS, req.ReadMS)
	}
	return tb, rep, nil
}

// AllTables runs Tables 1-4 and returns them in order.
func AllTables(params tracegen.Params, tune fsim.Tuning) ([]*metrics.Table, []*Report, error) {
	type runner func(tracegen.Params, fsim.Tuning) (*metrics.Table, *Report, error)
	var tables []*metrics.Table
	var reports []*Report
	for _, run := range []runner{Table1, Table2, Table3, Table4} {
		tb, rep, err := run(params, tune)
		if err != nil {
			return nil, nil, err
		}
		tables = append(tables, tb)
		reports = append(reports, rep)
	}
	return tables, reports, nil
}
