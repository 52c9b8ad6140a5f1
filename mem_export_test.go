// Memory-trajectory export: TestMemBenchExport writes BENCH_mem.json,
// the allocation record of the one evaluator's hot path (allocs/op and
// B/op of PlaceIndex.Evaluate over a prebuilt index) plus a big-trace
// streaming run: a trace of >= 10M tuple accesses synthesized directly
// to a columnar file and partition-scored through the streaming reader,
// with the process's peak RSS recorded against a lower bound on what the
// same trace would occupy as an in-memory []Txn.
//
// Opt-in like the other exporters:
//
//	BENCH_EXPORT=1 go test -run TestMemBenchExport .   # writes BENCH_mem.json
//
// The big-trace size is env-scaled: BENCH_MEM_ACCESSES overrides the
// 10M-access default (useful for quick local runs; the acceptance record
// needs the default).
package repro_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"
	"unsafe"

	"repro/internal/eval"
	"repro/internal/fixture"
	"repro/internal/trace"
)

type memBenchRecord struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

type bigTraceRecord struct {
	Accesses  int   `json:"accesses"`
	Txns      int   `json:"txns"`
	FileBytes int64 `json:"file_bytes"`
	ChunkTxns int   `json:"chunk_txns"`

	Total       int     `json:"total"`
	Distributed int     `json:"distributed"`
	EvalWallSec float64 `json:"eval_wall_sec"`

	PeakRSSBytes uint64 `json:"peak_rss_bytes"`
	PeakRSSKnown bool   `json:"peak_rss_known"`
	// EstInMemoryBytes is a deliberate lower bound on holding the same
	// trace as []Txn: struct sizes only, no string/key/param payloads.
	EstInMemoryBytes uint64 `json:"est_inmemory_bytes"`
}

type memExport struct {
	GoVersion string         `json:"go_version"`
	GOOS      string         `json:"goos"`
	GOARCH    string         `json:"goarch"`
	WrittenAt string         `json:"written_at"`
	Evaluate  memBenchRecord `json:"evaluate"`
	BigTrace  bigTraceRecord `json:"bigtrace"`
}

func toMemRecord(res testing.BenchmarkResult) memBenchRecord {
	return memBenchRecord{
		NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
	}
}

func TestMemBenchExport(t *testing.T) {
	if os.Getenv("BENCH_EXPORT") == "" {
		t.Skip("set BENCH_EXPORT=1 to export memory benchmark results")
	}
	target := 10_000_000
	if v := os.Getenv("BENCH_MEM_ACCESSES"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("BENCH_MEM_ACCESSES=%q: want a positive integer", v)
		}
		target = n
	}

	doc := memExport{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		WrittenAt: time.Now().UTC().Format(time.RFC3339),
		Evaluate:  toMemRecord(testing.Benchmark(BenchmarkEvaluate)),
	}
	t.Logf("Evaluate: %d allocs/op %d B/op", doc.Evaluate.AllocsPerOp, doc.Evaluate.BytesPerOp)

	// Synthesize the big trace straight to disk: the template workload is
	// replayed with fresh transaction ids until the access target is met,
	// so the writer never holds more than one chunk and the synthesizing
	// test never holds more than the 2000-transaction template.
	d := fixture.CustInfoDB()
	template := fixture.MixedTrace(d, 2000, 7)
	path := filepath.Join(t.TempDir(), "big.col")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	cw := trace.NewColumnarWriter(f)
	accesses, txns := 0, 0
	for accesses < target {
		for _, txn := range template.All() {
			txn.ID = txns
			if err := cw.Add(txn); err != nil {
				t.Fatal(err)
			}
			txns++
			accesses += len(txn.Accesses)
			if accesses >= target {
				break
			}
		}
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	fileBytes := cw.BytesWritten()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	a, err := eval.NewAssigner(d, benchSolution())
	if err != nil {
		t.Fatal(err)
	}
	s, err := trace.OpenColumnar(path)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	r, err := a.EvaluateStream(s)
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	if r.Total != txns {
		t.Fatalf("streamed evaluation scored %d of %d transactions", r.Total, txns)
	}
	peak, peakKnown := eval.PeakRSS()
	est := uint64(accesses)*uint64(unsafe.Sizeof(trace.Access{})) +
		uint64(txns)*uint64(unsafe.Sizeof(trace.Txn{}))
	doc.BigTrace = bigTraceRecord{
		Accesses: accesses, Txns: txns, FileBytes: fileBytes,
		ChunkTxns: trace.DefaultChunkTxns,
		Total:     r.Total, Distributed: r.Distributed,
		EvalWallSec:  wall.Seconds(),
		PeakRSSBytes: peak, PeakRSSKnown: peakKnown,
		EstInMemoryBytes: est,
	}
	t.Logf("bigtrace: %d accesses / %d txns, %d file bytes, eval %.1fs, peak RSS %d MB vs >= %d MB in-memory",
		accesses, txns, fileBytes, wall.Seconds(), peak>>20, est>>20)
	// The acceptance claim: at the full 10M-access scale the streaming
	// run's peak memory sits well below even the lower bound of the
	// in-memory representation.
	if peakKnown && accesses >= 10_000_000 && peak >= est/2 {
		t.Errorf("peak RSS %d bytes is not well below the in-memory bound %d", peak, est)
	}

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_mem.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Log("memory benchmark results written to BENCH_mem.json")
}
