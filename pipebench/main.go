// Command pipebench is the repository's benchmark. It runs one named
// workload through the whole pipeline in one process — load, trace
// generation, train/test split, JECB partitioning, evaluation, routing,
// the durable and the networked 2PC replays, and the serving engine —
// checks every stage's output, and prints the metrics as one JSON object
// on the last line of standard output: the end-to-end metrics, or with
// --trace 1 the per-layer metrics.
//
// Usage, from the repository root:
//
//	bash pipebench/run.sh --workload tpcc-advise --seed 1 --seconds 55 --trace 0
//
// A run sets up its inputs three times — it loads the database and
// generates the trace from --seed, so the program sees only generated
// inputs — and reports the median set-up time. It then repeats the rest
// of the pipeline ("reps") over the last set-up until --seconds would be
// exceeded, and reports medians over its reps. A run exits non-zero,
// printing no result, when a correctness check fails or a deterministic
// output differs between reps or from an earlier run of the same binary
// and seed. Each run writes a report (and
// with --trace 1 its spans) under --workdir.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/partition"
)

// flushPolicy states how the replays' write-ahead logs reach storage.
const flushPolicy = "WAL appends write each record through to the OS with no fsync; " +
	"the same on both sides of any comparison"

type config struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	workdir string
	minReps int
	window  float64 // least seconds per rep in each short stage (minWindow)
	// tamper, when set, edits the computed solution before the
	// correctness gate; the tests use it to check that the gate trips.
	tamper func(*partition.Solution)
}

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("pipebench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload name")
	seed := fl.Int64("seed", 1, "workload seed")
	seconds := fl.Float64("seconds", 30, "measurement time; reps repeat until it would be exceeded")
	traced := fl.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	workdir := fl.String("workdir", ".bench_build/pipebench", "directory for WALs, reports and determinism records")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "pipebench:", err)
		return 2
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *traced == 1, workdir: *workdir,
		minReps: 3, window: minWindow}
	if err := execute(cfg, stdout); err != nil {
		fmt.Fprintln(stderr, "pipebench:", err)
		return 1
	}
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// execute runs the benchmark, writes its report and prints the result.
func execute(cfg config, stdout io.Writer) error {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return err
	}
	out, err := run(context.Background(), cfg)
	if err != nil {
		return err
	}
	prov := newProvenance(cfg, len(out.reps))
	if err := checkDeterminism(cfg, prov.Binary, out.reps[0].fp); err != nil {
		return err
	}
	if err := writeReport(cfg, prov, out); err != nil {
		return err
	}
	metrics := out.endToEnd
	if cfg.trace {
		metrics = out.perLayer
	}
	line, err := json.Marshal(result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: metrics})
	if err != nil {
		return err
	}
	provLine, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "provenance %s\n", provLine)
	fmt.Fprintf(stdout, "%s seed %d: %d reps, report in %s\n", cfg.w.name, cfg.seed, len(out.reps), reportPath(cfg, "report"))
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// outcome is a run's reduced measurements.
type outcome struct {
	setups            []*setup
	reps              []*rep
	endToEnd          map[string]metric // over the untraced reps
	perLayer          map[string]metric // over the traced reps; nil unless --trace 1
	tracedEndToEnd    map[string]metric
	overheadPct       float64
	spans             []span
	attempted, failed int
}

// numSetups is how many times a run sets up its inputs; setup_s is the
// median.
const numSetups = 3

// run sets the inputs up numSetups times, then repeats the rest of the
// pipeline over the last set-up until the next rep would overrun
// cfg.seconds (but at least cfg.minReps times). With tracing on, reps
// alternate untraced and traced, so that the run measures its own
// tracing overhead.
func run(ctx context.Context, cfg config) (*outcome, error) {
	minReps := cfg.minReps
	if cfg.trace {
		minReps = max(minReps, 4)
	}
	epoch := time.Now()
	t := newTracer(epoch)
	t.on = cfg.trace
	var setups []*setup
	for i := 0; i < numSetups; i++ {
		st, err := runSetup(cfg, i, t)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, st)
	}
	// Only the last set-up feeds the reps; drop the others' inputs so
	// that they do not weigh on the reps' garbage collection.
	for _, st := range setups[:len(setups)-1] {
		st.d, st.train, st.test, st.col = nil, nil, nil, nil
	}
	in := setups[len(setups)-1]
	var reps []*rep
	for i := 0; ; i++ {
		t.on = cfg.trace && i%2 == 1
		r, err := runRep(ctx, cfg, in, i, t)
		if err != nil {
			return nil, fmt.Errorf("rep %d: %w", i, err)
		}
		if len(reps) > 0 && r.fp != reps[0].fp {
			return nil, gateErr("rep %d is not deterministic: %+v, rep 0 had %+v", i, r.fp, reps[0].fp)
		}
		reps = append(reps, r)
		repsDone := time.Since(epoch).Seconds() + r.wall
		if len(reps) >= minReps && repsDone > cfg.seconds {
			break
		}
	}
	out := &outcome{setups: setups, reps: reps, spans: t.spans}
	var plain, traced []*rep
	for _, r := range reps {
		out.attempted += r.attempted()
		out.failed += r.failed()
		if r.traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	out.endToEnd = evaluate(endToEnd, sample{setups, plain})
	if cfg.trace {
		out.tracedEndToEnd = evaluate(endToEnd, sample{setups, traced})
		out.perLayer = evaluate(perLayer, sample{setups, traced})
		wall := func(r *rep) float64 { return r.wall }
		base := medianOf(plain, wall)
		out.overheadPct = 100 * (medianOf(traced, wall) - base) / base
		out.perLayer["trace.overhead_pct"] = metric{Value: out.overheadPct, Unit: "%"}
	}
	return out, nil
}

// provenance records where and how a result was measured.
type provenance struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Trace       bool    `json:"trace"`
	Reps        int     `json:"reps"`
	NumCPU      int     `json:"num_cpu"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	GitCommit   string  `json:"git_commit"`
	Binary      string  `json:"binary_sha256"`
	K           int     `json:"k"`
	Parallelism int     `json:"parallelism"`
	Benchmark   string  `json:"benchmark"`
	Scale       int     `json:"scale"`
	Txns        int     `json:"txns"`
	Train       float64 `json:"train"`
	ServeSec    float64 `json:"serve_horizon_vsec"`
	FlushPolicy string  `json:"flush_policy"`
	WALDirs     string  `json:"wal_dirs"`
}

func newProvenance(cfg config, reps int) provenance {
	commit := "unknown (not built from a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return provenance{
		Workload: cfg.w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Reps: reps,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitCommit: commit, Binary: binaryHash(),
		K: numParts, Parallelism: parallelism,
		Benchmark: cfg.w.bench, Scale: cfg.w.scale, Txns: cfg.w.txns, Train: cfg.w.train, ServeSec: cfg.w.serveSec,
		FlushPolicy: flushPolicy,
		WALDirs:     "a fresh temporary directory under " + cfg.workdir + " per replay, removed after it",
	}
}

// binaryHash identifies the running program, so that determinism records
// are only compared between runs of the same build.
func binaryHash() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return "unknown"
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// checkDeterminism compares the run's deterministic outputs with the
// record an earlier run of the same binary, workload and seed left, and
// leaves one when there is none.
func checkDeterminism(cfg config, binary string, fp fingerprint) error {
	dir := filepath.Join(cfg.workdir, "determinism")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", cfg.w.name, cfg.seed, binary))
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		data, err := json.Marshal(fp)
		if err != nil {
			return err
		}
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			return err
		}
		return os.Rename(tmp, path)
	case err != nil:
		return err
	}
	var prev fingerprint
	if err := json.Unmarshal(data, &prev); err != nil {
		return fmt.Errorf("determinism record %s: %w", path, err)
	}
	if prev != fp {
		return gateErr("deterministic outputs differ from an earlier run of this binary and seed: %+v, earlier %+v", fp, prev)
	}
	return nil
}

func reportPath(cfg config, kind string) string {
	trace := 0
	if cfg.trace {
		trace = 1
	}
	return filepath.Join(cfg.workdir, fmt.Sprintf("%s-%s-seed%d-trace%d.json", kind, cfg.w.name, cfg.seed, trace))
}

// writeReport writes the run's report: provenance, the deterministic
// outputs, each rep's end-to-end metrics, the reduced metrics, and with
// tracing the overhead and self time per layer. The spans go to a file
// of their own.
func writeReport(cfg config, prov provenance, out *outcome) error {
	perRep := make([]map[string]metric, len(out.reps))
	for i, r := range out.reps {
		perRep[i] = evaluate(endToEnd, sample{out.setups, []*rep{r}})
	}
	report := map[string]any{
		"provenance":    prov,
		"deterministic": out.reps[0].fp,
		"end_to_end":    out.endToEnd,
		"reps":          perRep,
		"route_samples": len(out.reps[0].routeNS),
	}
	if cfg.trace {
		diff := map[string]float64{}
		for name, m := range out.tracedEndToEnd {
			diff[name] = m.Value - out.endToEnd[name].Value
		}
		report["per_layer"] = out.perLayer
		report["tracing"] = map[string]any{
			"overhead_pct":        out.overheadPct,
			"traced_end_to_end":   out.tracedEndToEnd,
			"traced_minus_plain":  diff,
			"self_time_per_layer": selfTimes(out.spans),
		}
		if err := writeSpans(spansPath(cfg), out.spans); err != nil {
			return err
		}
	}
	return writeJSON(reportPath(cfg, "report"), report)
}

func spansPath(cfg config) string {
	return filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.w.name, cfg.seed))
}

// writeSpans writes one compact JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
