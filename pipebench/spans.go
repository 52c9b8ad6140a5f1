package main

import (
	"slices"
	"sort"
	"time"

	"repro/internal/obs"
)

// span is one timed call into a layer, recorded by the benchmark around
// the program's public functions. Spans stay in memory until the run
// ends.
type span struct {
	Name string `json:"name"`
	// ID is the request id: the rep index for stage spans, the test-txn
	// index for router.Route spans.
	ID     int64 `json:"id"`
	Parent int   `json:"parent"`   // index of the parent span; -1 for a rep root
	Start  int64 `json:"start_ns"` // since the run began
	End    int64 `json:"end_ns"`
	// Counters are obs.Default counter deltas over the span.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// spanCounters are the obs.Default counters whose deltas stage spans
// carry: the work counts of the WAL, transport, 2PC and router layers.
var spanCounters = []string{
	"wal.records_appended",
	"transport.msgs_sent",
	"transport.bytes_sent",
	"twopc.prepares",
	"router.routes",
}

func readCounters() [5]int64 {
	var v [5]int64
	for i, name := range spanCounters {
		v[i] = obs.Default.Counter(name).Value()
	}
	return v
}

// tracer records spans when on; when off every method is a no-op, so
// the untraced run pays only a branch.
type tracer struct {
	on     bool
	epoch  time.Time
	spans  []span
	before map[int][5]int64 // counter values at begin, by span index
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, before: map[int][5]int64{}}
}

// begin opens a span and returns its index (-1 when tracing is off).
func (t *tracer) begin(name string, parent int, id int64) int {
	if !t.on {
		return -1
	}
	i := len(t.spans)
	t.before[i] = readCounters()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: int64(time.Since(t.epoch))})
	return i
}

// end closes span i and attaches the nonzero counter deltas.
func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	s := &t.spans[i]
	s.End = int64(time.Since(t.epoch))
	after := readCounters()
	for j, name := range spanCounters {
		if d := after[j] - t.before[i][j]; d != 0 {
			if s.Counters == nil {
				s.Counters = map[string]int64{}
			}
			s.Counters[name] = d
		}
	}
	delete(t.before, i)
}

// reserve grows the span buffer for n more spans, so that recording
// them inside a timed loop does not allocate.
func (t *tracer) reserve(n int) {
	if t.on {
		t.spans = slices.Grow(t.spans, n)
	}
}

// add records an already-timed span (no counters).
func (t *tracer) add(name string, parent int, id int64, start, end time.Time) {
	if !t.on {
		return
	}
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
}

// attachPhases adds the spans core.Partition recorded through obs.Trace
// (jecb/phase1..3) under parent. obs exports durations, not start
// times; the phases run one after another, so they are laid end to end
// from the parent's start.
func (t *tracer) attachPhases(parent int, id int64, snap obs.SpanSnapshot) {
	if parent < 0 {
		return
	}
	at := t.spans[parent].Start
	for _, c := range snap.Children {
		t.spans = append(t.spans, span{Name: c.Name, ID: id, Parent: parent, Start: at, End: at + c.DurationNS})
		at += c.DurationNS
	}
}

// layerTime is one span name's total and self time over a run.
type layerTime struct {
	Count   int   `json:"count"`
	TotalNS int64 `json:"total_ns"`
	// SelfNS is the span time not covered by its child spans.
	SelfNS int64 `json:"self_ns"`
}

// selfTimes aggregates total and self time per span name.
func selfTimes(spans []span) map[string]*layerTime {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]*layerTime{}
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			ivs = append(ivs, [2]int64{spans[c].Start, spans[c].End})
		}
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.Count++
		lt.TotalNS += s.End - s.Start
		lt.SelfNS += s.End - s.Start - covered(ivs, s.Start, s.End)
	}
	return out
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var sum int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			sum += e - s
			cur = e
		}
	}
	return sum
}
