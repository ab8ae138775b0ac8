package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans in memory around the calls the benchmark makes
// into each module's public functions; spans are written out when the
// run ends. A span's parent is the span that caused it (0 for a root),
// and every span of one root operation carries that operation's event
// number. Server-side spans arrive from handler goroutines, so recording
// is mutex-guarded. The tracer only records while on: a traced run's
// first half is untraced and gives the overhead baseline.
type tracer struct {
	t0   time.Time
	next atomic.Int64
	on   atomic.Bool

	mu    sync.Mutex
	spans []span

	// GC CPU over the traced window, from runtime/metrics.
	gcStart, cpuStart float64
	gcCPU, totalCPU   float64
}

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Event  int64  `json:"event"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin switches recording on.
func (t *tracer) begin() {
	t.gcStart, t.cpuStart = cpuSeconds()
	t.on.Store(true)
}

// finish switches recording off.
func (t *tracer) finish() {
	t.on.Store(false)
	gc, total := cpuSeconds()
	t.gcCPU, t.totalCPU = gc-t.gcStart, total-t.cpuStart
}

// active reports whether spans are being recorded; nil-safe so untraced
// code paths can share the traced ones.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

// id allocates a span id (never 0).
func (t *tracer) id() int64 { return t.next.Add(1) }

// record stores a finished span.
func (t *tracer) record(id, parent, event int64, name string, start, end time.Time) {
	s := span{ID: id, Parent: parent, Event: event, Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// child times fn as a span under parent when the tracer is active, and
// just calls it otherwise. fn receives the span's id (0 when untraced)
// to hand on to spans it causes elsewhere.
func (t *tracer) child(parent, event int64, name string, fn func(id int64)) {
	if !t.active() {
		fn(0)
		return
	}
	id := t.id()
	start := time.Now()
	fn(id)
	t.record(id, parent, event, name, start, time.Now())
}

// layerStats aggregates the spans of one name.
type layerStats struct {
	root  string // name of the root span these spans descend from
	count int
	total time.Duration // sum of span durations
	self  time.Duration // sum of self times: duration minus covered child time
	durs  []time.Duration
}

// analysis is the per-name aggregate of a traced run.
type analysis map[string]*layerStats

func (t *tracer) analyze() analysis {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	byID := make(map[int64]int, len(spans))
	childTime := make(map[int64]time.Duration)
	for i, s := range spans {
		byID[s.ID] = i
		if s.Parent != 0 {
			childTime[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	rootOf := func(s span) string {
		for s.Parent != 0 {
			i, ok := byID[s.Parent]
			if !ok {
				break
			}
			s = spans[i]
		}
		return s.Name
	}
	a := analysis{}
	for _, s := range spans {
		st := a[s.Name]
		if st == nil {
			st = &layerStats{root: rootOf(s)}
			a[s.Name] = st
		}
		d := time.Duration(s.End - s.Start)
		self := d - childTime[s.ID]
		if self < 0 {
			self = 0 // a server span can end a hair after its client span
		}
		st.count++
		st.total += d
		st.self += self
		st.durs = append(st.durs, d)
	}
	for _, st := range a {
		sort.Slice(st.durs, func(i, j int) bool { return st.durs[i] < st.durs[j] })
	}
	return a
}

// share is the self time of the named spans as a fraction of the total
// duration of the root spans they descend from; 0 when absent.
func (a analysis) share(name string) float64 {
	st := a[name]
	if st == nil {
		return 0
	}
	root := a[st.root]
	if root == nil || root.total == 0 {
		return 0
	}
	return float64(st.self) / float64(root.total)
}

// pct is the q-quantile of the named spans' durations in milliseconds.
func (a analysis) pct(name string, q float64) float64 {
	st := a[name]
	if st == nil {
		return 0
	}
	return quantileDur(st.durs, q)
}

func (a analysis) busy(name string) time.Duration {
	if st := a[name]; st != nil {
		return st.total
	}
	return 0
}

// printLayers prints per-layer self times and counts, grouped by root.
func (t *tracer) printLayers(w io.Writer) {
	a := t.analyze()
	names := make([]string, 0, len(a))
	for n := range a {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		ri, rj := a[names[i]].root, a[names[j]].root
		if ri != rj {
			return ri < rj
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(w, "%-22s %-22s %8s %12s %12s %8s\n", "root", "span", "count", "self_ms", "self_us/op", "share")
	for _, n := range names {
		st := a[n]
		fmt.Fprintf(w, "%-22s %-22s %8d %12.3f %12.2f %8.4f\n",
			st.root, n, st.count, float64(st.self)/1e6, float64(st.self)/1e3/float64(st.count), a.share(n))
	}
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

// cpuSeconds reads the runtime's cumulative GC and total CPU estimates.
func cpuSeconds() (gc, total float64) {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		gc = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		total = samples[1].Value.Float64()
	}
	return gc, total
}
