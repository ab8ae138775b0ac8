package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// metricDef declares one reported metric. BENCHMARK.json at the
// repository root lists the same set; the self-test keeps them equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndDefs are what a user of each workload sees, measured untraced.
// Every workload reports every one of them, so they are defined on the
// workload's operation: a churn event (mutation calls + ReembedDelta), a
// served commit (due time to response), a Monte-Carlo round (one
// coupled-curve block and one lifetime block). None can be 0.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"mem_live_mb", "MB", "lower", 0.10},
}

// perLayerDefs come from the traced run. Every workload reports every
// one; the times are of layers every workload reaches (the op itself and
// the core evaluation), and a layer only some workloads reach is
// reported as a share of its root operation, a count or a size, which
// is 0 where the workload does not reach it.
var perLayerDefs = []metricDef{
	{"trace.op.p50_ms", "ms", "lower", 0},
	{"trace.op.p90_ms", "ms", "lower", 0},
	{"trace.overhead", "ratio", "lower", 0},
	{"core.eval.p50_us", "us", "lower", 0},
	{"core.eval.p90_us", "us", "lower", 0},
	{"core.eval.busy_s", "s", "lower", 0},
	{"core.place_probe.p50_us", "us", "lower", 0},
	{"core.place_probe.busy_s", "s", "lower", 0},
	{"go.gc_cpu_share", "ratio", "lower", 0},
	{"harness.share", "ratio", "lower", 0},
	{"ftnet.mutate.share", "ratio", "lower", 0},
	{"ftnet.reembed.share", "ratio", "lower", 0},
	{"ftnet.copy.share", "ratio", "lower", 0},
	{"client.mutate.share", "ratio", "lower", 0},
	{"server.mutate.share", "ratio", "lower", 0},
	{"server.reembed.share", "ratio", "lower", 0},
	{"server.commit_other.share", "ratio", "lower", 0},
	{"sweep.curve.share", "ratio", "lower", 0},
	{"churn.simulate.share", "ratio", "lower", 0},
	{"read.client.share", "ratio", "lower", 0},
	{"read.server.share", "ratio", "lower", 0},
	{"read.sync_over_op.p50", "ratio", "lower", 0},
	{"read.full_json_over_op.p50", "ratio", "lower", 0},
	{"core.rejected", "count", "lower", 0},
	{"ftnet.full_rewrites", "count", "lower", 0},
	{"fault.eff_toggles", "count", "lower", 0},
	{"ftnet.delta_cols", "count", "lower", 0},
	{"ftnet.delta_precision", "ratio", "higher", 0},
	{"ftnet.copy_mb", "MB", "lower", 0},
	{"server.reembed.count", "count", "lower", 0},
	{"server.batch_mutations.mean", "count", "higher", 0},
	{"server.delta_resync", "count", "lower", 0},
	{"wire.delta_bytes_per_update", "B", "lower", 0},
	{"wire.full_json_bytes", "B", "lower", 0},
	{"loadgen.late_share", "ratio", "lower", 0},
	{"sweep.curve.trials_per_s", "1/s", "higher", 0},
	{"churn.simulate.trials_per_s", "1/s", "higher", 0},
}

// Root span names: the workload's operation, the serve reader's poll,
// and the shadow evaluation (outside every operation).
const (
	rootPoll   = "poll"
	rootShadow = "shadow"
)

// outcome is what a workload measured. Latencies are of the untraced
// timed phase; a traced run's second phase lives in tr.
type outcome struct {
	opRoot   string          // root span name of the workload's operation
	setup    []time.Duration // one per construction
	ops      []time.Duration // untraced op latencies
	measured time.Duration   // wall time of the untraced timed phase

	attempted     int64
	failed        int64
	checkFailures []string

	inputs  map[string]string
	digests map[string]string

	tr    *tracer
	layer map[string]float64 // per-layer values only the workload can compute

	liveHeap uint64 // bytes live after the run, inputs dropped
}

func newOutcome(opRoot string) *outcome {
	o := &outcome{
		opRoot:  opRoot,
		inputs:  map[string]string{},
		digests: map[string]string{},
		layer:   map[string]float64{},
	}
	return o
}

// noteLive records the heap the system under test holds once a run is
// over: the workload drops its generated inputs, and a GC marks what
// the host, sessions or server and the last embedding keep live. It is
// a pure function of the state reached, unlike runtime.MemStats.Sys,
// which counts garbage and grows in steps of whole heap arenas.
func (o *outcome) noteLive() {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		o.liveHeap = s[0].Value.Uint64()
	}
}

// fail records a failed check with its reason.
func (o *outcome) fail(reason string) { o.checkFailures = append(o.checkFailures, reason) }

// endToEnd computes the end-to-end metric set.
func (o *outcome) endToEnd() map[string]metric {
	ops := sortedDurs(o.ops)
	v := map[string]float64{
		"setup_s":     medianDur(o.setup) / 1e3,
		"op_ms_p50":   quantileDur(ops, 0.50),
		"ops_per_s":   float64(len(ops)) / o.measured.Seconds(),
		"mem_live_mb": float64(o.liveHeap) / 1e6,
	}
	return fill(endToEndDefs, v)
}

// perLayer computes the per-layer metric set from the traced phase.
func (o *outcome) perLayer() map[string]metric {
	a := o.tr.analyze()
	v := map[string]float64{
		"trace.op.p50_ms":         a.pct(o.opRoot, 0.50),
		"trace.op.p90_ms":         a.pct(o.opRoot, 0.90),
		"core.eval.p50_us":        a.pct("core.eval", 0.50) * 1e3,
		"core.eval.p90_us":        a.pct("core.eval", 0.90) * 1e3,
		"core.eval.busy_s":        a.busy("core.eval").Seconds(),
		"core.place_probe.p50_us": a.pct("core.place_probe", 0.50) * 1e3,
		"core.place_probe.busy_s": a.busy("core.place_probe").Seconds(),
		"harness.share":           a.share(o.opRoot),
		"ftnet.mutate.share":      a.share("ftnet.mutate"),
		"ftnet.reembed.share":     a.share("ftnet.reembed"),
		"client.mutate.share":     a.share("client.mutate"),
		"server.mutate.share":     a.share("server.mutate"),
		"sweep.curve.share":       a.share("sweep.curve"),
		"churn.simulate.share":    a.share("churn.simulate"),
		"read.client.share":       a.share("client.sync") + a.share("http.get_full_json"),
		"read.server.share":       a.share("server.get_delta") + a.share("server.get_full_json") + a.share("server.get_full_bin"),
	}
	if base := quantileDur(sortedDurs(o.ops), 0.50); base > 0 {
		v["trace.overhead"] = v["trace.op.p50_ms"] / base
	}
	if o.tr.totalCPU > 0 {
		v["go.gc_cpu_share"] = o.tr.gcCPU / o.tr.totalCPU
	}
	if op := v["trace.op.p50_ms"]; op > 0 {
		v["read.sync_over_op.p50"] = a.pct("client.sync", 0.50) / op
		v["read.full_json_over_op.p50"] = a.pct("http.get_full_json", 0.50) / op
	}
	if root := a[o.opRoot]; root != nil && root.total > 0 && a["ftnet.reembed"] != nil {
		// The facade's own cost per event: ReembedDelta minus the core
		// evaluation the shadow session timed on the same event.
		v["ftnet.copy.share"] = float64(a["ftnet.reembed"].self-a.busy("core.eval")) / float64(root.total)
	}
	for k, x := range o.layer {
		v[k] = x
	}
	return fill(perLayerDefs, v)
}

// fill returns exactly the declared metrics, 0 where v has no value.
func fill(defs []metricDef, v map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		x := v[d.Name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		out[d.Name] = metric{Value: x, Unit: d.Unit}
	}
	return out
}

func sortedDurs(ds []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), ds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantileDur is the q-quantile of sorted durations in milliseconds,
// linearly interpolated between closest ranks; 0 when empty.
func quantileDur(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	x := float64(sorted[lo])*(1-frac) + float64(sorted[hi])*frac
	return x / 1e6
}

func medianDur(ds []time.Duration) float64 { return quantileDur(sortedDurs(ds), 0.5) }

// spreadQuartiles returns the first quartile, median and third quartile
// of xs the way Python's statistics.quantiles(xs, n=4) and
// statistics.median compute them (the "exclusive" method).
func spreadQuartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n == 0 {
		return 0, 0, 0
	}
	if n%2 == 1 {
		med = d[n/2]
	} else {
		med = (d[n/2-1] + d[n/2]) / 2
	}
	if n < 2 {
		return med, med, med
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), med, q(3)
}
