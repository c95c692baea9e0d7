package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"ffsage/internal/stats"
	"ffsage/internal/trace"
)

// tracer records spans that the harness opens around its calls into
// the program's layers. A span is credited to one layer metric (a name
// ending in _s or _ms); its self time is its duration minus the spans
// opened inside it. Time inside the traced window that no span covers
// is unattributed_s, so the layer self times plus unattributed_s add up
// to the traced wall time by construction. What can go wrong is a layer
// call with no span around it: its time lands in unattributed_s, which
// metrics therefore caps at maxUnattributed of the traced wall.
//
// A nil *tracer records nothing: the same code computes the untraced
// reference outputs the checks compare against.
type tracer struct {
	start time.Time
	wall  time.Duration
	open  []*span
	top   time.Duration // summed durations of the outermost spans
	err   error

	self    map[string]time.Duration // self time by layer metric
	also    map[string]time.Duration // breakdowns (aging.replay_s.<arm>)
	sum     map[string]float64       // accumulated measures behind the rates
	count   map[string]float64
	samples map[string][]float64
}

type span struct {
	metric   string
	also     string
	start    time.Time
	children time.Duration
}

func newTracer() *tracer {
	return &tracer{
		start:   time.Now(),
		self:    map[string]time.Duration{},
		also:    map[string]time.Duration{},
		sum:     map[string]float64{},
		count:   map[string]float64{},
		samples: map[string][]float64{},
	}
}

// begin opens a span credited to metric; the returned func closes it.
func (t *tracer) begin(metric string) func() { return t.beginAlso(metric, "") }

// beginAlso is begin that also credits the self time to a breakdown
// metric (one that refines metric and is not summed with the others).
func (t *tracer) beginAlso(metric, also string) func() {
	if t == nil {
		return func() {}
	}
	s := &span{metric: metric, also: also, start: time.Now()}
	t.open = append(t.open, s)
	return func() {
		d := time.Since(s.start)
		if n := len(t.open); n == 0 || t.open[n-1] != s {
			t.err = fmt.Errorf("span %s closed while another span was innermost", metric)
			return
		}
		t.open = t.open[:len(t.open)-1]
		self := d - s.children
		t.self[metric] += self
		if also != "" {
			t.also[also] += self
		}
		if n := len(t.open); n > 0 {
			t.open[n-1].children += d
		} else {
			t.top += d
		}
	}
}

// add accumulates one measure of a rate metric: value over count.
func (t *tracer) add(name string, value, count float64) {
	if t == nil {
		return
	}
	t.sum[name] += value
	t.count[name] += count
}

// sample records one observation of a distribution metric.
func (t *tracer) sample(name string, v float64) {
	if t == nil {
		return
	}
	t.samples[name] = append(t.samples[name], v)
}

// finish closes the traced window.
func (t *tracer) finish() error {
	t.wall = time.Since(t.start)
	if t.err == nil && len(t.open) > 0 {
		t.err = fmt.Errorf("span %s never closed", t.open[len(t.open)-1].metric)
	}
	return t.err
}

// perLayer is every per-layer metric a traced run prints, with its
// unit. Span metrics are layer self times; the others are rates and
// sizes measured inside those spans. A layer that does no work on a
// workload reads 0.
var perLayer = []struct {
	name, unit string
	span       bool
}{
	{"workload.generate_s", "s", true},
	{"workload.nfstrace_s", "s", true},
	{"workload.diff_s", "s", true},
	{"workload.merge_s", "s", true},
	{"aging.replay_s", "s", true},
	{"aging.replay_s.ffs", "s", false},
	{"aging.replay_s.ffs-realloc", "s", false},
	{"aging.replay_s.ffs-extent", "s", false},
	{"aging.replay_s.ffs-firstfit", "s", false},
	{"aging.replay_s.ffs-bestfit", "s", false},
	{"aging.replay_s.ssd", "s", false},
	{"aging.op_ns", "ns", false},
	{"aging.day_ms_p50", "ms", false},
	{"aging.day_ms_tail", "ms", false},
	{"ffs.create_ns", "ns", false},
	{"ffs.delete_ns", "ns", false},
	{"ffs.rewrite_ns", "ns", false},
	{"ffs.layout_score_ns", "ns", false},
	{"ffs.save_image_ms", "ms", true},
	{"ffs.load_image_ms", "ms", true},
	{"ffs.check_ms", "ms", true},
	{"ffs.image_kb", "KB", false},
	{"trace.checkpoint_encode_ms", "ms", true},
	{"trace.workload_read_s", "s", true},
	{"obs.publish_ms", "ms", true},
	{"obs.spans_kb", "KB", false},
	{"queue.transition_ms", "ms", true},
	{"jobs.fsync_ms", "ms", true},
	{"jobs.http_s", "s", true},
	{"jobs.overhead_ms", "ms", false},
	{"layout.report_s", "s", true},
	{"bench.seq_sweep_s", "s", true},
	{"bench.hot_s", "s", true},
	{"bench.disk_request_ns", "ns", false},
	{"cmd.mkworkload_s", "s", true},
	{"cmd.agefs_s", "s", true},
	{"cmd.seqbench_s", "s", true},
	{"cmd.hotbench_s", "s", true},
	{"cmd.layoutstat_s", "s", true},
	{"cmd.fsck_s", "s", true},
	{"unattributed_s", "s", false},
}

// opMetric names the per-op-kind rate an op's host time feeds.
func opMetric(k trace.OpKind) string {
	return "ffs." + strings.ToLower(k.String()) + "_ns"
}

// ratio is sum/count, or 0 when nothing was counted.
func (t *tracer) ratio(name string) float64 {
	if t.count[name] == 0 {
		return 0
	}
	return t.sum[name] / t.count[name]
}

// maxUnattributed is the largest share of the traced wall time that
// may lie outside every span. The harness's own work between spans
// (hashing outputs, encoding the composed workload) stays near 2%; one
// process, replay or sweep left without a span exceeds it.
const maxUnattributed = 0.05

// metrics renders the per-layer metrics. It fails if a span was
// credited to a name that is not a span metric, or if more than
// maxUnattributed of the traced wall lies outside every span.
func (t *tracer) metrics() (map[string]metric, error) {
	for _, name := range sortedKeys(t.self) {
		if !isSpanMetric(name) {
			return nil, fmt.Errorf("trace: span credited to %s, which is not a span metric", name)
		}
	}
	unattributed := t.wall - t.top
	if share := unattributed.Seconds() / t.wall.Seconds(); share > maxUnattributed {
		return nil, fmt.Errorf("trace: %.1f%% of the %v traced wall is outside every span (at most %.0f%% allowed): a layer call has no span",
			100*share, t.wall, 100*maxUnattributed)
	}
	vals := map[string]float64{"unattributed_s": unattributed.Seconds()}
	for _, m := range perLayer {
		if !m.span {
			continue
		}
		v := t.self[m.name].Seconds()
		if m.unit == "ms" {
			v *= 1e3
		}
		vals[m.name] = v
	}
	for _, name := range sortedKeys(t.also) {
		vals[name] = t.also[name].Seconds()
	}

	// aging.op_ns divides the replay layer's self time (the op calls
	// and day closes; checkpoints are their own spans) by the ops.
	if ops := t.count["aging.ops"]; ops > 0 {
		vals["aging.op_ns"] = float64(t.self["aging.replay_s"]) / ops
	}
	for _, name := range []string{"ffs.create_ns", "ffs.delete_ns", "ffs.rewrite_ns", "ffs.layout_score_ns",
		"ffs.image_kb", "obs.spans_kb", "bench.disk_request_ns", "jobs.overhead_ms"} {
		vals[name] = t.ratio(name)
	}
	if days := t.samples["aging.day_ms"]; len(days) > 0 {
		vals["aging.day_ms_p50"] = stats.Median(days)
		vals["aging.day_ms_tail"] = tail(days)
	}

	out := map[string]metric{}
	for _, m := range perLayer {
		out[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	// An arm outside perLayer (paper-repro's ground truth) is printed too.
	for _, name := range sortedKeys(t.also) {
		if _, ok := out[name]; !ok {
			out[name] = metric{Value: vals[name], Unit: "s"}
		}
	}
	return out, nil
}

func isSpanMetric(name string) bool {
	for _, m := range perLayer {
		if m.name == name {
			return m.span
		}
	}
	return false
}

// tail is the highest percentile with at least ten samples beyond it;
// with fewer than forty samples it is the median, as such a percentile
// would be no tail.
func tail(xs []float64) float64 {
	n := len(xs)
	if n < 40 {
		return stats.Median(xs)
	}
	return stats.Percentile(xs, 100*float64(n-11)/float64(n-1))
}

// sortedKeys returns a map's keys in order, for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
