package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Note qualifies the value (the tail's percentile and sample
	// count, or why a layer reads 0 on this workload).
	Note string `json:"note,omitempty"`
}

// report is everything one run prints.
type report struct {
	Workload string    `json:"workload"`
	Why      string    `json:"why"`
	Seed     uint64    `json:"seed"`
	Trace    bool      `json:"trace"`
	Host     hostFacts `json:"host"`

	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Mismatches describes the first wrong answers (bounded).
	Mismatches []string `json:"mismatches,omitempty"`

	Metrics []metric `json:"metrics"`
	// Spans summarises the traced run per span name.
	Spans []spanSummary `json:"spans,omitempty"`
}

const maxMismatchNotes = 8

// fail counts a failed op and keeps its description.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Mismatches) < maxMismatchNotes {
		r.Mismatches = append(r.Mismatches, fmt.Sprintf(format, args...))
	}
}

func (r *report) add(name string, value float64, unit string) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: value, Unit: unit})
}

func (r *report) addNote(name string, value float64, unit, note string) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: value, Unit: unit, Note: note})
}

// setNote sets the note of the metric already added under name.
func (r *report) setNote(name, note string) {
	for i := range r.Metrics {
		if r.Metrics[i].Name == name {
			r.Metrics[i].Note = note
		}
	}
}

func (r *report) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// endToEndNames are the metrics of the --trace 0 result object, in
// BENCHMARK.json order.
var endToEndNames = []string{"setup_s", "op_ms_p50", "op_ms_tail", "ops_per_s", "cpu_ms_per_op", "peak_heap_mb"}

// perLayer lists the --trace 1 metrics with their units, in
// BENCHMARK.json order.
var perLayer = []struct{ name, unit string }{
	{"failed_frac", "frac"}, {"slo_miss_frac", "frac"}, {"gen_late_ms_tail", "ms"},
	{"graph.load_ms", "ms"}, {"graph.spilled_bytes", "bytes"}, {"graph.peak_tracked_mb", "MB"},
	{"api.snap_copy_ms", "ms"}, {"api.find_overhead_ms", "ms"},
	{"kcore.prune_ms", "ms"}, {"kcore.survivor_edges", "edges"},
	{"reduce.ms", "ms"}, {"color.greedy_ms", "ms"}, {"reduce.encolorfulcore_ms", "ms"},
	{"reduce.colorfulsup_ms", "ms"}, {"reduce.encolorfulsup_ms", "ms"},
	{"reduce.edges_out.degeneracyprune", "edges"}, {"reduce.edges_out.encolorfulcore", "edges"},
	{"reduce.edges_out.colorfulsup", "edges"}, {"reduce.edges_out.encolorfulsup", "edges"},
	{"heuristic.ms", "ms"}, {"heuristic.gap", "vertices"},
	{"core.prep_ms", "ms"}, {"core.search_ms", "ms"}, {"core.nodes", "nodes"}, {"core.nodes_per_s", "1/s"},
	{"core.allocs_per_node", "allocs/node"}, {"core.bound_checks", "checks"}, {"core.bound_prune_frac", "frac"},
	{"core.donations", "tasks"},
	{"sched.steals", "tasks"}, {"sched.cross_cell_steals", "tasks"}, {"sched.spec_starts", "cells"}, {"sched.spec_win_frac", "frac"},
	{"session.reduction_builds", "builds"}, {"session.reduction_reuses", "queries"}, {"session.dominance_skips", "queries"},
	{"session.warm_starts", "queries"}, {"session.grid_nodes", "nodes"}, {"session.apply_ms", "ms"},
	{"session.snapshots_patched", "snapshots"}, {"session.comp_preps_reused", "components"}, {"session.requery_ms", "ms"},
	{"enum.ms", "ms"}, {"enum.count", "cliques"}, {"enum.cache_hits", "queries"},
	{"serve.cache_hit_frac", "frac"}, {"serve.flushes", "flushes"}, {"serve.ops_per_flush", "ops"},
	{"serve.overhead_ms_p50", "ms"}, {"serve.admission_queue_max", "requests"},
	{"trace.unattributed_frac", "frac"}, {"trace.overhead_frac", "ratio"},
}

// fillLayers adds every per-layer metric the workload did not measure
// as 0, noting that its layer is not reached on this workload.
func (r *report) fillLayers() {
	for _, m := range perLayer {
		if _, ok := r.lookup(m.name); !ok {
			r.addNote(m.name, 0, m.unit, "layer not reached on this workload")
		}
	}
}

// resultNames returns the metric names the result object must carry.
func (r *report) resultNames() []string {
	if !r.Trace {
		return endToEndNames
	}
	names := make([]string, len(perLayer))
	for i, m := range perLayer {
		names[i] = m.name
	}
	return names
}

func (r *report) lookup(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultObject struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

// result builds the final line's object. A run with a wrong answer
// carries no metrics, so no number is ever recorded from it.
func (r *report) result() (resultObject, error) {
	obj := resultObject{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]resultMetric{}}
	if !obj.Correct {
		return obj, nil
	}
	for _, name := range r.resultNames() {
		m, ok := r.lookup(name)
		if !ok {
			return obj, fmt.Errorf("metric %s was not measured", name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return obj, fmt.Errorf("metric %s is %v", name, m.Value)
		}
		obj.Metrics[name] = resultMetric{Value: m.Value, Unit: m.Unit}
	}
	return obj, nil
}

// write prints the human-readable table (format "text") or one
// machine-readable record (format "json"), then the result object as
// the last line.
func (r *report) write(stdout, stderr io.Writer, format string) {
	obj, err := r.result()
	if err != nil {
		r.fail("report: %v", err)
		obj = resultObject{Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]resultMetric{}}
	}
	if format == "json" {
		b, _ := json.Marshal(r)
		fmt.Fprintln(stdout, string(b))
	} else {
		r.writeText(stdout)
	}
	for _, m := range r.Mismatches {
		fmt.Fprintln(stderr, "perfbench: mismatch:", m)
	}
	b, _ := json.Marshal(obj)
	fmt.Fprintln(stdout, string(b))
}

func (r *report) writeText(w io.Writer) {
	mode := "end-to-end (untraced)"
	if r.Trace {
		mode = "per-layer (traced replay)"
	}
	fmt.Fprintf(w, "workload %s  seed %d  %s\n", r.Workload, r.Seed, mode)
	fmt.Fprintf(w, "  why: %s\n", r.Why)
	h := r.Host
	fmt.Fprintf(w, "  host: num_cpu=%d GOMAXPROCS=%d %s load=%s spin=%.1fms noise(2 spinners / 1)=%.2f, after the run spin=%.1fms noise=%.2f\n",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.LoadAvg, h.SpinMs, h.NoiseRatio, h.SpinMsAfter, h.NoiseRatioAfter)
	fmt.Fprintf(w, "  ops: attempted=%d failed=%d\n", r.Attempted, r.Failed)
	for _, m := range r.Metrics {
		note := ""
		if m.Note != "" {
			note = "  (" + m.Note + ")"
		}
		fmt.Fprintf(w, "  %-34s %14s %s%s\n", m.Name, formatValue(m.Value), m.Unit, note)
	}
	if len(r.Spans) > 0 {
		fmt.Fprintf(w, "  %-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
		for _, s := range r.Spans {
			fmt.Fprintf(w, "  %-28s %8d %12.3f %12.3f\n", s.Name, s.Count, s.TotalMs, s.SelfMs)
		}
	}
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.6f", v), "0"), ".")
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return frac(s, float64(len(xs)))
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentile is the highest whole percentile with at least ten
// samples above it; with fewer than 20 samples there is none, and the
// median stands in so the tail never reads below it.
func tailPercentile(n int) float64 {
	if n < 20 {
		return 50
	}
	return math.Floor(100 * (1 - 10/float64(n)))
}

// addTail reports the tail of xs under name with its percentile and
// sample count in the note.
func (r *report) addTail(name string, xs []float64, unit string) {
	p := tailPercentile(len(xs))
	r.addNote(name, percentile(xs, p), unit, fmt.Sprintf("p%.0f of %d samples", p, len(xs)))
}

func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
