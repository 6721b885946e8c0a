package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"fairclique"
)

// benchmarkFile is the part of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func tinyConfig(t *testing.T, workload string, trace bool) config {
	t.Setenv("TMPDIR", t.TempDir())
	return config{workload: workload, seed: 1, seconds: 0.2, trace: trace, format: "text",
		scale: 0.05, workers: 2, setupReps: 1}
}

// TestSmokeAllWorkloads runs every workload at a tiny scale, untraced
// and traced, and checks that every metric BENCHMARK.json names is
// printed with its unit, in the table and in the result object, and
// that the untraced run records no spans.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, bw := range bf.Workloads {
		if bw.Name != workloads[i].name || bw.Why != workloads[i].why {
			t.Errorf("BENCHMARK.json workload %d is %q (%q), the benchmark's %q (%q)", i, bw.Name, bw.Why, workloads[i].name, workloads[i].why)
		}
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, w.name, trace)
			tr := &tracer{epoch: time.Now()}
			rep, err := w.run(cfg, tr)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !trace && len(tr.snapshot()) != 0 {
				t.Errorf("%s: the untraced run recorded %d spans", w.name, len(tr.snapshot()))
			}
			rep.Workload, rep.Trace = w.name, trace
			want := bf.EndToEnd
			if trace {
				rep.fillLayers()
				want = bf.PerLayer
			}
			var out, errb bytes.Buffer
			rep.write(&out, &errb, "text")
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var obj resultObject
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &obj); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result object: %v", w.name, trace, err)
			}
			if !obj.Correct || obj.Failed != 0 || obj.Attempted < 1 {
				t.Fatalf("%s trace=%v: result %+v, stderr %s", w.name, trace, obj, errb.String())
			}
			if len(obj.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.name, trace, len(obj.Metrics), len(want))
			}
			table := strings.Join(lines[:len(lines)-1], "\n")
			for _, m := range want {
				got, ok := obj.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
				if !strings.Contains(table, " "+m.Name+" ") || !strings.Contains(table, " "+m.Unit) {
					t.Errorf("%s trace=%v: table lacks %s with unit %s", w.name, trace, m.Name, m.Unit)
				}
			}
			if trace {
				checkNesting(t, w.name, tr.snapshot())
			}
		}
	}
}

// checkNesting asserts every child span lies inside its parent, spans
// of one op share the op id, and self time plus child cover equals
// each span's duration.
func checkNesting(t *testing.T, name string, spans []span) {
	t.Helper()
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	self, cover := selfTimes(spans), childCover(spans)
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("%s: span %s never ended", name, s.Name)
		}
		if self[s.ID]+cover[s.ID] != s.dur() || self[s.ID] < 0 {
			t.Errorf("%s: span %s self %v + children %v != %v", name, s.Name, self[s.ID], cover[s.ID], s.dur())
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("%s: span %s has unknown parent %d", name, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("%s: span %s [%v,%v] is outside parent %s [%v,%v]", name, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		if s.Op != p.Op {
			t.Errorf("%s: span %s op %d, parent %s op %d", name, s.Name, s.Op, p.Name, p.Op)
		}
	}
}

// TestSpanAccounting checks self time on a hand-built tree with
// overlapping children, as concurrent workers produce.
func TestSpanAccounting(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Op: 7, Name: "op", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Op: 7, Name: "a", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Op: 7, Name: "b", Start: ms(20), End: ms(50)},
		{ID: 4, Parent: 1, Op: 7, Name: "c", Start: ms(60), End: ms(70)},
		{ID: 5, Parent: 3, Op: 7, Name: "d", Start: ms(25), End: ms(35)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: ms(50), 2: ms(20), 3: ms(20), 4: ms(10), 5: ms(10)}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self %v, want %v", id, self[id], w)
		}
	}
	checkNesting(t, "hand-built", spans)
	if got := rootCover(spans)[7]; got != ms(50) {
		t.Errorf("root cover %v, want 50ms", got)
	}
	sum := summarize(spans)
	if len(sum) != 5 || sum[0].Name != "op" || sum[0].SelfMs != 50 {
		t.Errorf("summary %+v", sum)
	}
}

// TestNilTracerRecordsNothing checks the untraced path's tracer is
// inert.
func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, 1)
	tr.end(id)
	tr.do("y", id, 1, func(int) {})
	if id != 0 || tr.snapshot() != nil {
		t.Fatal("a nil tracer recorded a span")
	}
	if newTracer(false) != nil {
		t.Fatal("newTracer(false) must return the inert tracer")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {19, 50}, {20, 50}, {100, 90}, {120, 91}, {1000, 99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestRunRejectsBadFlags checks usage errors exit 2 without a result.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "find", "--trace", "2"},
		{"--workload", "find", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q", args, code, out.String())
		}
	}
}

// TestToggleViews checks the serve workload's read check: a read sent
// after a deletion was acknowledged must not use the deleted edge, and
// only a read overlapping a toggle may see either state.
func TestToggleViews(t *testing.T) {
	ts := newToggles(1)
	if v := ts.closeRead(0, ts.openRead(0)); v.state != viewPresent {
		t.Fatalf("quiet read sees %+v, want present", v)
	}
	w := ts.openRead(0)
	ts.send(0)
	if v := ts.closeRead(0, w); v.state != viewEither {
		t.Fatalf("read overlapping a toggle's send sees %+v, want either", v)
	}
	w = ts.openRead(0)
	ts.ack(0, 1, true, true)
	if v := ts.closeRead(0, w); v.state != viewEither {
		t.Fatalf("read sent while a toggle was in flight sees %+v, want either", v)
	}
	if v := ts.closeRead(0, ts.openRead(0)); v != (nucleusView{viewDeleted, 1}) {
		t.Fatalf("read after an acknowledged deletion sees %+v, want edge 1 deleted", v)
	}

	// Two balanced 4-cliques sharing the edge 2-3; the toggled edges
	// are 4-5, in the second, and 0-1, in the first.
	g := fairclique.NewGraph(6)
	for v := 0; v < 6; v++ {
		g.SetAttr(v, []fairclique.Attr{fairclique.AttrA, fairclique.AttrB}[v%2])
	}
	for _, q := range [][]int{{0, 1, 2, 3}, {2, 3, 4, 5}} {
		for i := range q {
			for j := i + 1; j < len(q); j++ {
				g.AddEdge(q[i], q[j])
			}
		}
	}
	c := serveCells[0]
	ci := serveIndex(c)
	cells := func(size int) []int {
		r := make([]int, len(serveCells))
		r[ci] = size
		return r
	}
	sg := &servedGraph{name: "t", in: instance{pg: g}, nuclei: [][2]int{{4, 5}, {0, 1}},
		refOrig: cells(4), refCut: [][]int{cells(4), cells(4)}}
	stale, fresh := []int{0, 1, 2, 3}, []int{2, 3, 4, 5}
	deleted := nucleusView{viewDeleted, 1}
	if err := sg.checkServed(c, stale, true, deleted); err == nil {
		t.Error("a stale answer holding the deleted edge passed")
	}
	for _, v := range []nucleusView{{state: viewPresent}, {state: viewEither}, {viewDeleted, 0}} {
		if err := sg.checkServed(c, stale, true, v); err != nil {
			t.Errorf("view %+v: %v", v, err)
		}
	}
	if err := sg.checkServed(c, fresh, true, deleted); err != nil {
		t.Error(err)
	}
	sg.refCut[1] = cells(3)
	if err := sg.checkServed(c, fresh, true, deleted); err == nil {
		t.Error("an answer of the pre-deletion size passed with the edge deleted")
	}
}
