package core

import (
	"testing"

	"fairclique/internal/bounds"
	"fairclique/internal/enum"
	"fairclique/internal/gen"
	"fairclique/internal/graph"
	"fairclique/internal/sched"
)

// newWarmEngine builds a searcher plus a warmed worker over the single
// component of g, ready for repeated full-tree runs: the first run
// grows every arena and settles the incumbent, so subsequent runs are
// the engine's steady state.
func newWarmEngine(t testing.TB, g *graph.Graph, opt Options) (*searcher, *worker) {
	t.Helper()
	if opt.BoundDepth <= 0 {
		opt.BoundDepth = 1
	}
	s := &searcher{p: PrepareReduced(g, identity(g.N())), k: int32(opt.K), delta: int32(opt.Delta), opt: opt}
	if got := s.p.Components(); got != 1 {
		t.Fatalf("test graph has %d components, want 1", got)
	}
	d := s.newCompData(s.p.comps[0])
	if d.succ == nil {
		t.Fatalf("component of %d vertices fell back to the slice path", d.n)
	}
	w := newWorker(d)
	w.branchRoot() // warm: grows arenas and fixes the incumbent
	w.flushNodes()
	if s.nodes.Load() == 0 {
		t.Fatal("warm run visited no nodes")
	}
	return s, w
}

// Steady-state branching must allocate zero heap objects per node —
// the acceptance criterion of the allocation-free engine. Checked for
// the plain baseline and the default bounds configuration (whose
// evaluator runs scratch-backed), on both a single-chunk component and
// a multi-chunk >4096-vertex component (dense, sparse and run
// containers all in play), and with the work-stealing state installed:
// the donation hook on the hot path is a single atomic load and must
// not allocate while no worker is hungry.
func TestBranchSteadyStateZeroAllocs(t *testing.T) {
	small := random(42, 80, 0.4)
	big := gen.BigComponent(42, 36, 0.5, graph.ChunkBits+120)
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		opt   Options
		steal bool
	}{
		{"plain", small, Options{K: 2, Delta: 1}, false},
		{"bounds", small, Options{K: 2, Delta: 1, UseBounds: true, Extra: bounds.ColorfulDegeneracy}, false},
		{"multichunk-plain", big, Options{K: 2, Delta: 1}, false},
		{"multichunk-bounds", big, Options{K: 2, Delta: 1, UseBounds: true, Extra: bounds.ColorfulDegeneracy}, false},
		{"steal-config", small, Options{K: 2, Delta: 1, Workers: 2}, true},
		{"multichunk-steal", big, Options{K: 2, Delta: 1, Workers: 2}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, w := newWarmEngine(t, tc.g, tc.opt)
			if tc.name[:4] == "mult" && w.d.words <= graph.ChunkWords {
				t.Fatalf("multichunk fixture spans %d words; want > %d", w.d.words, graph.ChunkWords)
			}
			if tc.steal {
				// The Workers > 1 configuration: donation scope armed, no
				// hungry executor. Every branch pays exactly one atomic
				// load.
				w.d.steal = sched.NewPool().NewScope()
			}
			avg := testing.AllocsPerRun(20, func() {
				w.branchRoot()
			})
			if avg != 0 {
				t.Fatalf("steady-state branching allocates %.2f objects per full-tree run, want 0", avg)
			}
		})
	}
}

// The session re-query path: a second (and every later) full query on a
// warm Prepared must stay at 0 allocs/node. The branching itself is
// allocation-free (asserted above) and the worker arenas come back from
// the compPrep freelist, so a whole re-query allocates only a fixed
// handful of per-query objects (searcher, result, component views,
// incumbent copies) regardless of how many nodes it visits.
func TestBranchSteadyStateZeroAllocsOnRequery(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		opt  Options
	}{
		{"plain", random(42, 90, 0.4), Options{K: 2, Delta: 1, SkipReduction: true}},
		{"bounds", random(42, 90, 0.4), Options{K: 2, Delta: 1, SkipReduction: true,
			UseBounds: true, Extra: bounds.ColorfulDegeneracy}},
		{"multichunk", gen.BigComponent(42, 36, 0.5, graph.ChunkBits+120),
			Options{K: 2, Delta: 1, SkipReduction: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := prepare(tc.g)
			warm, err := p.Search(tc.opt, nil) // builds compPreps and worker arenas
			if err != nil {
				t.Fatal(err)
			}
			if warm.Stats.Nodes < 500 {
				t.Fatalf("fixture too small to amortize per-query overhead: %d nodes", warm.Stats.Nodes)
			}
			avg := testing.AllocsPerRun(10, func() {
				if _, err := p.Search(tc.opt, nil); err != nil {
					t.Fatal(err)
				}
			})
			// The per-query constant must not scale with the tree: a few
			// dozen objects over hundreds-to-millions of nodes rounds to
			// 0 allocs/node.
			if avg > 64 {
				t.Fatalf("re-query allocates %.1f objects; want a node-count-independent constant <= 64", avg)
			}
			if perNode := avg / float64(warm.Stats.Nodes); perNode > 0.02 {
				t.Fatalf("re-query allocates %.4f objects/node over %d nodes; want 0 (<= 0.02)",
					perNode, warm.Stats.Nodes)
			}
		})
	}
}

// BenchmarkBranchAllocs drives the branching engine over a fixed
// component and reports allocations (want 0 allocs/op in steady state)
// plus the node throughput.
func BenchmarkBranchAllocs(b *testing.B) {
	g := random(42, 120, 0.3)
	s, w := newWarmEngine(b, g, Options{K: 2, Delta: 1})
	start := s.nodes.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.branchRoot()
	}
	w.flushNodes()
	b.StopTimer()
	nodes := s.nodes.Load() - start
	b.ReportMetric(float64(nodes)/b.Elapsed().Seconds(), "nodes/sec")
}

// The slice oracle path must agree with the Bron–Kerbosch oracle, so
// it stays trustworthy as the differential-test reference for the
// chunked engine.
func TestSlicePathMatchesOracle(t *testing.T) {
	old := useSliceOracle
	useSliceOracle = true
	defer func() { useSliceOracle = old }()

	for seed := uint64(0); seed < 8; seed++ {
		g := random(seed, 32, 0.35)
		for _, kd := range [][2]int{{1, 0}, {2, 1}, {3, 2}} {
			k, delta := kd[0], kd[1]
			want := len(enum.MaxFairClique(g, k, delta))
			for _, workers := range []int{1, 4} {
				res := mustMaxRFC(t, g, Options{
					K: k, Delta: delta, Workers: workers,
					UseBounds: true, Extra: bounds.ColorfulDegeneracy,
				})
				if res.Size() != want {
					t.Fatalf("seed=%d k=%d δ=%d workers=%d: slice path %d, oracle %d",
						seed, k, delta, workers, res.Size(), want)
				}
				if want > 0 && !g.IsFairClique(res.Clique, k, delta) {
					t.Fatalf("seed=%d: invalid clique from slice path", seed)
				}
			}
		}
	}
}

// Intra-component parallelism: dense random graphs are one giant
// connected component, so Workers > 1 exercises the root-split path.
// Workers ∈ {1, 4} must agree on the optimum size with consistent
// stats.
func TestIntraComponentWorkersMatchSerial(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		n := 40 + int(seed%3)*15
		g := random(seed, n, 0.3)
		k := 1 + int(seed%3)
		delta := int(seed % 4)
		serial := mustMaxRFC(t, g, Options{K: k, Delta: delta})
		par := mustMaxRFC(t, g, Options{K: k, Delta: delta, Workers: 4})
		if serial.Size() != par.Size() {
			t.Fatalf("seed=%d n=%d k=%d δ=%d: serial %d, workers=4 %d",
				seed, n, k, delta, serial.Size(), par.Size())
		}
		if par.Size() > 0 {
			if !g.IsFairClique(par.Clique, k, delta) {
				t.Fatalf("seed=%d: parallel result invalid", seed)
			}
			if par.Stats.Nodes == 0 {
				t.Fatalf("seed=%d: parallel run with a clique but no nodes", seed)
			}
		}
		if par.Stats.Aborted || serial.Stats.Aborted {
			t.Fatalf("seed=%d: unexpected abort without MaxNodes", seed)
		}
	}
}

// Many small components with Workers > 1 exercise the cross-component
// pool (components under smallComponentLimit are distributed one per
// goroutine rather than root-split).
func TestSmallComponentPoolMatchesSerial(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		g := multiComponent(seed, 5)
		serial := mustMaxRFC(t, g, Options{K: 2, Delta: 1})
		pooled := mustMaxRFC(t, g, Options{K: 2, Delta: 1, Workers: 4})
		if serial.Size() != pooled.Size() {
			t.Fatalf("seed=%d: serial %d, pooled %d", seed, serial.Size(), pooled.Size())
		}
		if pooled.Size() > 0 && !g.IsFairClique(pooled.Clique, 2, 1) {
			t.Fatalf("seed=%d: pooled result invalid", seed)
		}
	}
}

// The relabeled component must preserve exactness under every variant
// (cross-check of the peel-rank relabeling against the oracle).
func TestRelabeledComponentExactness(t *testing.T) {
	for seed := uint64(20); seed < 26; seed++ {
		g := random(seed, 28, 0.45)
		want := len(enum.MaxFairClique(g, 2, 1))
		for _, opt := range allVariants(2, 1) {
			res := mustMaxRFC(t, g, opt)
			if res.Size() != want {
				t.Fatalf("seed=%d %+v: got %d want %d", seed, opt, res.Size(), want)
			}
		}
	}
}
