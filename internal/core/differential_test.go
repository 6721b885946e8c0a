package core

import (
	"runtime"
	"testing"

	"fairclique/internal/bounds"
	"fairclique/internal/gen"
	"fairclique/internal/graph"
	"fairclique/internal/rng"
	"fairclique/internal/sched"
)

// runWithSliceOracle runs MaxRFC with the legacy binary-search slice
// path forced, which is the independent reference implementation the
// chunked engine is differentially tested against.
func runWithSliceOracle(t *testing.T, g *graph.Graph, opt Options) *Result {
	t.Helper()
	old := useSliceOracle
	useSliceOracle = true
	defer func() { useSliceOracle = old }()
	return mustMaxRFC(t, g, opt)
}

// sixBoundConfigs is the Table II sweep: the plain advanced group plus
// each extra bound (None, Degeneracy, HIndex, ColorfulDegeneracy,
// ColorfulHIndex, ColorfulPath).
func sixBoundConfigs(k, delta int) []Options {
	extras := bounds.Extras()
	if len(extras) != 6 {
		panic("Table II sweep expects exactly six bound configurations")
	}
	out := make([]Options, 0, len(extras))
	for _, extra := range extras {
		out = append(out, Options{K: k, Delta: delta, UseBounds: true, Extra: extra})
	}
	return out
}

// Differential fuzz: random attributed graphs from the generator suite
// run through the chunked-bitset engine and the slice oracle must agree
// on the maximum fair clique size — and produce valid cliques — across
// all six Table II bound configurations.
func TestDifferentialChunkedVsSliceOracle(t *testing.T) {
	r := rng.New(20260729)
	type instance struct {
		name string
		g    *graph.Graph
	}
	var instances []instance
	for seed := uint64(0); seed < 6; seed++ {
		n := 30 + int(r.Intn(30))
		instances = append(instances,
			instance{"er", gen.AssignUniform(seed+100, gen.ErdosRenyi(seed, n, n*4), 0.5)},
			instance{"ba", gen.AssignUniform(seed+200, gen.BarabasiAlbert(seed, n, 5), 0.4)},
			instance{"ws", gen.AssignUniform(seed+300, gen.WattsStrogatz(seed, n, 4, 0.2), 0.6)},
		)
		planted, _ := gen.PlantFairClique(seed+400, gen.ErdosRenyi(seed, n, n*2), 4, 4)
		instances = append(instances, instance{"planted", planted})
	}
	for _, inst := range instances {
		for _, kd := range [][2]int{{1, 1}, {2, 1}, {2, 3}} {
			k, delta := kd[0], kd[1]
			want := runWithSliceOracle(t, inst.g, Options{K: k, Delta: delta})
			for _, opt := range sixBoundConfigs(k, delta) {
				got := mustMaxRFC(t, inst.g, opt)
				if got.Size() != want.Size() {
					t.Fatalf("%s n=%d k=%d δ=%d extra=%v: chunked %d, slice oracle %d",
						inst.name, inst.g.N(), k, delta, opt.Extra, got.Size(), want.Size())
				}
				if got.Size() > 0 && !inst.g.IsFairClique(got.Clique, k, delta) {
					t.Fatalf("%s k=%d δ=%d extra=%v: chunked result not a fair clique",
						inst.name, k, delta, opt.Extra)
				}
				// The oracle too must hand back a valid clique under the
				// same bound configuration.
				oracle := runWithSliceOracle(t, inst.g, opt)
				if oracle.Size() != want.Size() {
					t.Fatalf("%s k=%d δ=%d extra=%v: slice oracle inconsistent with itself: %d vs %d",
						inst.name, k, delta, opt.Extra, oracle.Size(), want.Size())
				}
			}
		}
	}
}

// bigComponentInstance is the force-the-cap fixture: one connected
// component comfortably past the 4096-vertex chunk boundary, small
// enough to search exhaustively in a test.
func bigComponentInstance(seed uint64) *graph.Graph {
	return gen.BigComponent(seed, 48, 0.55, graph.ChunkBits+160)
}

// Before the chunked rows landed, a >4096-vertex component silently
// fell back to the slice path. It must now build the chunked successor
// matrix — multi-chunk rows included — and match the slice oracle
// exactly. This is the test-level verification required by the
// acceptance criteria (not a benchmark-only claim).
func TestBigComponentUsesChunkedPath(t *testing.T) {
	g := bigComponentInstance(11)
	if g.N() <= graph.ChunkBits {
		t.Fatalf("fixture has %d vertices; want > %d", g.N(), graph.ChunkBits)
	}
	comps := graph.ConnectedComponents(g)
	if len(comps) != 1 {
		t.Fatalf("fixture has %d components, want 1", len(comps))
	}

	// White-box: the component must be routed to the chunked
	// representation, never the slice fallback.
	s := &searcher{p: PrepareReduced(g, identity(g.N())), k: 2, delta: 1, opt: Options{K: 2, Delta: 1}}
	d := s.newCompData(comps[0])
	if d.succ == nil || d.allVerts != nil {
		t.Fatalf("component of %d vertices did not take the chunked path", d.n)
	}
	if d.words <= graph.ChunkWords {
		t.Fatalf("candidate rows span %d words; want > one chunk (%d)", d.words, graph.ChunkWords)
	}
	multiChunkRows := 0
	for v := int32(0); v < d.n; v++ {
		if d.succ.RowBytes(v) > 0 && d.comp.Deg(v) > 2 {
			multiChunkRows++
		}
	}
	if multiChunkRows == 0 {
		t.Fatal("no non-trivial successor rows built")
	}

	// End to end: chunked result == slice-oracle result, on the exact
	// same >4096-vertex component (SkipReduction keeps it intact).
	for _, kd := range [][2]int{{1, 1}, {2, 1}} {
		k, delta := kd[0], kd[1]
		opt := Options{K: k, Delta: delta, SkipReduction: true}
		chunked := mustMaxRFC(t, g, opt)
		oracle := runWithSliceOracle(t, g, opt)
		if chunked.Size() != oracle.Size() {
			t.Fatalf("k=%d δ=%d: chunked %d, slice oracle %d", k, delta, chunked.Size(), oracle.Size())
		}
		if chunked.Size() > 0 && !g.IsFairClique(chunked.Clique, k, delta) {
			t.Fatalf("k=%d δ=%d: chunked result invalid", k, delta)
		}
		// With bounds enabled the big component must still agree.
		opt.UseBounds, opt.Extra = true, bounds.ColorfulDegeneracy
		withBounds := mustMaxRFC(t, g, opt)
		if withBounds.Size() != oracle.Size() {
			t.Fatalf("k=%d δ=%d with bounds: chunked %d, slice oracle %d",
				k, delta, withBounds.Size(), oracle.Size())
		}
	}
}

// starvedGraph has exactly three attribute-a vertices, so a root split
// yields only three tasks: with eight workers, five start hungry and
// can only be fed by subtree donation. The b-side subtrees are deep,
// which is precisely the deep-left starvation case the donation path
// exists for.
func starvedGraph(seed uint64, n int) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		attr := graph.AttrB
		if v < 3 {
			attr = graph.AttrA
		}
		b.SetAttr(int32(v), attr)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Bool(0.5) {
				b.AddEdge(int32(u), int32(v))
			}
		}
	}
	return b.Build()
}

// searchSingleComponent drives searchComponent directly so small
// fixtures exercise the root-split + stealing machinery (MaxRFC routes
// components under smallComponentLimit to the serial pool instead).
// The returned searcher's best clique is in g's own vertex ids.
func searchSingleComponent(t *testing.T, g *graph.Graph, opt Options, workers int) *searcher {
	t.Helper()
	s := &searcher{p: PrepareReduced(g, identity(g.N())), k: int32(opt.K), delta: int32(opt.Delta), opt: opt}
	if s.opt.BoundDepth <= 0 {
		s.opt.BoundDepth = 1
	}
	if got := s.p.Components(); got != 1 {
		t.Fatalf("fixture has %d components, want 1", got)
	}
	s.searchComponent(0, workers)
	return s
}

// A root split with more workers than root branches (three attribute-a
// vertices, eight workers) must stay exact: the surplus workers start
// hungry and live entirely off donated subtrees. Donation volume
// depends on goroutine scheduling (on a single CPU a worker can finish
// before anyone goes hungry), so occurrence is asserted separately by
// TestDonationFeedsHungryWorker; here we check exactness and that
// serial runs never donate. Run with -race via make test-race.
func TestWorkStealingStarvedRootSplit(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		g := starvedGraph(seed, 48)
		opt := Options{K: 1, Delta: 46}
		serial := searchSingleComponent(t, g, opt, 1)
		par := searchSingleComponent(t, g, opt, 8)
		if len(serial.best) != len(par.best) {
			t.Fatalf("seed=%d: serial %d, stealing %d", seed, len(serial.best), len(par.best))
		}
		if len(par.best) > 0 && !g.IsFairClique(par.best, 1, 46) {
			t.Fatalf("seed=%d: stolen-subtree result invalid", seed)
		}
		if par.donations.Load() > 0 {
			t.Logf("seed=%d: %d subtrees donated", seed, par.donations.Load())
		}
		if serial.donations.Load() != 0 {
			t.Fatalf("seed=%d: serial run reported %d donations", seed, serial.donations.Load())
		}
	}
}

// Regression for the production root-split path: rootTasks must yield
// the root branch vertices from a FRESH worker (whose collect arena
// starts nil) and from a recycled one. A nil collect buffer would make
// expandBits miss collect mode and silently search the whole component
// serially — exactness tests cannot catch that, only the split itself.
func TestRootSplitCollectsTasks(t *testing.T) {
	g := starvedGraph(2, 48)
	s := &searcher{p: PrepareReduced(g, identity(g.N())), k: 1, delta: 46,
		opt: Options{K: 1, Delta: 46, BoundDepth: 1}}
	if got := s.p.Components(); got != 1 {
		t.Fatalf("fixture has %d components, want 1", got)
	}
	prep := s.p.comp(0)
	d := &compData{compPrep: prep, s: s}
	for _, pass := range []string{"fresh", "recycled"} {
		w := prep.getWorker(d)
		tasks := w.rootTasks()
		// The starved fixture has exactly three attribute-a vertices and
		// the root expands only the a side (diff == 0, cnt[0] < k).
		if len(tasks) != 3 {
			t.Fatalf("%s worker: root split collected %d tasks, want 3", pass, len(tasks))
		}
		for _, u := range tasks {
			if d.comp.Attr(u) != graph.AttrA {
				t.Fatalf("%s worker: collected non-a root branch %d", pass, u)
			}
		}
		if w.collect != nil {
			t.Fatalf("%s worker: collect mode left enabled after the split", pass)
		}
		prep.putWorker(w)
	}
}

// Deterministic donation: a thief is parked hungry in Drain before
// the driver branches, so the driver's first expansion is guaranteed
// to see it and ship a subtree through the component's pool. This pins
// the donate / Drain / runStolen handshake independent of scheduler
// timing and doubles as the steal-path race test under -race (two
// goroutines, shared incumbent, donated buffers crossing between
// them).
func TestDonationFeedsHungryWorker(t *testing.T) {
	g := starvedGraph(1, 60)
	opt := Options{K: 1, Delta: 56, BoundDepth: 1}
	s := &searcher{p: PrepareReduced(g, identity(g.N())), k: 1, delta: 56, opt: opt}
	if got := s.p.Components(); got != 1 {
		t.Fatalf("fixture has %d components, want 1", got)
	}
	d := s.newCompData(s.p.comps[0])
	pool := sched.NewPool()
	scope := pool.NewScope()
	d.steal = scope

	// The driver holds the ledger open; the thief never entered, so its
	// Drain parks hungry until the driver donates.
	scope.Enter()
	done := make(chan struct{})
	go func() {
		defer close(done)
		scope.Drain()
	}()
	for !scope.Hungry() {
		runtime.Gosched()
	}

	driver := newWorker(d)
	driver.branchRoot()
	driver.flushNodes()
	// Let the thief pick up every donation before the driver enters
	// Drain, so the cross-goroutine handoff is what gets tested
	// (otherwise the driver could just reclaim its own donations).
	for pool.Steals() < s.donations.Load() {
		runtime.Gosched()
	}
	scope.Exit()
	scope.Drain()
	<-done

	if s.donations.Load() == 0 {
		t.Fatal("driver never donated despite a parked hungry thief")
	}
	if got := pool.Steals(); got != s.donations.Load() {
		t.Fatalf("%d donations but %d steals; the pool lost or invented work", s.donations.Load(), got)
	}
	serial := searchSingleComponent(t, g, Options{K: 1, Delta: 56}, 1)
	if len(s.best) != len(serial.best) {
		t.Fatalf("stolen run found %d, serial %d", len(s.best), len(serial.best))
	}
	if len(s.best) > 0 && !g.IsFairClique(s.best, 1, 56) {
		t.Fatal("stolen run produced an invalid clique")
	}
}

// BenchmarkBigComponentPaths measures the chunked engine against the
// slice oracle on the same >4096-vertex instance BENCH_core.json is
// recorded on, keeping the cap-lift's "at or above the slice-fallback
// baseline" claim measurable: go test -bench BigComponentPaths.
func BenchmarkBigComponentPaths(b *testing.B) {
	g := gen.BigComponentGiant(1)
	opt := Options{K: 2, Delta: 4, SkipReduction: true}
	for _, tc := range []struct {
		name  string
		slice bool
	}{
		{"chunked", false},
		{"slice-oracle", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			old := useSliceOracle
			useSliceOracle = tc.slice
			defer func() { useSliceOracle = old }()
			var nodes int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := MaxRFC(g, opt)
				if err != nil {
					b.Fatal(err)
				}
				nodes += res.Stats.Nodes
			}
			b.ReportMetric(float64(nodes)/b.Elapsed().Seconds(), "nodes/sec")
		})
	}
}

// Donation must also cooperate with the abort valve: stolen subtrees
// stop promptly and never corrupt the incumbent.
func TestWorkStealingWithAbort(t *testing.T) {
	g := starvedGraph(3, 52)
	s := searchSingleComponent(t, g, Options{K: 1, Delta: 50, MaxNodes: 500}, 8)
	if !s.aborted.Load() {
		t.Skip("search finished before the cap; nothing to verify")
	}
	if s.best != nil && !g.IsFairClique(s.best, 1, 50) {
		t.Fatal("aborted stealing run produced an invalid clique")
	}
}
