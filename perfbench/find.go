package main

import (
	"fmt"
	"time"

	"fairclique"
)

// findCells are the (k, δ) cells the find workload cycles through:
// k = 1, where reduction removes nothing, and k >= 2, where it drops
// the cycle shell.
var findCells = []cell{{1, 2}, {2, 4}, {3, 1}, {4, 2}}

// findInstances is how many bigcomp-giant instances one run cycles
// through, so one unusually hard or easy graph moves the medians less.
const findInstances = 16

type findState struct {
	insts []instance
	ref   [][]int // ref[instance][cell] = optimum size
}

// findPair maps op i to its instance and cell; one cycle visits every
// pair once.
func findPair(i int) (inst, c int) {
	p := i % (findInstances * len(findCells))
	return p % findInstances, p / findInstances
}

func runFind(cfg config, tr *tracer) (*report, error) {
	rep := &report{}
	setup := func() (*findState, error) {
		st := &findState{}
		for i := 0; i < findInstances; i++ {
			st.insts = append(st.insts, bigComp(instanceSeed(cfg.seed, i), cfg.scale))
		}
		// Warm-up op, untimed by the loop and counted in set-up.
		_, err := fairclique.Find(st.insts[0].pg, findOptions(findCells[0], cfg.workers))
		return st, err
	}
	setupS, st, err := timedSetup(cfg.setupReps, setup, func(*findState) {})
	if err != nil {
		return nil, err
	}
	// Reference sizes from a serial session grid: a different code path
	// (one warm session, dominance skips, warm starts) from the one-shot
	// parallel Find the ops run.
	st.ref = make([][]int, findInstances)
	err = forEach(findInstances, cfg.workers, func(i int) (err error) {
		st.ref[i], err = serialGrid(st.insts[i].pg, findCells)
		return err
	})
	if err != nil {
		return nil, err
	}

	op := func(i int) (*fairclique.Result, error) {
		ii, ci := findPair(i)
		c := findCells[ci]
		res, err := fairclique.Find(st.insts[ii].pg, findOptions(c, cfg.workers))
		if err != nil {
			return nil, err
		}
		return res, checkClique(st.insts[ii].pg, c, res.Clique, st.ref[ii][ci])
	}
	cycle := findInstances * len(findCells)
	if !cfg.trace {
		ls := closedLoop(cfg.duration(), 1, nil, func(i int) error { _, err := op(i); return err }, rep.onErr)
		rep.addEndToEnd(setupS, ls)
		return rep, nil
	}

	var runs []replayRun
	var w1 []int64
	start := time.Now()
	for i := 0; time.Since(start) < cfg.duration() || i < cycle; i++ {
		rep.Attempted++
		ii, ci := findPair(i)
		c := findCells[ci]
		t := time.Now()
		pub, err := op(i)
		pubTime := time.Since(t)
		if err != nil {
			rep.onErr(i, err)
			continue
		}
		root := tr.begin("op", 0, i)
		r := replayFind(tr, root, i, st.insts[ii].ig, c.k, c.delta, cfg.workers)
		tr.end(root)
		err = replaySplit(tr, i, st.insts[ii].ig, int32(c.k), cfg.workers, r.stages)
		if err == nil {
			err = checkReplay(r, pub, st.insts[ii].pg, c, st.ref[ii][ci])
		}
		if err != nil {
			rep.onErr(i, err)
			continue
		}
		runs = append(runs, replayRun{op: i, pub: pubTime, find: r})
		if i < cycle {
			w1 = append(w1, w1Nodes(r, c.k, c.delta))
		}
	}
	rep.addFindLayers(tr.snapshot(), runs, w1, cycle)
	return rep, nil
}

func findOptions(c cell, workers int) fairclique.Options {
	opt := fairclique.DefaultOptions(c.k, c.delta)
	opt.Workers = workers
	return opt
}

// serialGrid answers cells on one serial session and checks each
// answer is a fair clique.
func serialGrid(g *fairclique.Graph, cells []cell) ([]int, error) {
	s := fairclique.NewSession(g)
	defer s.Close()
	specs := make([]fairclique.QuerySpec, len(cells))
	for i, c := range cells {
		specs[i] = fairclique.QuerySpec{K: c.k, Delta: c.delta}
	}
	rs, err := s.FindGrid(specs)
	if err != nil {
		return nil, err
	}
	sizes := make([]int, len(cells))
	for i, r := range rs {
		if err := checkClique(g, cells[i], r.Clique, r.Size()); err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
		sizes[i] = r.Size()
	}
	return sizes, nil
}

// checkReplay verifies the replay answered like the public call: the
// same reduced graph and an optimum of the reference size.
func checkReplay(r findReplay, pub *fairclique.Result, g *fairclique.Graph, c cell, want int) error {
	if int(r.reducedN) != pub.Stats.ReducedVertices || int(r.reducedM) != pub.Stats.ReducedEdges {
		return fmt.Errorf("%w: replayed reduction of cell %v kept %d/%d vertices/edges, public Find %d/%d",
			errMismatch, c, r.reducedN, r.reducedM, pub.Stats.ReducedVertices, pub.Stats.ReducedEdges)
	}
	return checkClique(g, c, toInt(r.clique), want)
}

// onErr counts a failed op.
func (r *report) onErr(i int, err error) { r.fail("op %d: %v", i, err) }

// replayRun is one traced op: the public call's untraced time and what
// its replay measured.
type replayRun struct {
	op   int
	pub  time.Duration
	find findReplay
}

// addFindLayers reports the per-layer metrics of replayed Find calls.
// Times are medians over ops; counts are means over the first cycle of
// ops (one op per distinct input), so they repeat exactly for a seed.
func (r *report) addFindLayers(spans []span, runs []replayRun, w1 []int64, cycle int) {
	ops := make([]int, len(runs))
	for i, run := range runs {
		ops[i] = run.op
	}
	first := runs[:min(cycle, len(runs))]
	mean := func(f func(replayRun) float64) float64 {
		var s float64
		for _, run := range first {
			s += f(run)
		}
		return frac(s, float64(len(first)))
	}
	// reduce.ms times the real reduce.PipelineN; the stage times come
	// from its unrolled second run (replaySplit).
	r.add("reduce.ms", opMedianMs(spans, "reduce.pipeline", ops), "ms")
	r.add("kcore.prune_ms", opMedianMs(spans, "kcore.prune", ops), "ms")
	r.add("kcore.survivor_edges", mean(func(x replayRun) float64 { return float64(x.find.stages[0].Edges) }), "edges")
	r.add("color.greedy_ms", opMedianMs(spans, "color.greedy", ops), "ms")
	r.add("reduce.encolorfulcore_ms", opMedianMs(spans, "reduce.encolorfulcore", ops), "ms")
	r.add("reduce.colorfulsup_ms", opMedianMs(spans, "reduce.colorfulsup", ops), "ms")
	r.add("reduce.encolorfulsup_ms", opMedianMs(spans, "reduce.encolorfulsup", ops), "ms")
	for si, name := range []string{"degeneracyprune", "encolorfulcore", "colorfulsup", "encolorfulsup"} {
		r.add("reduce.edges_out."+name, mean(func(x replayRun) float64 { return float64(x.find.stages[si].Edges) }), "edges")
	}
	r.add("heuristic.ms", opMedianMs(spans, "heuristic", ops), "ms")
	r.add("heuristic.gap", mean(func(x replayRun) float64 { return float64(x.find.size - x.find.heurSize) }), "vertices")
	r.add("core.prep_ms", opMedianMs(spans, "core.prepare", ops), "ms")
	r.add("core.search_ms", opMedianMs(spans, "core.search", ops), "ms")
	var w1Sum int64
	for _, n := range w1 {
		w1Sum += n
	}
	r.addNote("core.nodes", frac(float64(w1Sum), float64(len(w1))), "nodes", "one search worker, mean per op over one cycle")
	var rates []float64
	var nodes, allocs, checks, prunes, donations float64
	for _, run := range runs {
		s := run.find.stats
		if sec := run.find.searchTime.Seconds(); sec > 0 {
			rates = append(rates, float64(s.Nodes)/sec)
		}
		nodes += float64(s.Nodes)
		allocs += float64(run.find.allocs)
		checks += float64(s.BoundChecks)
		prunes += float64(s.BoundPrunes)
		donations += float64(s.Donations)
	}
	n := float64(len(runs))
	r.add("core.nodes_per_s", median(rates), "1/s")
	r.add("core.allocs_per_node", frac(allocs, nodes), "allocs/node")
	r.add("core.bound_checks", frac(checks, n), "checks")
	r.add("core.bound_prune_frac", frac(prunes, checks), "frac")
	r.add("core.donations", frac(donations, n), "tasks")
	overMs := r.addTraceFracs(spans, runs)
	r.addFloored("api.find_overhead_ms", overMs, "ms")
}

// addTraceFracs reports trace.unattributed_frac and trace.overhead_frac:
// how much of each untraced public op no layer span of its replay
// covers, and the replay's time over the public op's. It returns the
// median uncovered time per op in milliseconds.
func (r *report) addTraceFracs(spans []span, runs []replayRun) float64 {
	cover := rootCover(spans)
	roots := perOp(spans, "op")
	var over, unattr, traced, pub []float64
	for _, run := range runs {
		gap := run.pub - cover[run.op]
		over = append(over, ms(gap))
		unattr = append(unattr, frac(float64(gap), float64(run.pub)))
		traced = append(traced, ms(roots[run.op]))
		pub = append(pub, ms(run.pub))
	}
	r.addFloored("trace.unattributed_frac", median(unattr), "frac")
	r.add("trace.overhead_frac", frac(median(traced), median(pub)), "ratio")
	r.add("failed_frac", frac(float64(r.Failed), float64(r.Attempted)), "frac")
	r.Spans = summarize(spans)
	return median(over)
}

// addFloored reports an uncovered share or time, which cannot be
// negative. The replay is a second execution of the op, so when its
// spans cover all of the op they can still outlast the untraced call;
// such a reading is reported as 0 with the raw value in the note.
func (r *report) addFloored(name string, v float64, unit string) {
	if v < 0 {
		r.addNote(name, 0, unit, fmt.Sprintf("raw median %.4g: the replay outlasted the op", v))
		return
	}
	r.add(name, v, unit)
}
