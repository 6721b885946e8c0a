package main

import (
	"fmt"
	"time"

	"fairclique"
	"fairclique/internal/core"
	"fairclique/internal/session"
)

// gridTopR is the cell and budget of the grid op's diversified top-r
// enumeration.
var gridTopR = cell{2, 2}

const gridR = 3

// gridInstances is how many bigcomp-giant instances one run cycles
// through.
const gridInstances = 16

type gridState struct {
	insts []instance
	ref   [][]int // ref[instance][cell index in gridCells]
}

func gridSpecs() []fairclique.QuerySpec {
	specs := make([]fairclique.QuerySpec, len(gridCells))
	for i, c := range gridCells {
		specs[i] = fairclique.QuerySpec{K: c.k, Delta: c.delta}
	}
	return specs
}

func runGrid(cfg config, tr *tracer) (*report, error) {
	rep := &report{}
	setup := func() (*gridState, error) {
		st := &gridState{}
		for i := 0; i < gridInstances; i++ {
			st.insts = append(st.insts, bigComp(instanceSeed(cfg.seed, i), cfg.scale))
		}
		// Warm-up op, untimed by the loop and counted in set-up.
		s := fairclique.NewSession(st.insts[0].pg, fairclique.SessionOptions{Workers: cfg.workers})
		_, err := s.FindGrid(gridSpecs())
		s.Close()
		return st, err
	}
	setupS, st, err := timedSetup(cfg.setupReps, setup, func(*gridState) {})
	if err != nil {
		return nil, err
	}
	// Reference: every cell answered by an independent one-shot serial
	// Find, instances in parallel.
	st.ref = make([][]int, gridInstances)
	err = forEach(gridInstances, cfg.workers, func(i int) error {
		in := st.insts[i]
		st.ref[i] = make([]int, len(gridCells))
		for ci, c := range gridCells {
			res, err := fairclique.Find(in.pg, findOptions(c, 1))
			if err != nil {
				return err
			}
			if err := checkClique(in.pg, c, res.Clique, res.Size()); err != nil {
				return fmt.Errorf("reference: %w", err)
			}
			st.ref[i][ci] = res.Size()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	op := func(i int) error {
		in, ref := st.insts[i%gridInstances], st.ref[i%gridInstances]
		s := fairclique.NewSession(in.pg, fairclique.SessionOptions{Workers: cfg.workers})
		defer s.Close()
		rs, err := s.FindGrid(gridSpecs())
		if err != nil {
			return err
		}
		for ci, r := range rs {
			if err := checkClique(in.pg, gridCells[ci], r.Clique, ref[ci]); err != nil {
				return err
			}
		}
		set, err := s.Enumerate(fairclique.QuerySpec{K: gridTopR.k, Delta: gridTopR.delta, Kind: fairclique.KindTopR, R: gridR})
		if err != nil {
			return err
		}
		return checkTopR(in.pg, set.Cliques, set.Exact, ref[gridIndex(gridTopR)])
	}
	if !cfg.trace {
		ls := closedLoop(cfg.duration(), 1, nil, op, rep.onErr)
		rep.addEndToEnd(setupS, ls)
		return rep, nil
	}

	// The traced op replays the public calls on the session layer they
	// wrap: session.New, FindGrid and Enumerate, one span each. The
	// layers below run inside the session's scheduler and are not
	// reachable from outside on this workload.
	type gridRun struct {
		op    int
		pub   time.Duration
		stats session.Stats
		count int
	}
	var runs []gridRun
	var rr []replayRun
	start := time.Now()
	for i := 0; time.Since(start) < cfg.duration() || i < gridInstances; i++ {
		rep.Attempted++
		t := time.Now()
		err := op(i)
		pubTime := time.Since(t)
		if err != nil {
			rep.onErr(i, err)
			continue
		}
		in, ref := st.insts[i%gridInstances], st.ref[i%gridInstances]
		root := tr.begin("op", 0, i)
		var s *session.Session
		tr.do("session.new", root, i, func(int) {
			s = session.New(in.ig, session.Options{UseBounds: true, UseHeuristic: true, Workers: cfg.workers})
		})
		qs := make([]session.Query, len(gridCells))
		for ci, c := range gridCells {
			qs[ci] = session.Query{K: int32(c.k), Delta: int32(c.delta)}
		}
		var grid []*core.Result
		tr.do("session.find_grid", root, i, func(int) { grid, err = s.FindGrid(qs) })
		var set *session.ResultSet
		if err == nil {
			tr.do("enum.enumerate", root, i, func(int) {
				set, err = s.Enumerate(session.Query{K: int32(gridTopR.k), Delta: int32(gridTopR.delta), Kind: session.KindTopR, R: gridR})
			})
		}
		tr.do("session.close", root, i, func(int) { s.Close() })
		tr.end(root)
		if err == nil {
			err = checkReplayGrid(in.pg, grid, set, ref)
		}
		if err != nil {
			rep.onErr(i, err)
			continue
		}
		runs = append(runs, gridRun{op: i, pub: pubTime, stats: s.Stats(), count: len(set.Cliques)})
		rr = append(rr, replayRun{op: i, pub: pubTime})
	}
	spans := tr.snapshot()
	ops := make([]int, len(runs))
	for i, run := range runs {
		ops[i] = run.op
	}
	first := runs[:min(gridInstances, len(runs))]
	meanFirst := func(f func(session.Stats) int64) float64 {
		var s float64
		for _, run := range first {
			s += float64(f(run.stats))
		}
		return frac(s, float64(len(first)))
	}
	medianAll := func(f func(session.Stats) int64) float64 {
		xs := make([]float64, len(runs))
		for i, run := range runs {
			xs[i] = float64(f(run.stats))
		}
		return median(xs)
	}
	var starts, wins int64
	for _, run := range runs {
		starts += run.stats.SpeculativeStarts
		wins += run.stats.SpeculativeWins
	}
	rep.add("sched.steals", medianAll(func(s session.Stats) int64 { return s.Steals }), "tasks")
	rep.add("sched.cross_cell_steals", medianAll(func(s session.Stats) int64 { return s.CrossCellSteals }), "tasks")
	rep.add("sched.spec_starts", medianAll(func(s session.Stats) int64 { return s.SpeculativeStarts }), "cells")
	rep.add("sched.spec_win_frac", frac(float64(wins), float64(starts)), "frac")
	rep.add("session.reduction_builds", meanFirst(func(s session.Stats) int64 { return s.ReductionBuilds }), "builds")
	rep.add("session.reduction_reuses", meanFirst(func(s session.Stats) int64 { return s.ReductionReuses }), "queries")
	rep.add("session.dominance_skips", medianAll(func(s session.Stats) int64 { return s.DominanceSkips }), "queries")
	rep.add("session.warm_starts", medianAll(func(s session.Stats) int64 { return s.WarmStarts }), "queries")
	rep.add("session.grid_nodes", medianAll(func(s session.Stats) int64 { return s.Nodes }), "nodes")
	rep.add("enum.ms", opMedianMs(spans, "enum.enumerate", ops), "ms")
	var cnt float64
	for _, run := range first {
		cnt += float64(run.count)
	}
	rep.add("enum.count", frac(cnt, float64(len(first))), "cliques")
	rep.add("enum.cache_hits", medianAll(func(s session.Stats) int64 { return s.EnumCacheHits }), "queries")
	rep.addTraceFracs(spans, rr)
	return rep, nil
}

// gridIndex is c's position in gridCells.
func gridIndex(c cell) int {
	for i, g := range gridCells {
		if g == c {
			return i
		}
	}
	panic(fmt.Sprintf("cell %v is not in the grid", c))
}

// checkTopR verifies a top-r answer: exact, 1..gridR distinct fair
// cliques, each of the cell's optimum size.
func checkTopR(g *fairclique.Graph, cliques [][]int, exact bool, want int) error {
	if !exact || len(cliques) == 0 || len(cliques) > gridR {
		return fmt.Errorf("%w: top-r returned %d cliques (exact %v)", errMismatch, len(cliques), exact)
	}
	seen := map[string]bool{}
	for _, c := range cliques {
		if err := checkClique(g, gridTopR, c, want); err != nil {
			return err
		}
		key := fmt.Sprint(c)
		if seen[key] {
			return fmt.Errorf("%w: top-r repeats clique %v", errMismatch, c)
		}
		seen[key] = true
	}
	return nil
}

// checkReplayGrid checks the replayed session answers like the public
// op.
func checkReplayGrid(g *fairclique.Graph, grid []*core.Result, set *session.ResultSet, ref []int) error {
	for ci, r := range grid {
		if err := checkClique(g, gridCells[ci], toInt(r.Clique), ref[ci]); err != nil {
			return err
		}
	}
	cliques := make([][]int, len(set.Cliques))
	for i, c := range set.Cliques {
		cliques[i] = toInt(c)
	}
	return checkTopR(g, cliques, set.Exact, ref[gridIndex(gridTopR)])
}
