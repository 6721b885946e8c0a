package main

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fairclique/internal/bounds"
	"fairclique/internal/color"
	"fairclique/internal/core"
	"fairclique/internal/graph"
	"fairclique/internal/heuristic"
	"fairclique/internal/kcore"
	"fairclique/internal/reduce"
)

// This file replays the public one-shot Find (a throwaway Session
// answering one query) as the sequence of layer calls it makes:
//
//	reduce.PipelineN
//	core.PrepareReduced
//	heuristic.HeurRFC — the incumbent seed Search would compute
//	(*core.Prepared).Search
//
// Each call is wrapped in a span from the outside; no layer is
// modified. PipelineN runs as one opaque call inside the op. Its split
// into kcore.FairCliquePrune, color.Greedy and the three colorful
// stages comes from a second, unrolled run under a root span of its
// own ("reduce.split", outside the op), whose stage sizes must equal
// the ones PipelineN returned.

// findReplay is what one replayed Find measured.
type findReplay struct {
	size       int
	clique     []int32
	reducedN   int32
	reducedM   int32
	stages     []reduce.StageStats // as reduce.PipelineN returned them
	heurSize   int
	stats      core.Stats
	searchTime time.Duration
	allocs     uint64
	prepared   *core.Prepared
	seed       []int32
}

// searchOptions are the core options the public Find passes for
// DefaultOptions(k, δ) with the given worker count, minus the
// heuristic, which the replay runs as its own span.
func searchOptions(k, delta, workers int) core.Options {
	return core.Options{
		K:         k,
		Delta:     delta,
		UseBounds: true,
		Extra:     bounds.ColorfulDegeneracy,
		Workers:   workers,
		Injector:  core.NewInjector(),
	}
}

// replayFind replays Find(g, DefaultOptions(k, δ)) at workers under
// span parent of op.
func replayFind(tr *tracer, parent, op int, g *graph.Graph, k, delta, workers int) findReplay {
	var out findReplay
	var sub *graph.Subgraph
	tr.do("reduce.pipeline", parent, op, func(int) {
		sub, out.stages = reduce.PipelineN(g, int32(k), workers)
	})
	out.reducedN, out.reducedM = sub.G.N(), sub.G.M()
	var p *core.Prepared
	tr.do("core.prepare", parent, op, func(int) {
		p = core.PrepareReduced(sub.G, sub.ToParent)
	})
	out.prepared = p
	var seed []int32
	tr.do("heuristic", parent, op, func(int) {
		if p.Work().N() == 0 {
			return
		}
		h := heuristic.HeurRFC(p.Work(), int32(k), int32(delta))
		if h.Clique != nil {
			seed = make([]int32, len(h.Clique))
			for i, v := range h.Clique {
				seed[i] = sub.ToParent[v]
			}
		}
	})
	out.heurSize = len(seed)
	out.seed = seed
	var res *core.Result
	a0 := allocCount()
	out.searchTime = tr.do("core.search", parent, op, func(int) {
		// Search validates only K and Delta, which the workload fixes.
		res, _ = p.Search(searchOptions(k, delta, workers), seed)
	})
	out.allocs = allocCount() - a0
	out.stats = res.Stats
	out.clique = res.Clique
	out.size = len(res.Clique)
	return out
}

// replaySplit runs reduce.PipelineN(g, k, workers) a second time,
// unrolled into its layer calls — the degeneracy pre-prune on the whole
// graph, then the colorful stages per connected component across up to
// workers goroutines, merged in component order — under a root span
// "reduce.split" of op. It checks that every stage kept as many
// vertices and edges as the real call reported in want.
func replaySplit(tr *tracer, op int, g *graph.Graph, k int32, workers int, want []reduce.StageStats) error {
	root := tr.begin("reduce.split", 0, op)
	stats := replayPipeline(tr, root, op, g, k, workers)
	tr.end(root)
	if !slices.Equal(stats, want) {
		return fmt.Errorf("%w: unrolled reduction kept %v, reduce.PipelineN %v", errMismatch, stats, want)
	}
	return nil
}

// replayPipeline mirrors reduce.PipelineN and returns its four stage
// sizes.
func replayPipeline(tr *tracer, parent, op int, g *graph.Graph, k int32, workers int) []reduce.StageStats {
	stats := []reduce.StageStats{
		{Name: "DegeneracyPrune"},
		{Name: "EnColorfulCore"},
		{Name: "ColorfulSup"},
		{Name: "EnColorfulSup"},
	}
	var alive []bool
	var pst kcore.PruneStats
	tr.do("kcore.prune", parent, op, func(int) {
		alive, pst = kcore.FairCliquePrune(g, k)
	})
	stats[0].Vertices, stats[0].Edges = pst.Survivors, pst.SurvivorEdges
	var pre *graph.Subgraph
	var comps [][]int32
	tr.do("graph.induce", parent, op, func(int) {
		pre = graph.InduceAlive(g, alive, nil)
		comps = graph.ConnectedComponents(pre.G)
	})

	type compOut struct {
		sub    *graph.Subgraph
		stages [3]reduce.StageStats
	}
	outs := make([]compOut, len(comps))
	run := func(ci int) {
		var cs *graph.Subgraph
		tr.do("graph.induce", parent, op, func(int) { cs = graph.Induce(pre.G, comps[ci]) })
		sub, sst := replayStages(tr, parent, op, cs.G, k)
		sub.ToParent = chain(cs.ToParent, sub.ToParent)
		outs[ci] = compOut{sub, sst}
	}
	if workers <= 1 || len(comps) <= 1 {
		for ci := range comps {
			run(ci)
		}
	} else {
		if workers > len(comps) {
			workers = len(comps)
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					ci := int(next.Add(1)) - 1
					if ci >= len(comps) {
						return
					}
					run(ci)
				}
			}()
		}
		wg.Wait()
	}

	tr.do("graph.induce", parent, op, func(int) {
		vAlive := make([]bool, g.N())
		eAlive := make([]bool, g.M())
		for ci := range comps {
			o := outs[ci]
			for i := int32(0); i < o.sub.G.N(); i++ {
				vAlive[pre.ToParent[o.sub.ToParent[i]]] = true
			}
			for e := int32(0); e < o.sub.G.M(); e++ {
				su, sv := o.sub.G.Edge(e)
				u := pre.ToParent[o.sub.ToParent[su]]
				v := pre.ToParent[o.sub.ToParent[sv]]
				if eid, ok := g.EdgeID(u, v); ok {
					eAlive[eid] = true
				}
			}
			for s := 0; s < 3; s++ {
				stats[s+1].Vertices += o.stages[s].Vertices
				stats[s+1].Edges += o.stages[s].Edges
			}
		}
		graph.InduceAlive(g, vAlive, eAlive)
	})
	return stats
}

// replayStages mirrors the three colorful stages the pipeline runs on
// one component, each re-colored on the shrunken graph.
func replayStages(tr *tracer, parent, op int, g *graph.Graph, k int32) (*graph.Subgraph, [3]reduce.StageStats) {
	var stats [3]reduce.StageStats
	stage := func(i int, name, span string, in *graph.Graph, kk int32,
		fn func(*graph.Graph, *color.Coloring, int32) *reduce.Result) *graph.Subgraph {
		var col *color.Coloring
		tr.do("color.greedy", parent, op, func(int) { col = color.Greedy(in) })
		var r *reduce.Result
		tr.do(span, parent, op, func(int) { r = fn(in, col, kk) })
		var sub *graph.Subgraph
		tr.do("graph.induce", parent, op, func(int) { sub = r.Materialize(in) })
		stats[i] = reduce.StageStats{Name: name, Vertices: r.VerticesLeft, Edges: r.EdgesLeft}
		return sub
	}
	sub := stage(0, "EnColorfulCore", "reduce.encolorfulcore", g, k-1, reduce.EnColorfulCore)
	sub2 := stage(1, "ColorfulSup", "reduce.colorfulsup", sub.G, k, reduce.ColorfulSup)
	sub2.ToParent = chain(sub.ToParent, sub2.ToParent)
	sub3 := stage(2, "EnColorfulSup", "reduce.encolorfulsup", sub2.G, k, reduce.EnColorfulSup)
	sub3.ToParent = chain(sub2.ToParent, sub3.ToParent)
	return sub3, stats
}

// chain composes vertex maps: outer maps inner ids to mid ids, parent
// maps mid ids onward.
func chain(parent, outer []int32) []int32 {
	out := make([]int32, len(outer))
	for i, v := range outer {
		out[i] = parent[v]
	}
	return out
}

// w1Nodes counts the branch nodes of the same search run with one
// worker, which is deterministic; it is not part of any span.
func w1Nodes(r findReplay, k, delta int) int64 {
	res, _ := r.prepared.Search(searchOptions(k, delta, 1), r.seed)
	return res.Stats.Nodes
}
