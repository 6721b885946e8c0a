package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"fairclique"
	"fairclique/internal/gen"
	"fairclique/internal/graph"
)

// cell is one (k, δ) query.
type cell struct{ k, delta int }

func (c cell) String() string { return fmt.Sprintf("(%d,%d)", c.k, c.delta) }

// gridCells is the canonical 9-cell grid, k = 2..4 by δ = 1..3.
var gridCells = func() []cell {
	var cs []cell
	for k := 2; k <= 4; k++ {
		for d := 1; d <= 3; d++ {
			cs = append(cs, cell{k, d})
		}
	}
	return cs
}()

// bigCompShell is the cycle shell length of the bigcomp-giant shape.
const bigCompShell = graph.ChunkBits + 1024

// instance is one generated graph in both forms: the internal CSR the
// layer replays run on and the public Graph the ops query (frozen at
// set-up, so its lazy freeze is never timed).
type instance struct {
	ig *graph.Graph
	pg *fairclique.Graph
}

// instanceSeed derives the generator seed of a run's i-th instance.
func instanceSeed(seed uint64, i int) uint64 { return seed*64 + uint64(i) }

// bigComp builds the bigcomp-giant shape: a dense G(230, 0.5) nucleus
// welded to an attribute-alternating cycle shell of ChunkBits+1024
// vertices. scale shrinks the nucleus only.
func bigComp(seed uint64, scale float64) instance {
	nucleus := int(230 * scale)
	if nucleus < 40 {
		nucleus = 40
	}
	ig := gen.BigComponent(seed, nucleus, 0.5, bigCompShell)
	return instance{ig: ig, pg: publicGraph(ig)}
}

// publicGraph copies an internal graph into a public Graph through the
// public API and freezes it.
func publicGraph(ig *graph.Graph) *fairclique.Graph {
	g := fairclique.NewGraph(int(ig.N()))
	for v := int32(0); v < ig.N(); v++ {
		g.SetAttr(int(v), ig.Attr(v))
	}
	for e := int32(0); e < ig.M(); e++ {
		u, v := ig.Edge(e)
		g.AddEdge(int(u), int(v))
	}
	g.M() // the lazy freeze belongs to set-up
	return g
}

// checkClique reports why clique is not a fair clique of the expected
// size on g (nil when it is).
func checkClique(g *fairclique.Graph, c cell, clique []int, want int) error {
	if len(clique) != want {
		return fmt.Errorf("%w: cell %v size %d, want %d", errMismatch, c, len(clique), want)
	}
	if want > 0 && !g.IsFairClique(clique, c.k, c.delta) {
		return fmt.Errorf("%w: cell %v answer is not a fair clique", errMismatch, c)
	}
	return nil
}

func toInt(s []int32) []int {
	out := make([]int, len(s))
	for i, v := range s {
		out[i] = int(v)
	}
	return out
}

// forEach calls fn(i) for every i in [0, n) on up to workers
// goroutines and returns every error joined.
func forEach(n, workers int, fn func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
