// Package heuristic implements the paper's linear-time heuristic
// framework HeurRFC (§V): a degree-greedy procedure DegHeur
// (Algorithm 5) and a colorful-degree-greedy procedure ColorfulDegHeur,
// combined with k-core shrinking between the two runs (Algorithm 6).
// The fair clique it finds seeds |R*| in the branch-and-bound search,
// and the color count of the shrunken graph gives a global upper bound.
package heuristic

import (
	"fairclique/internal/color"
	"fairclique/internal/colorful"
	"fairclique/internal/graph"
	"fairclique/internal/kcore"
)

// metric scores a vertex for greedy selection; higher is better.
type metric func(v int32) int32

// greedyRun grows a clique from seed by repeatedly adding the
// best-scoring candidate of the alternating attribute, mirroring
// HeurBranch in Algorithm 5 iteratively (the recursion is a simple
// path). It returns a (k, delta)-fair clique or nil. Beyond the
// pseudo-code, a dead-ended run still reports the current R when R
// already satisfies fairness — strictly better at no asymptotic cost.
func greedyRun(g *graph.Graph, k, delta int32, seed int32, score metric) []int32 {
	if g.Deg(seed) == 0 {
		return nil
	}
	r := []int32{seed}
	var cnt [2]int32
	cnt[g.Attr(seed)]++
	c := append([]int32(nil), g.Neighbors(seed)...)
	attrChoose := g.Attr(seed).Other()
	// limit[x] limits cnt[x]; fixed once the other attribute runs out of
	// candidates (its count is then final, so x may exceed it by at
	// most δ). The pseudo-code arms this cap only when the *chosen*
	// attribute empties, which lets the run overshoot the δ window; we
	// arm it for whichever side empties.
	limit := [2]int32{-1, -1}

	salvage := func() []int32 {
		if cnt[0] >= k && cnt[1] >= k && abs32(cnt[0]-cnt[1]) <= delta {
			return r
		}
		return nil
	}
	for {
		var avail [2]int32
		for _, v := range c {
			avail[g.Attr(v)]++
		}
		for x := 0; x < 2; x++ {
			if avail[x] == 0 && limit[1-x] < 0 {
				limit[1-x] = cnt[x] + delta
			}
		}
		// Drop candidates of any attribute already at its cap.
		for x := 0; x < 2; x++ {
			if limit[x] >= 0 && cnt[x] >= limit[x] && avail[x] > 0 {
				filtered := c[:0]
				for _, v := range c {
					if int32(g.Attr(v)) == int32(x) {
						continue
					}
					filtered = append(filtered, v)
				}
				c = filtered
				avail[x] = 0
				// The other side's cap may arm now that x is gone.
				if limit[1-x] < 0 {
					limit[1-x] = cnt[x] + delta
				}
			}
		}
		nChoose := avail[attrChoose]
		// Lines 14-15: candidate set exhausted, R is the result.
		if len(c) == 0 {
			return salvage()
		}
		// Lines 16-19: nothing of the chosen attribute — switch sides.
		if nChoose == 0 {
			attrChoose = attrChoose.Other()
			continue
		}
		// Line 20: greedy pick by the metric among the chosen attribute.
		best := int32(-1)
		var bestScore int32
		for _, v := range c {
			if g.Attr(v) != attrChoose {
				continue
			}
			if s := score(v); best < 0 || s > bestScore || (s == bestScore && v < best) {
				best, bestScore = v, s
			}
		}
		// Lines 22-23: extend R, intersect C with N(best).
		newC := c[:0]
		for _, v := range c {
			if v != best && g.HasEdge(best, v) {
				newC = append(newC, v)
			}
		}
		r = append(r, best)
		cnt[g.Attr(best)]++
		c = newC
		// Lines 24-27: dead-end pruning; salvage what fairness allows.
		total := int32(len(r) + len(c))
		if total < 2*k {
			return salvage()
		}
		var ccnt [2]int32
		for _, v := range c {
			ccnt[g.Attr(v)]++
		}
		if cnt[0]+ccnt[0] < k || cnt[1]+ccnt[1] < k {
			return salvage()
		}
		attrChoose = g.Attr(best).Other()
	}
}

// maxSeeds bounds the greedy restarts. The paper's Algorithm 5 seeds
// only from the single best-scoring vertex; a hub outside any fair
// clique then dead-ends the whole heuristic. Retrying from a constant
// number of top-scoring seeds keeps the O(|V|+|E|)-per-run complexity
// (constant factor) and makes the Fig. 8 quality reproducible.
const maxSeeds = 16

// DegHeur runs the degree-based greedy procedure (Algorithm 5): grow
// from a high-degree seed, each step adding the highest-degree
// candidate of the alternating attribute. Linear time per seed.
func DegHeur(g *graph.Graph, k, delta int32) []int32 {
	return multiSeed(g, k, delta, func(v int32) int32 { return g.Deg(v) })
}

// ColorfulDegHeur runs the colorful-degree-based greedy procedure: the
// selection metric is min(Da(v), Db(v)) under a greedy coloring of g,
// computed once up front (the paper's modification of Algorithm 5,
// lines 2 and 20).
func ColorfulDegHeur(g *graph.Graph, k, delta int32) []int32 {
	col := color.Greedy(g)
	deg := colorful.ComputeDegrees(g, col)
	return multiSeed(g, k, delta, func(v int32) int32 { return deg.Dmin(v) })
}

// multiSeed runs greedyRun from the top-scoring seeds and keeps the
// largest fair clique found.
func multiSeed(g *graph.Graph, k, delta int32, score metric) []int32 {
	seeds := topBy(g, score, maxSeeds)
	var best []int32
	for _, s := range seeds {
		if got := greedyRun(g, k, delta, s, score); len(got) > len(best) {
			best = append(best[:0:0], got...)
		}
	}
	return best
}

// topBy returns up to c vertices with the highest scores, ties to the
// smaller id, in descending score order. O(|V|·c) with c constant.
func topBy(g *graph.Graph, score metric, c int) []int32 {
	var top []int32 // sorted descending by (score, -id)
	better := func(v, w int32) bool {
		sv, sw := score(v), score(w)
		if sv != sw {
			return sv > sw
		}
		return v < w
	}
	for v := int32(0); v < g.N(); v++ {
		if len(top) == c && !better(v, top[len(top)-1]) {
			continue
		}
		i := len(top)
		if len(top) < c {
			top = append(top, v)
		} else {
			i = len(top) - 1
			top[i] = v
		}
		for ; i > 0 && better(top[i], top[i-1]); i-- {
			top[i], top[i-1] = top[i-1], top[i]
		}
	}
	return top
}

// Result is the output of HeurRFC (Algorithm 6).
type Result struct {
	// Clique is a fair clique in g's vertex ids, or nil if the greedy
	// procedures found none.
	Clique []int32
	// UB is a valid upper bound on the maximum fair clique size of g:
	// max(|Clique|, colors of the (|Clique|-1)-core). Any fair clique
	// strictly larger than Clique lives in that core and occupies
	// distinct colors.
	UB int32
	// Colors is the number of greedy colors of the final shrunken graph.
	Colors int32
}

// HeurRFC runs the full heuristic framework (Algorithm 6): DegHeur,
// k-core shrink, ColorfulDegHeur on the shrunken graph, another shrink,
// then a recoloring for the upper bound. Linear time overall.
func HeurRFC(g *graph.Graph, k, delta int32) *Result {
	res := &Result{}
	best := DegHeur(g, k, delta)

	// Lines 2-3: any strictly larger clique lies in the (|R*|-1)-core.
	cur := g
	toParent := identity(g.N())
	if len(best) > 0 {
		sub := kcore.KCoreSubgraph(cur, int32(len(best))-1)
		cur, toParent = sub.G, sub.ToParent
	}

	// Lines 4-8: the colorful-degree pass on the shrunken graph.
	if cand := ColorfulDegHeur(cur, k, delta); len(cand) > len(best) {
		best = mapVerts(cand, toParent)
		sub := kcore.KCoreSubgraph(cur, int32(len(best))-1)
		mapped := mapVerts(sub.ToParent, toParent)
		cur, toParent = sub.G, mapped
	}
	_ = toParent

	// Lines 9-10: recolor what is left; its color count bounds any
	// clique hiding in the shrunken graph.
	res.Colors = color.Greedy(cur).Num
	res.Clique = best
	res.UB = res.Colors
	if int32(len(best)) > res.UB {
		res.UB = int32(len(best))
	}
	return res
}

func identity(n int32) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

func mapVerts(vs, toParent []int32) []int32 {
	out := make([]int32, len(vs))
	for i, v := range vs {
		out[i] = toParent[v]
	}
	return out
}

func abs32(x int32) int32 {
	if x < 0 {
		return -x
	}
	return x
}
