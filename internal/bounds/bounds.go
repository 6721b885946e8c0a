// Package bounds implements every upper bound on the maximum relative
// fair clique size used by the MaxRFC branch-and-bound (§IV-B and
// §IV-C): the size, attribute, color, attribute-color and
// enhanced-attribute-color bounds that form the paper's "advanced"
// group ubAD (Lemmas 5-9), the degeneracy and h-index bounds
// (Lemmas 10-11), and the non-trivial colorful degeneracy, colorful
// h-index and colorful path bounds (Lemmas 12-14, Algorithm 4).
//
// All bounds are evaluated on the subgraph G' induced by a search
// instance (R, C). Where the paper's printed formulas are off by a
// small constant, the provably safe variants are used: ω ≤
// degeneracy+1 and ω ≤ h-index+1 (a clique of size s has s vertices of
// degree at least s-1, so both measures are at least s-1), the
// colorful analogues with the same +1, and ubeac with the balanced
// mixed-color assignment.
package bounds

import (
	"sort"

	"fairclique/internal/color"
	"fairclique/internal/colorful"
	"fairclique/internal/graph"
	"fairclique/internal/kcore"
)

// Extra selects the optional non-trivial bound added on top of the
// advanced group, matching the six configurations of Table II.
type Extra int

const (
	// None uses only the advanced group ubAD.
	None Extra = iota
	// Degeneracy adds ub△ (Lemma 10).
	Degeneracy
	// HIndex adds ubh (Lemma 11).
	HIndex
	// ColorfulDegeneracy adds ubcd (Lemma 12).
	ColorfulDegeneracy
	// ColorfulHIndex adds ubch (Lemma 13).
	ColorfulHIndex
	// ColorfulPath adds ubcp (Lemma 14, Algorithm 4).
	ColorfulPath
)

// String names the configuration the way Table II labels its columns.
func (e Extra) String() string {
	switch e {
	case None:
		return "ubAD"
	case Degeneracy:
		return "ubAD+ubDeg"
	case HIndex:
		return "ubAD+ubH"
	case ColorfulDegeneracy:
		return "ubAD+ubCD"
	case ColorfulHIndex:
		return "ubAD+ubCH"
	case ColorfulPath:
		return "ubAD+ubCP"
	}
	return "unknown"
}

// Extras lists all six Table II configurations in paper order.
func Extras() []Extra {
	return []Extra{None, Degeneracy, HIndex, ColorfulDegeneracy, ColorfulHIndex, ColorfulPath}
}

// combine folds two attribute-side capacities x and y into a fair-size
// bound under difference tolerance delta: min(x+y, 2*min(x,y)+delta).
// This is the shared shape of Lemmas 6, 8, 12 and 13.
func combine(x, y, delta int32) int32 {
	lo := x
	if y < lo {
		lo = y
	}
	if s := x + y; s < 2*lo+delta {
		return s
	}
	return 2*lo + delta
}

// Size returns ubs (Lemma 5): the instance size |R|+|C| = |V(G')|.
func Size(g *graph.Graph) int32 { return g.N() }

// Attribute returns uba (Lemma 6) from the attribute counts of G'.
func Attribute(g *graph.Graph, delta int32) int32 {
	na, nb := g.AttrCount()
	return combine(na, nb, delta)
}

// Color returns ubc (Lemma 7): the number of greedy colors of G'.
func Color(col *color.Coloring) int32 { return col.Num }

// AttributeColor returns ubac (Lemma 8): attribute-side color counts,
// where a color counts toward attribute a if any a-vertex wears it
// (colors may count toward both sides).
func AttributeColor(g *graph.Graph, col *color.Coloring, delta int32) int32 {
	colorsA, colorsB := attrColorSets(g, col)
	var ka, kb int32
	for c := int32(0); c < col.Num; c++ {
		if colorsA[c] {
			ka++
		}
		if colorsB[c] {
			kb++
		}
	}
	return combine(ka, kb, delta)
}

// EnhancedAttributeColor returns ubeac (Lemma 9, corrected): colors are
// grouped into exclusive-a (ca), exclusive-b (cb) and mixed (cm); each
// clique vertex consumes one whole color, so with the mixed pool
// assigned to balance the sides the best achievable minimum side is
// t = min(ca,cb)+cm when that still does not exceed max(ca,cb), and
// ⌊(ca+cb+cm)/2⌋ otherwise; the bound is min(ca+cb+cm, 2t+δ).
func EnhancedAttributeColor(g *graph.Graph, col *color.Coloring, delta int32) int32 {
	colorsA, colorsB := attrColorSets(g, col)
	var ca, cb, cm int32
	for c := int32(0); c < col.Num; c++ {
		switch {
		case colorsA[c] && colorsB[c]:
			cm++
		case colorsA[c]:
			ca++
		case colorsB[c]:
			cb++
		}
	}
	t := colorful.EDValue(ca, cb, cm)
	total := ca + cb + cm
	if ub := 2*t + delta; ub < total {
		return ub
	}
	return total
}

func attrColorSets(g *graph.Graph, col *color.Coloring) (a, b []bool) {
	a = make([]bool, col.Num)
	b = make([]bool, col.Num)
	for v := int32(0); v < g.N(); v++ {
		if g.Attr(v) == graph.AttrA {
			a[col.Of(v)] = true
		} else {
			b[col.Of(v)] = true
		}
	}
	return a, b
}

// DegeneracyBound returns ub△ (Lemma 10, +1-corrected): any clique of
// G' has size at most degeneracy(G')+1.
func DegeneracyBound(g *graph.Graph) int32 {
	return kcore.Degeneracy(g) + 1
}

// HIndexBound returns ubh (Lemma 11, +1-corrected): any clique of G'
// has size at most h(G')+1.
func HIndexBound(g *graph.Graph) int32 {
	return kcore.HIndex(g) + 1
}

// ColorfulDegeneracyBound returns ubcd (Lemma 12, corrected): a fair
// clique with per-attribute minimum m sits inside the colorful
// (m-1)-core, so m <= colorful-degeneracy+1 and the size is at most
// 2*(colorful-degeneracy+1)+δ.
func ColorfulDegeneracyBound(g *graph.Graph, col *color.Coloring, delta int32) int32 {
	return 2*(colorful.Degeneracy(g, col)+1) + delta
}

// ColorfulHIndexBound returns ubch (Lemma 13, corrected): a fair clique
// with per-attribute minimum m contributes at least 2m vertices of
// Dmin >= m-1, so m <= colorful-h-index+1 and the size is at most
// 2*(colorful-h-index+1)+δ.
func ColorfulHIndexBound(g *graph.Graph, col *color.Coloring, delta int32) int32 {
	return 2*(colorful.HIndex(g, col)+1) + delta
}

// ColorfulPathBound returns ubcp (Lemma 14) by running the dynamic
// program of Algorithm 4: orient every edge by the total order
// (color, id); the result is a DAG whose directed paths have strictly
// increasing colors (same-color vertices are never adjacent under a
// proper coloring), so the longest path length bounds the largest
// all-distinct-color clique.
func ColorfulPathBound(g *graph.Graph, col *color.Coloring) int32 {
	n := g.N()
	if n == 0 {
		return 0
	}
	// Total order ≺: by color, ties by vertex id (Eden et al. [35]).
	order := make([]int32, n)
	for i := int32(0); i < n; i++ {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		ci, cj := col.Of(order[i]), col.Of(order[j])
		if ci != cj {
			return ci < cj
		}
		return order[i] < order[j]
	})
	rank := make([]int32, n)
	for i, v := range order {
		rank[v] = int32(i)
	}
	f := make([]int32, n)
	for i := range f {
		f[i] = 1
	}
	maxLen := int32(1)
	for _, u := range order {
		fu := f[u]
		if fu > maxLen {
			maxLen = fu
		}
		for _, w := range g.Neighbors(u) {
			if rank[w] > rank[u] && f[w] < fu+1 {
				f[w] = fu + 1
			}
		}
	}
	return maxLen
}

// Evaluate computes the configured upper bound of an instance whose
// induced subgraph is g: the minimum of the advanced group ubAD and the
// selected extra bound. The subgraph is greedily recolored, as the
// paper prescribes for instance-local bounds.
func Evaluate(g *graph.Graph, delta int32, extra Extra) int32 {
	if g.N() == 0 {
		return 0
	}
	col := color.Greedy(g)
	ub := Size(g)
	if v := Attribute(g, delta); v < ub {
		ub = v
	}
	if v := Color(col); v < ub {
		ub = v
	}
	if v := AttributeColor(g, col, delta); v < ub {
		ub = v
	}
	if v := EnhancedAttributeColor(g, col, delta); v < ub {
		ub = v
	}
	switch extra {
	case Degeneracy:
		if v := DegeneracyBound(g); v < ub {
			ub = v
		}
	case HIndex:
		if v := HIndexBound(g); v < ub {
			ub = v
		}
	case ColorfulDegeneracy:
		if v := ColorfulDegeneracyBound(g, col, delta); v < ub {
			ub = v
		}
	case ColorfulHIndex:
		if v := ColorfulHIndexBound(g, col, delta); v < ub {
			ub = v
		}
	case ColorfulPath:
		if v := ColorfulPathBound(g, col); v < ub {
			ub = v
		}
	}
	return ub
}
