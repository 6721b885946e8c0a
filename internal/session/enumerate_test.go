package session

import (
	"fmt"
	"sort"
	"testing"

	"fairclique/internal/bounds"
	"fairclique/internal/enum"
	"fairclique/internal/graph"
	"fairclique/internal/rng"
)

func eqClique32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func eqCliqueSets(a, b [][]int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !eqClique32(a[i], b[i]) {
			return false
		}
	}
	return true
}

// enumCell is one enumeration test cell spanning the three fairness
// models: relative (δ as given), weak (δ resolved to n at query time)
// and strong (δ = 0).
type enumCell struct {
	name  string
	k     int32
	delta int32
	weak  bool
}

func (c enumCell) query() Query {
	return Query{K: c.k, Delta: c.delta, Weak: c.weak, Kind: KindEnumerateAll}
}

// resolvedDelta is the δ the baseline enumerators need (they have no
// weak mode of their own).
func (c enumCell) resolvedDelta(g *graph.Graph) int {
	if c.weak {
		return int(g.N())
	}
	return int(c.delta)
}

// The enumeration differential wall: the engine's collect-at-optimum
// enumeration must agree — clique for clique — with the Bron–Kerbosch
// all-optima baseline AND the exhaustive subset oracle, across all six
// Table II bound configurations and the relative/weak/strong models.
func TestEnumerationDifferentialWall(t *testing.T) {
	extras := bounds.Extras()
	if len(extras) != 6 {
		t.Fatalf("Table II sweep expects 6 bound configurations, have %d", len(extras))
	}
	cells := []enumCell{
		{name: "relative", k: 2, delta: 1},
		{name: "relative-loose", k: 1, delta: 2},
		{name: "weak", k: 2, weak: true},
		{name: "strong", k: 2, delta: 0},
	}
	for seed := uint64(0); seed < 6; seed++ {
		n := 12 + int(seed) // 12..17, inside the oracle's 18-vertex limit
		g := random(seed+500, n, 0.45)
		for ci, extra := range extras {
			opt := Options{UseBounds: true, Extra: extra, UseHeuristic: ci%2 == 0}
			s := New(g, opt)
			for _, c := range cells {
				got, err := s.Enumerate(c.query())
				if err != nil {
					t.Fatal(err)
				}
				if !got.Exact {
					t.Fatalf("seed=%d extra=%v %s: unbudgeted enumeration inexact", seed, extra, c.name)
				}
				delta := c.resolvedDelta(g)
				base := enum.AllMaxFairCliques(g, int(c.k), delta)
				oracle := enum.BruteForceAllMaxFair(g, int(c.k), delta)
				if !eqCliqueSets(base, oracle) {
					t.Fatalf("seed=%d %s: BK baseline diverges from the subset oracle", seed, c.name)
				}
				if !eqCliqueSets(got.Cliques, oracle) {
					t.Fatalf("seed=%d extra=%v %s (k=%d δ=%d): engine %v != oracle %v",
						seed, extra, c.name, c.k, delta, got.Cliques, oracle)
				}
				if len(got.Cliques) > 0 && int(got.Size) != len(got.Cliques[0]) {
					t.Fatalf("seed=%d %s: Size %d != clique length %d", seed, c.name, got.Size, len(got.Cliques[0]))
				}
				for i, cl := range got.Cliques {
					na, nb := g.CountAttrs(cl)
					if got.Counts[i] != [2]int32{int32(na), int32(nb)} {
						t.Fatalf("seed=%d %s: Counts[%d]=%v, graph says (%d,%d)", seed, c.name, i, got.Counts[i], na, nb)
					}
				}
			}
		}
	}
}

// Diversified top-r: a subset of the full set, capped at r, never
// covering fewer distinct vertices than the naive first-r cut.
func TestEnumerateTopRDiversifies(t *testing.T) {
	g := random(41, 20, 0.5)
	s := New(g, Options{UseBounds: true, Extra: bounds.ColorfulDegeneracy, UseHeuristic: true})
	full, err := s.Enumerate(Query{K: 1, Delta: 2, Kind: KindEnumerateAll})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{1, 2, 3, len(full.Cliques), len(full.Cliques) + 5} {
		top, err := s.Enumerate(Query{K: 1, Delta: 2, Kind: KindTopR, R: r})
		if err != nil {
			t.Fatal(err)
		}
		wantLen := r
		if wantLen > len(full.Cliques) {
			wantLen = len(full.Cliques)
		}
		if len(top.Cliques) != wantLen {
			t.Fatalf("r=%d: got %d cliques, want %d", r, len(top.Cliques), wantLen)
		}
		member := make(map[string]bool, len(full.Cliques))
		for _, c := range full.Cliques {
			member[fmt.Sprint(c)] = true
		}
		seen := make(map[int32]bool)
		for _, c := range top.Cliques {
			if !member[fmt.Sprint(c)] {
				t.Fatalf("r=%d: top-r clique %v not in the full set", r, c)
			}
			for _, v := range c {
				seen[v] = true
			}
		}
		naive := make(map[int32]bool)
		for _, c := range full.Cliques[:wantLen] {
			for _, v := range c {
				naive[v] = true
			}
		}
		if len(seen) < len(naive) {
			t.Fatalf("r=%d: diversified covers %d vertices, naive first-%d covers %d", r, len(seen), wantLen, len(naive))
		}
	}
}

// cliqueSetKeySet canonicalizes a clique set as printable keys, for
// reconstruction arithmetic in the incremental fuzz.
func cliqueSetKeys(cliques [][]int32) map[string][]int32 {
	out := make(map[string][]int32, len(cliques))
	for _, c := range cliques {
		out[fmt.Sprint(c)] = c
	}
	return out
}

// Post-Apply incremental-vs-fresh fuzz: after every random delta the
// maintained session's enumeration must equal a fresh session's on the
// mutated graph, and the reported EnumDiff must reconstruct the new
// set from the old one (old − died + born).
func TestApplyIncrementalEnumVsFresh(t *testing.T) {
	extras := bounds.Extras()
	r := rng.New(20260808)
	cells := []enumCell{
		{name: "relative", k: 2, delta: 1},
		{name: "weak", k: 1, weak: true},
		{name: "strong", k: 2, delta: 0},
	}
	for seed := uint64(0); seed < 5; seed++ {
		opt := Options{UseBounds: true, Extra: extras[seed%6], UseHeuristic: true}
		g := random(seed+900, 18+int(seed), 0.4)
		s := New(g, opt)
		prev := make(map[string][][]int32)
		for _, c := range cells {
			rs, err := s.Enumerate(c.query())
			if err != nil {
				t.Fatal(err)
			}
			prev[c.name] = rs.Cliques
		}
		for round := 0; round < 4; round++ {
			d := randomDelta(r, s.Graph())
			ast, err := s.Apply(d)
			if err != nil {
				t.Fatal(err)
			}
			diffs := make(map[string]EnumDiff)
			for _, diff := range ast.EnumDiffs {
				for _, c := range cells {
					if diff.Weak == c.weak && diff.K == c.k && (c.weak || diff.Delta == c.delta) {
						diffs[c.name] = diff
					}
				}
			}
			fresh := New(s.Graph(), opt)
			for _, c := range cells {
				got, err := s.Enumerate(c.query())
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Enumerate(c.query())
				if err != nil {
					t.Fatal(err)
				}
				if !eqCliqueSets(got.Cliques, want.Cliques) {
					t.Fatalf("seed=%d round=%d %s: maintained %v != fresh %v",
						seed, round, c.name, got.Cliques, want.Cliques)
				}
				baseDelta := c.resolvedDelta(s.Graph())
				base := enum.AllMaxFairCliques(s.Graph(), int(c.k), baseDelta)
				if !eqCliqueSets(got.Cliques, base) {
					t.Fatalf("seed=%d round=%d %s: maintained set diverges from the BK baseline", seed, round, c.name)
				}
				// Reconstruct through the diff: old − died + born = new.
				if diff, ok := diffs[c.name]; ok && !diff.Dropped {
					set := cliqueSetKeys(prev[c.name])
					for _, dead := range diff.Died {
						key := fmt.Sprint(dead)
						if _, had := set[key]; !had {
							t.Fatalf("seed=%d round=%d %s: diff kills %v, which the old set never held", seed, round, c.name, dead)
						}
						delete(set, key)
					}
					for _, born := range diff.Born {
						set[fmt.Sprint(born)] = born
					}
					rebuilt := make([][]int32, 0, len(set))
					for _, c := range set {
						rebuilt = append(rebuilt, c)
					}
					sort.Slice(rebuilt, func(i, j int) bool {
						a, b := rebuilt[i], rebuilt[j]
						for x := 0; x < len(a) && x < len(b); x++ {
							if a[x] != b[x] {
								return a[x] < b[x]
							}
						}
						return len(a) < len(b)
					})
					if !eqCliqueSets(rebuilt, got.Cliques) {
						t.Fatalf("seed=%d round=%d %s: diff reconstruction %v != new set %v",
							seed, round, c.name, rebuilt, got.Cliques)
					}
				}
				prev[c.name] = got.Cliques
			}
		}
	}
}
