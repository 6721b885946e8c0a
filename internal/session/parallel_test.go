package session

import (
	"testing"

	"fairclique/internal/bounds"
	"fairclique/internal/gen"
	"fairclique/internal/graph"
)

// splitShell is the cycle shell welded onto the test nuclei
// (gen.BigComponent): it keeps the k = 1 component above core's
// small-component limit (1024 vertices), so Workers > 1 runs the root
// split and subtree donation rather than the one-component-per-worker
// fan-out. Shell vertices alternate attributes, so only k = 1 keeps it
// through reduction.
const splitShell = 1100

// A parallel session's Find runs on core's component split: the answer
// matches an independent serial run, every donated subtree is run
// exactly once (Steals == Donations after the query returns), and a
// repeat of the solved cell is a dominance skip costing a tiny
// constant of allocations. Whether a worker goes hungry while another
// is still branching is a scheduling question (on a loaded or
// single-CPU machine it may never happen), so donation itself is
// asserted deterministically by core's TestDonationFeedsHungryWorker.
func TestParallelFindStealsEqualDonations(t *testing.T) {
	g := gen.BigComponent(3, 90, 0.5, splitShell)
	q := Query{K: 1, Delta: 60}
	want := independent(t, g, q, Options{})

	s := New(g, Options{Workers: 4})
	res, err := s.Find(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != want.Size() {
		t.Fatalf("parallel Find %d, independent %d", res.Size(), want.Size())
	}
	st := s.Stats()
	if st.Steals != st.Donations {
		t.Fatalf("%d donations but %d steals; the pool lost or invented work", st.Donations, st.Steals)
	}
	if st.CrossCellSteals != 0 || st.SpeculativeStarts != 0 || st.SpeculativeWins != 0 {
		t.Fatalf("retired scheduler counters moved: %+v", st)
	}
	t.Logf("%d subtrees donated over %d nodes", st.Donations, st.Nodes)

	avg := testing.AllocsPerRun(20, func() {
		if _, err := s.Find(q); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 16 {
		t.Fatalf("dominance-skip repeat allocates %.1f objects; want a tiny constant", avg)
	}
}

// The parallel grid differential wall: FindGrid at Workers 2 and 4 —
// cells in chain order, each searched in parallel (the k = 1 cells on
// the root split of the shelled component, stricter cells on the
// fan-out), live broadcasts between them — must answer every cell
// exactly like an independent serial run, across all six Table II
// bound configurations and all three fairness modes (strong δ = 0,
// relative δ > 0, weak). Runs under -race via make test-race.
func TestGridParallelDifferential(t *testing.T) {
	var qs []Query
	for k := int32(1); k <= 3; k++ {
		for d := int32(0); d <= 2; d++ {
			qs = append(qs, Query{K: k, Delta: d})
		}
		qs = append(qs, Query{K: k, Weak: true})
	}
	for seed := uint64(0); seed < 3; seed++ {
		g := gen.BigComponent(seed, 34, 0.4, splitShell)
		for _, extra := range bounds.Extras() {
			serial := Options{UseBounds: true, Extra: extra, UseHeuristic: true}
			wants := make([]int, len(qs))
			for i, q := range qs {
				iq := q
				if iq.Weak {
					iq.Weak, iq.Delta = false, g.N() // weak = unconstrained balance
				}
				wants[i] = independent(t, g, iq, serial).Size()
			}
			for _, workers := range []int{2, 4} {
				opt := serial
				opt.Workers = workers
				s := New(g, opt)
				rs, err := s.FindGrid(qs)
				if err != nil {
					t.Fatal(err)
				}
				for i, q := range qs {
					delta := q.Delta
					if q.Weak {
						delta = g.N()
					}
					if rs[i].Size() != wants[i] {
						t.Fatalf("seed=%d extra=%v W=%d (k=%d, δ=%d, weak=%v): grid %d, independent %d",
							seed, extra, workers, q.K, q.Delta, q.Weak, rs[i].Size(), wants[i])
					}
					if rs[i].Size() > 0 && !g.IsFairClique(rs[i].Clique, int(q.K), int(delta)) {
						t.Fatalf("seed=%d extra=%v W=%d (k=%d, δ=%d, weak=%v): invalid clique",
							seed, extra, workers, q.K, q.Delta, q.Weak)
					}
				}
				if st := s.Stats(); st.Steals != st.Donations {
					t.Fatalf("seed=%d extra=%v W=%d: %d donations, %d steals",
						seed, extra, workers, st.Donations, st.Steals)
				}
			}
		}
	}
}

// A W=4 grid before and after Apply answers exactly like a fresh
// session on the respective graph: the parallel split carries no
// state across queries, so the epoch swap cannot strand or corrupt it.
func TestParallelGridSurvivesApply(t *testing.T) {
	g := completeGraph(12, 6)
	qs := []Query{{K: 1, Delta: 2}, {K: 1, Delta: 0}, {K: 2, Delta: 1}, {K: 3, Delta: 0}}
	check := func(s *Session, g *graph.Graph, label string) {
		t.Helper()
		rs, err := s.FindGrid(qs)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := New(g, Options{}).FindGrid(qs)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			if rs[i].Size() != fresh[i].Size() {
				t.Fatalf("%s (k=%d, δ=%d): session %d, fresh %d", label, q.K, q.Delta, rs[i].Size(), fresh[i].Size())
			}
		}
	}

	s := New(g, Options{Workers: 4})
	check(s, g, "pre-delta")
	if _, err := s.Apply(&graph.Delta{DelEdges: [][2]int32{{0, 1}, {2, 7}}}); err != nil {
		t.Fatal(err)
	}
	check(s, s.Graph(), "post-delta")
	if s.Stats().Epoch == 0 {
		t.Fatal("Apply did not advance the epoch")
	}
}
