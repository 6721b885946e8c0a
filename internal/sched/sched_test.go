package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeTask is a minimal Task: a closure plus its scope.
type fakeTask struct {
	scope *Scope
	run   func()
}

func (t *fakeTask) Run() {
	if t.run != nil {
		t.run()
	}
}
func (t *fakeTask) TaskScope() *Scope { return t.scope }

// parkDrainer starts a worker that is already parked hungry in Drain:
// it never entered the scope, so it waits on the ledger the caller
// holds open. The returned channel closes when its Drain returns.
func parkDrainer(p *Pool, sc *Scope) chan struct{} {
	done := make(chan struct{})
	before := p.hungry.Load()
	go func() {
		defer close(done)
		sc.Drain()
	}()
	for p.hungry.Load() == before {
		runtime.Gosched()
	}
	return done
}

// A worker that submitted tasks and Exited must retire all of them in
// Drain, leaving the queue empty.
func TestDrainRunsOwnTasks(t *testing.T) {
	p := NewPool()
	sc := p.NewScope()
	sc.Enter()
	var ran atomic.Int32
	for i := 0; i < 5; i++ {
		sc.Submit(&fakeTask{scope: sc, run: func() { ran.Add(1) }})
	}
	sc.Exit()
	sc.Drain()
	if ran.Load() != 5 {
		t.Fatalf("Drain ran %d of 5 tasks", ran.Load())
	}
	if len(p.queue) != 0 {
		t.Fatalf("%d tasks left queued after Drain", len(p.queue))
	}
	if got := p.Steals(); got != 5 {
		t.Fatalf("own-task drain counted %d steals; want 5", got)
	}
}

// Drain must not return while another worker is still inside one of
// the scope's tasks — the cross-worker termination ledger.
func TestDrainWaitsForRunningTask(t *testing.T) {
	p := NewPool()
	sc := p.NewScope()
	sc.Enter()
	thief := parkDrainer(p, sc)

	release := make(chan struct{})
	started := make(chan struct{})
	sc.Submit(&fakeTask{scope: sc, run: func() {
		close(started)
		<-release
	}})
	<-started // the thief is now inside the task
	sc.Exit()

	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sc.Drain()
	}()
	select {
	case <-drained:
		t.Fatal("Drain returned while the scope's task was still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-drained
	<-thief
	if got := p.Steals(); got != 1 {
		t.Fatalf("%d steals; want the thief's one", got)
	}
}

// Wanted throttles donation to actual demand: false with nobody
// hungry, true with a parked worker and an empty queue.
func TestWantedTracksDemand(t *testing.T) {
	p := NewPool()
	sc := p.NewScope()
	if sc.Wanted() {
		t.Fatal("Wanted with no hungry worker")
	}
	sc.Enter()
	done := parkDrainer(p, sc)
	if !sc.Wanted() {
		t.Fatal("not Wanted despite a parked worker and an empty queue")
	}
	sc.Exit()
	<-done
	if sc.Wanted() {
		t.Fatal("Wanted after the only waiter left")
	}
}

// The queue is LIFO: a draining worker takes the most recent donation
// first — the subtree whose frontier buffers are still hot in cache.
func TestVictimSelectionOrder(t *testing.T) {
	p := NewPool()
	sc := p.NewScope()
	sc.Enter()
	var order []int
	for id := 1; id <= 4; id++ {
		sc.Submit(&fakeTask{scope: sc, run: func() { order = append(order, id) }})
	}
	sc.Exit()
	sc.Drain()
	want := []int{4, 3, 2, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("pop order %v, want %v", order, want)
		}
	}
}

// Many scopes share one pool, each driven by several workers that
// donate while anyone is hungry and then Drain; draining workers help
// other scopes' tasks too. Every ledger ends at zero and every work
// item runs exactly once. Run with -race via make test-race: this is
// the cross-scope counterpart of the engine-level donation race tests.
func TestManyScopesManyExecutorsRace(t *testing.T) {
	p := NewPool()
	const scopes, workersPerScope = 4, 3
	var ran, total atomic.Int64
	var wg sync.WaitGroup
	for d := 0; d < scopes; d++ {
		sc := p.NewScope()
		for w := 0; w < workersPerScope; w++ {
			sc.Enter() // before the goroutine starts: the ledger never reads zero early
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					total.Add(1)
					if sc.Hungry() && sc.Wanted() {
						sc.Submit(&fakeTask{scope: sc, run: func() { ran.Add(1) }})
					} else {
						ran.Add(1) // branch locally: the work happens either way
					}
				}
				sc.Exit()
				sc.Drain()
			}()
		}
	}
	wg.Wait()
	if ran.Load() != total.Load() {
		t.Fatalf("ran %d of %d work items", ran.Load(), total.Load())
	}
	if len(p.queue) != 0 {
		t.Fatalf("%d tasks leaked in the queue", len(p.queue))
	}
}
