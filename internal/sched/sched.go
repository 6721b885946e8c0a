// Package sched is the subtree-donation scheduler behind the parallel
// component split: a Pool is one LIFO donation queue plus a hungry
// counter, shared by the workers branching one component. Workers pull
// root branches from an atomic cursor; once it runs dry they park in
// Drain, and busy workers that notice a parked peer ship it the
// frontier subtree they were about to branch into instead of recursing.
//
// The package deliberately knows nothing about cliques: work items are
// opaque Tasks that carry their own execution state (internal/core's
// donated subtree nodes implement Task). What sched owns is the LIFO
// donation queue, the demand signal busy workers poll before shipping
// a subtree, and the termination ledger that lets a search prove all
// of its outstanding donated work has finished.
//
// # The ledger
//
// Every search runs under a Scope. A Scope's activity count is
//
//	active = branching workers (Enter/Exit)
//	       + live tasks (Submit until retired after running, queued or
//	         running)
//
// and the search is complete exactly when active reaches zero: nobody
// is expanding nodes for it and no donated subtree of it is queued or
// in flight. Tasks are retired by the worker that ran them; a popped
// task stays counted until it is retired, so a worker must never
// observe active == 0 while another worker is still inside one of its
// subtrees.
//
// Workers waiting in Drain raise the hungry counter; branch-hot
// donation checks are a single atomic load (Scope.Hungry).
package sched

import (
	"sync"
	"sync/atomic"
)

// Task is one donated unit of work: a self-contained subtree frontier
// node that any worker can run. Implementations are recycled by their
// owners after Run returns, so callers must capture TaskScope before
// Run and never touch the task afterwards.
type Task interface {
	// Run executes the work item on the calling goroutine and recycles
	// the task's buffers.
	Run()
	// TaskScope is the search the item belongs to, for the ledger.
	TaskScope() *Scope
}

// Pool is one donation queue: the LIFO task stack, the hungry counter
// donors poll, and the condition variable waiting workers park on. Its
// cost when nobody is hungry is a single atomic load per branch node.
type Pool struct {
	hungry atomic.Int32 // workers parked in Drain waiting for work

	mu    sync.Mutex
	cond  *sync.Cond
	queue []Task // LIFO: the newest donation is popped first

	steals atomic.Int64
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	p := &Pool{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Steals reports how many donated tasks the pool's workers have run.
// Once every scope has drained it equals the number of Scope.Submit
// calls.
func (p *Pool) Steals() int64 { return p.steals.Load() }

// runNextLocked pops the newest task and runs it with the lock
// released around the task body. The task's scope is captured before
// Run (Run recycles the task). Retiring the task may empty its scope's
// ledger; Broadcast then, because Signal could wake a waiter of another
// scope while this one's workers stay parked in Drain. Called with p.mu
// held; reports false when the queue was empty.
func (p *Pool) runNextLocked() bool {
	n := len(p.queue) - 1
	if n < 0 {
		return false
	}
	t := p.queue[n]
	p.queue[n] = nil
	p.queue = p.queue[:n]
	sc := t.TaskScope()
	p.steals.Add(1)
	p.mu.Unlock()
	t.Run()
	p.mu.Lock()
	sc.active--
	if sc.active == 0 {
		p.cond.Broadcast()
	}
	return true
}

// Scope is one search's view of the pool: the termination ledger its
// workers wait on. Scopes are cheap; a search creates one per run.
type Scope struct {
	pool   *Pool
	active int // guarded by pool.mu; see the package comment
}

// NewScope registers a new search on the pool.
func (p *Pool) NewScope() *Scope { return &Scope{pool: p} }

// Hungry reports whether any worker of the pool is parked waiting for
// work — the donation check on the branching hot path. One atomic
// load.
func (sc *Scope) Hungry() bool { return sc.pool.hungry.Load() > 0 }

// Wanted reports whether the pool's queue is shorter than the number
// of hungry workers, i.e. whether one more donation would actually
// feed someone. Donors call it right before paying the O(row)
// task-copy cost. Two donors racing past it can over-donate by at most
// workers-1 tasks; surplus tasks are run by Drain, so nothing is lost.
func (sc *Scope) Wanted() bool {
	p := sc.pool
	p.mu.Lock()
	ok := int32(len(p.queue)) < p.hungry.Load()
	p.mu.Unlock()
	return ok
}

// Submit queues a donated task of this scope and wakes a waiting
// worker. The task counts toward the ledger until the worker that ran
// it retires it.
func (sc *Scope) Submit(t Task) {
	p := sc.pool
	p.mu.Lock()
	sc.active++
	p.queue = append(p.queue, t)
	p.cond.Signal()
	p.mu.Unlock()
}

// Enter marks the calling goroutine as branching under this scope; the
// scope cannot terminate while it is entered. Every Enter must be
// paired with exactly one Exit.
func (sc *Scope) Enter() {
	sc.pool.mu.Lock()
	sc.active++
	sc.pool.mu.Unlock()
}

// Exit ends an Enter. When it empties the ledger, parked workers are
// woken so Drain observes the termination.
func (sc *Scope) Exit() {
	p := sc.pool
	p.mu.Lock()
	sc.active--
	if sc.active == 0 {
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// Drain is a worker's barrier: it runs queued tasks — of this scope or
// of any other scope sharing the pool — until this scope's ledger is
// empty, then returns. The caller must have Exited first. Drain ignores
// halts deliberately: a halted search's queued tasks are retired by
// running them (each returns immediately against the halted searcher),
// so the ledger always converges and the pool never leaks tasks.
func (sc *Scope) Drain() {
	p := sc.pool
	p.mu.Lock()
	for {
		if sc.active == 0 {
			p.mu.Unlock()
			return
		}
		if p.runNextLocked() {
			continue
		}
		p.hungry.Add(1)
		p.cond.Wait()
		p.hungry.Add(-1)
	}
}
