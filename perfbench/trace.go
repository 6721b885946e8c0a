package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call.
type span struct {
	ID     int
	Parent int // 0 for an op's root span
	Op     int // the op the span belongs to
	Name   string
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op and nothing is recorded.
// It is safe for concurrent use (the replayed reduction records spans
// from several goroutines).
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{epoch: time.Now()}
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span and returns the span's duration.
func (t *tracer) do(name string, parent, op int, fn func(id int)) time.Duration {
	start := time.Now()
	id := t.begin(name, parent, op)
	fn(id)
	t.end(id)
	return time.Since(start)
}

// snapshot returns a copy of every span recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// childCover returns, for every span id, how much of the span's
// interval its direct children cover (overlapping children, as from
// concurrent workers, count once).
func childCover(spans []span) map[int]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	out := make(map[int]time.Duration, len(kids))
	for pid, cs := range kids {
		p := byID[pid]
		out[pid] = unionWithin(cs, p.Start, p.End)
	}
	return out
}

// unionWithin is the length of the union of the spans' intervals
// clipped to [lo, hi].
func unionWithin(cs []span, lo, hi time.Duration) time.Duration {
	iv := make([][2]time.Duration, 0, len(cs))
	for _, c := range cs {
		a, b := max(c.Start, lo), min(c.End, hi)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	curA, curB := time.Duration(-1), time.Duration(-1)
	for _, x := range iv {
		if x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return total + curB - curA
}

// selfTime is a span's duration minus the part its children cover.
func selfTimes(spans []span) map[int]time.Duration {
	cover := childCover(spans)
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - cover[s.ID]
	}
	return out
}

// spanSummary aggregates the spans of one name over a run.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func summarize(spans []span) []spanSummary {
	self := selfTimes(spans)
	idx := map[string]int{}
	var out []spanSummary
	for _, s := range spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, spanSummary{Name: s.Name})
		}
		out[i].Count++
		out[i].TotalMs += ms(s.dur())
		out[i].SelfMs += ms(self[s.ID])
	}
	return out
}

// perOp sums, for every op, the durations of the spans named name.
func perOp(spans []span, name string) map[int]time.Duration {
	out := map[int]time.Duration{}
	for _, s := range spans {
		if s.Name == name {
			out[s.Op] += s.dur()
		}
	}
	return out
}

// opMedianMs is the median over ops of the per-op total of the spans
// named name, in milliseconds; ops with no such span count as 0.
func opMedianMs(spans []span, name string, ops []int) float64 {
	by := perOp(spans, name)
	xs := make([]float64, len(ops))
	for i, op := range ops {
		xs[i] = ms(by[op])
	}
	return median(xs)
}

// rootCover returns, per op, how much of the op's root span (the root
// named "op"; side runs such as "reduce.split" have roots of their own)
// its layer spans cover.
func rootCover(spans []span) map[int]time.Duration {
	cover := childCover(spans)
	out := map[int]time.Duration{}
	for _, s := range spans {
		if s.Parent == 0 && s.Name == "op" {
			out[s.Op] = cover[s.ID]
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
