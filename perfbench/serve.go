package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"fairclique"
	"fairclique/internal/serve"
)

// The serve workload drives serve.Server over a loopback listener with
// an open loop: request i is due at i/rate seconds, whatever the server
// is doing, and is timed from when it was due. At most nproc
// connections carry the requests, and the admission gate admits as many
// queries at once, so a cached read is not held up behind one search.
//
// The rate is not fixed. After set-up, a closed loop over the same
// connections sends serveProbes cycles of the mix, each as fast as the
// server answers it; the run then offers serveLoad times the median
// cycle's rate. A faster server is offered more requests a second, so
// ops_per_s follows the server's speed, and the open loop keeps a fixed
// share of idle time, so queueing shows in the latencies without
// running away.
//
// The server holds serveGraphs bigcomp-giant graphs; request i goes to
// graph i mod serveGraphs, so one run averages over several instances.
// The traffic is synthetic; no production trace stands behind its
// proportions. Each graph sees the mix below, repeating every
// len(serveMix) of its requests:
//
//	Q  75%  /query, one served cell at a time: point reads, the
//	        common request; repeats within an epoch hit the result cache
//	N   5%  toggles a nucleus edge (delete, then re-insert half a mix
//	        later; the next toggle takes the next of serveNuclei edges):
//	        writes that change answers. The edges lie in the session's
//	        pooled optimum, so the graph's next reads flush the buffer
//	        and search again, warm
//	S  10%  toggles a shell chord: writes that change no answer, so
//	        Apply is cheap
//	G   5%  /grid over the served cells: a batch read
//	E   5%  /enumerate top-r on one served cell: a read of several
//	        cliques
//
// The graphs are smaller than the other workloads' (a 126-vertex
// nucleus): a nucleus toggle then costs tens of milliseconds of search
// rather than hundreds, so a run holds many toggles over many
// instances, whose costs vary widely. The first read of each cell after
// a re-insertion is the slowest class of request, a few in a hundred,
// and its cost depends on the graph and the edge, from a few to a
// hundred milliseconds. op_ms_tail, the p99 of a few thousand
// requests, is the top of that class; rotating the toggled edge makes
// every re-insertion a fresh draw, so it is not set by the few costliest
// graphs alone. Each graph starts the mix at its own phase, so the
// graphs' toggles are spread evenly in time. Every toggle is undone
// before the run ends, so each served graph returns to the generated
// one and a final served-vs-fresh differential checks the answers.
const (
	serveLoad   = 0.25 // offered rate as a share of the probed capacity
	serveProbes = 2    // closed-loop cycles the capacity is the median of
	serveSLOms  = 250  // latency limit of slo_miss_frac: an interactive budget
	serveGraphs = 32
	serveScale  = 0.55 // nucleus size relative to the other workloads'
	serveChord  = 3    // shell chords toggled in rotation
	serveNuclei = 3    // nucleus edges toggled in rotation
)

var serveMix = []byte("NQQQQSQQGQQQSQQEQQQQNQQQQSQQGQQQSQQEQQQQ")

// serveCycle is the number of requests in which every graph sees the
// whole mix once.
var serveCycle = len(serveMix) * serveGraphs

// serveCells are the cells reads ask for; gridTopR is among them.
var serveCells = []cell{{2, 2}, {3, 1}, {4, 3}}

func serveSpecs() []fairclique.QuerySpec {
	specs := make([]fairclique.QuerySpec, len(serveCells))
	for i, c := range serveCells {
		specs[i] = fairclique.QuerySpec{K: c.k, Delta: c.delta}
	}
	return specs
}

func serveIndex(c cell) int {
	for i, s := range serveCells {
		if s == c {
			return i
		}
	}
	panic(fmt.Sprintf("cell %v is not served", c))
}

// servedGraph is one graph on the server: its instance, the toggled
// edges and the reference answers.
type servedGraph struct {
	name    string
	in      instance
	nuclei  [][2]int // the toggled nucleus edges
	chords  [][2]int // the toggled shell chords
	refOrig []int    // per served cell, on the generated graph
	refCut  [][]int  // per nucleus edge and served cell, with that edge deleted
}

type serveState struct {
	graphs  []*servedGraph
	srv     *serve.Server
	http    *http.Server
	client  *http.Client
	base    string
	handler http.Handler
	served  chan struct{} // closed when the HTTP server's Serve returns
	toggles *toggles
}

func (st *serveState) close() {
	st.http.Close()
	<-st.served
	st.client.CloseIdleConnections()
	st.srv.Registry().Close()
}

// serveSetup starts a server on a loopback port, uploads the graphs
// and warms each with a /grid and an /enumerate, which search every
// served cell once.
func serveSetup(cfg config, graphs []*servedGraph) (*serveState, error) {
	st := &serveState{graphs: graphs, toggles: newToggles(len(graphs))}
	st.srv = serve.New(serve.Config{Workers: cfg.workers, MaxInFlight: cfg.workers})
	st.handler = st.srv.Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.http = &http.Server{Handler: st.handler}
	st.served = make(chan struct{})
	go func() {
		defer close(st.served)
		st.http.Serve(ln)
	}()
	st.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: cfg.workers, MaxIdleConnsPerHost: cfg.workers}}
	st.base = "http://" + ln.Addr().String() + "/v1/graphs"
	for g, sg := range graphs {
		var text strings.Builder
		if err := fairclique.WriteGraph(&text, sg.in.pg); err != nil {
			st.close()
			return nil, err
		}
		if _, err := st.post("", serve.CreateRequest{Name: sg.name, Text: text.String()}, nil, http.StatusCreated); err != nil {
			st.close()
			return nil, fmt.Errorf("upload: %w", err)
		}
		for _, r := range warmRequests(g) {
			if _, err := st.do(r, 0, 0); err != nil {
				st.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return st, nil
}

// warmRequests are the requests that warm graph g.
func warmRequests(g int) []serveReq {
	return []serveReq{{g: g, kind: 'G'}, {g: g, kind: 'E'}}
}

func gridRequest() serve.GridRequest {
	req := serve.GridRequest{}
	for _, c := range serveCells {
		req.Cells = append(req.Cells, serve.QueryRequest{K: c.k, Delta: c.delta})
	}
	return req
}

// postOp sends body as JSON to base+path and decodes the reply into
// out. parent, when non-zero, asks the traced server to record its
// handler span under that span of op.
func (st *serveState) postOp(path string, body, out any, want int, op, parent int) (time.Duration, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequest(http.MethodPost, st.base+path, bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if parent != 0 {
		req.Header.Set(traceHeader, strconv.Itoa(op)+"/"+strconv.Itoa(parent))
	}
	t := time.Now()
	resp, err := st.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	el := time.Since(t)
	if err != nil {
		return el, err
	}
	if resp.StatusCode != want {
		return el, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return el, fmt.Errorf("%s: %w", path, err)
		}
	}
	return el, nil
}

func (st *serveState) post(path string, body, out any, want int) (time.Duration, error) {
	return st.postOp(path, body, out, want, 0, 0)
}

const traceHeader = "X-Perfbench-Span"

// tracedHandler records a "serve.handler" span around every request
// that names its op and parent span in traceHeader.
func tracedHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var op, parent int
		if v := r.Header.Get(traceHeader); v != "" {
			if a, b, ok := strings.Cut(v, "/"); ok {
				op, _ = strconv.Atoi(a)
				parent, _ = strconv.Atoi(b)
			}
		}
		if parent == 0 {
			h.ServeHTTP(w, r)
			return
		}
		id := tr.begin("serve.handler", parent, op)
		h.ServeHTTP(w, r)
		tr.end(id)
	})
}

// newServedGraph generates the i-th served graph and computes every
// served cell's optimum on it and with each nucleus edge deleted, on a
// serial session. The shell chords only close triangles on the cycle,
// which no served cell (all k >= 2) can use, so they change no
// reference.
func newServedGraph(cfg config, i int) (*servedGraph, error) {
	in := bigComp(instanceSeed(cfg.seed, i), cfg.scale*serveScale)
	sg := &servedGraph{name: fmt.Sprintf("g%d", i), in: in}
	s := fairclique.NewSession(in.pg)
	defer s.Close()
	grid := func() ([]int, error) {
		rs, err := s.FindGrid(serveSpecs())
		if err != nil {
			return nil, err
		}
		sizes := make([]int, len(rs))
		for i, r := range rs {
			sizes[i] = r.Size()
		}
		return sizes, nil
	}
	var err error
	if sg.refOrig, err = grid(); err != nil {
		return nil, err
	}
	r, err := s.Find(fairclique.QuerySpec{K: gridTopR.k, Delta: gridTopR.delta})
	if err != nil {
		return nil, err
	}
	if r.Size() < 2 {
		return nil, fmt.Errorf("serve instance has no fair clique for cell %v", gridTopR)
	}
	for j := 0; j < serveNuclei && 2*j+1 < r.Size(); j++ {
		e := [2]int{r.Clique[2*j], r.Clique[2*j+1]}
		if _, err := s.Apply(fairclique.Delta{DelEdges: [][2]int{e}}); err != nil {
			return nil, err
		}
		cut, err := grid()
		if err != nil {
			return nil, err
		}
		if _, err := s.Apply(fairclique.Delta{AddEdges: [][2]int{e}}); err != nil {
			return nil, err
		}
		sg.nuclei, sg.refCut = append(sg.nuclei, e), append(sg.refCut, cut)
	}
	// bigComp numbers the nucleus first and the cycle shell after it.
	shell0 := int(in.ig.N()) - bigCompShell
	for j := 0; j < serveChord; j++ {
		u := shell0 + 10 + 4*j
		sg.chords = append(sg.chords, [2]int{u, u + 2})
	}
	return sg, nil
}

// differential checks every served graph is the generated one again
// and that every cell it serves matches the fresh session's reference.
func (st *serveState) differential() error {
	for _, sg := range st.graphs {
		var out serve.GridResponse
		if _, err := st.post("/"+sg.name+"/grid", gridRequest(), &out, http.StatusOK); err != nil {
			return err
		}
		e, _ := st.srv.Registry().Get(sg.name)
		if m := e.Session().M(); m != int(sg.in.ig.M()) {
			return fmt.Errorf("%w: graph %s has %d edges after the toggles were undone, want %d", errMismatch, sg.name, m, sg.in.ig.M())
		}
		for ci, c := range serveCells {
			if err := checkClique(sg.in.pg, c, out.Results[ci].Clique, sg.refOrig[ci]); err != nil {
				return fmt.Errorf("graph %s: %w", sg.name, err)
			}
		}
	}
	return nil
}

// serveReq is one scheduled request.
type serveReq struct {
	i   int
	due time.Time
	g   int // index of the served graph
	// kind is the mix letter; c the cell of a Q; del and edge the
	// delta of an N or S, and nuc the index of an N's edge.
	kind byte
	c    cell
	del  bool
	edge [2]int
	nuc  int
}

// plan lays out the first n requests and the toggles that undo
// whatever is still applied after them.
func (st *serveState) plan(n int) (reqs []serveReq, restore []serveReq) {
	type graphPlan struct {
		nucleusDeleted bool
		chordOn        []bool
		q, s, n        int
	}
	gp := make([]graphPlan, len(st.graphs))
	for g := range gp {
		gp[g].chordOn = make([]bool, serveChord)
	}
	for i := 0; i < n; i++ {
		g := i % len(st.graphs)
		p, sg := &gp[g], st.graphs[g]
		phase := g * len(serveMix) / len(st.graphs)
		r := serveReq{i: i, g: g, kind: serveMix[(i/len(st.graphs)+phase)%len(serveMix)]}
		switch r.kind {
		case 'N':
			r.nuc = p.n / 2 % len(sg.nuclei)
			r.edge, r.del = sg.nuclei[r.nuc], !p.nucleusDeleted
			p.nucleusDeleted = !p.nucleusDeleted
			p.n++
		case 'S':
			j := p.s % serveChord
			p.s++
			r.edge, r.del = sg.chords[j], p.chordOn[j]
			p.chordOn[j] = !p.chordOn[j]
		case 'Q':
			r.c = serveCells[p.q%len(serveCells)]
			p.q++
		}
		reqs = append(reqs, r)
	}
	for g, p := range gp {
		if p.nucleusDeleted {
			nuc := (p.n - 1) / 2 % len(st.graphs[g].nuclei)
			restore = append(restore, serveReq{g: g, kind: 'N', edge: st.graphs[g].nuclei[nuc], nuc: nuc})
		}
		for j, on := range p.chordOn {
			if on {
				restore = append(restore, serveReq{g: g, kind: 'S', edge: st.graphs[g].chords[j], del: true})
			}
		}
	}
	return reqs, restore
}

// serveResult is what one request measured.
type serveResult struct {
	req     serveReq
	latency time.Duration // from due to response
	service time.Duration // from send to response
	// direct is the same request replayed on the twin Session (traced
	// reads only).
	direct time.Duration
	traced bool
	err    error
}

// do sends one request and checks its answer.
func (st *serveState) do(r serveReq, op, parent int) (time.Duration, error) {
	sg := st.graphs[r.g]
	path := "/" + sg.name
	switch r.kind {
	case 'N', 'S':
		body := serve.MutateRequest{}
		if r.del {
			body.DelEdges = [][2]int{r.edge}
		} else {
			body.AddEdges = [][2]int{r.edge}
		}
		if r.kind == 'N' {
			st.toggles.send(r.g)
		}
		var out serve.MutateResponse
		el, err := st.postOp(path+"/mutate", body, &out, http.StatusOK, op, parent)
		if r.kind == 'N' {
			st.toggles.ack(r.g, r.nuc, r.del, err == nil)
		}
		return el, err
	}
	w := st.toggles.openRead(r.g)
	var el time.Duration
	var err error
	switch r.kind {
	case 'Q':
		var out serve.QueryResponse
		el, err = st.postOp(path+"/query", serve.QueryRequest{K: r.c.k, Delta: r.c.delta}, &out, http.StatusOK, op, parent)
		if err == nil {
			err = sg.checkServed(r.c, out.Clique, out.Exact, st.toggles.closeRead(r.g, w))
		}
	case 'G':
		var out serve.GridResponse
		el, err = st.postOp(path+"/grid", gridRequest(), &out, http.StatusOK, op, parent)
		if err == nil && len(out.Results) != len(serveCells) {
			err = fmt.Errorf("%w: grid returned %d cells", errMismatch, len(out.Results))
		}
		view := st.toggles.closeRead(r.g, w)
		for ci := 0; err == nil && ci < len(serveCells); ci++ {
			err = sg.checkServed(serveCells[ci], out.Results[ci].Clique, out.Results[ci].Exact, view)
		}
	case 'E':
		var out serve.EnumerateResponse
		el, err = st.postOp(path+"/enumerate", serve.EnumerateRequest{K: gridTopR.k, Delta: gridTopR.delta, R: gridR}, &out, http.StatusOK, op, parent)
		if err == nil && (!out.Exact || len(out.Cliques) == 0 || len(out.Cliques) > gridR) {
			err = fmt.Errorf("%w: enumerate returned %d cliques (exact %v)", errMismatch, len(out.Cliques), out.Exact)
		}
		view := st.toggles.closeRead(r.g, w)
		for _, c := range out.Cliques {
			if err == nil {
				err = sg.checkServed(gridTopR, c, true, view)
			}
		}
	default:
		err = fmt.Errorf("unknown request kind %q", r.kind)
	}
	return el, err
}

// nucleusView is the state of a graph's nucleus edges a read must see.
type nucleusView struct {
	state int
	edge  int // the deleted edge's index, when state is viewDeleted
}

const (
	viewPresent = iota // every nucleus edge is in the graph
	viewDeleted        // nucleus edge view.edge is deleted
	// viewEither: a toggle was in flight while the read was, so the
	// server may order the two either way.
	viewEither
)

// toggles tracks, per served graph, the nucleus toggles the server has
// acknowledged. The server answers a /mutate once the write is
// buffered, and every later read flushes the buffer first, so a read
// sent after the acknowledgement must see the write.
type toggles struct {
	mu       sync.Mutex
	deleted  []int // the deleted edge's index after the last acknowledged toggle, or -1
	inflight []int // toggles sent and not yet answered
	sent     []int // toggles sent so far
}

func newToggles(n int) *toggles {
	t := &toggles{deleted: make([]int, n), inflight: make([]int, n), sent: make([]int, n)}
	for g := range t.deleted {
		t.deleted[g] = -1
	}
	return t
}

func (t *toggles) send(g int) {
	t.mu.Lock()
	t.inflight[g]++
	t.sent[g]++
	t.mu.Unlock()
}

// ack records the answer to a toggle of edge nuc; a failed toggle
// leaves the acknowledged state as it was (the run already counts it as
// failed).
func (t *toggles) ack(g, nuc int, deleted, ok bool) {
	t.mu.Lock()
	t.inflight[g]--
	if ok {
		t.deleted[g] = -1
		if deleted {
			t.deleted[g] = nuc
		}
	}
	t.mu.Unlock()
}

// readWindow is what openRead saw when a read was sent.
type readWindow struct {
	view nucleusView
	sent int
}

func (t *toggles) openRead(g int) readWindow {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := readWindow{view: nucleusView{state: viewPresent}, sent: t.sent[g]}
	if t.deleted[g] >= 0 {
		w.view = nucleusView{state: viewDeleted, edge: t.deleted[g]}
	}
	if t.inflight[g] > 0 {
		w.view = nucleusView{state: viewEither}
	}
	return w
}

// closeRead returns the view the read's answer must match: the one
// acknowledged when it was sent, unless a toggle was sent meanwhile.
func (t *toggles) closeRead(g int, w readWindow) nucleusView {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sent[g] != w.sent {
		return nucleusView{state: viewEither}
	}
	return w.view
}

// checkServed accepts an exact fair clique of the generated graph whose
// size is the cell's optimum in the nucleus state the read must see
// (with viewEither, the optimum with every edge present or with any one
// deleted). With an edge deleted, the clique must also not hold both its
// ends: a stale answer from before the deletion can have the right size.
func (sg *servedGraph) checkServed(c cell, clique []int, exact bool, view nucleusView) error {
	ci := serveIndex(c)
	if !exact {
		return fmt.Errorf("%w: graph %s cell %v answered inexact", errMismatch, sg.name, c)
	}
	size := len(clique)
	switch view.state {
	case viewPresent:
		if size != sg.refOrig[ci] {
			return fmt.Errorf("%w: graph %s cell %v size %d, want %d with every nucleus edge present", errMismatch, sg.name, c, size, sg.refOrig[ci])
		}
	case viewDeleted:
		e := sg.nuclei[view.edge]
		if size != sg.refCut[view.edge][ci] {
			return fmt.Errorf("%w: graph %s cell %v size %d, want %d with nucleus edge %v deleted", errMismatch, sg.name, c, size, sg.refCut[view.edge][ci], e)
		}
		if slices.Contains(clique, e[0]) && slices.Contains(clique, e[1]) {
			return fmt.Errorf("%w: graph %s cell %v answer uses the deleted nucleus edge %v", errMismatch, sg.name, c, e)
		}
	case viewEither:
		ok := size == sg.refOrig[ci]
		for _, cut := range sg.refCut {
			ok = ok || size == cut[ci]
		}
		if !ok {
			return fmt.Errorf("%w: graph %s cell %v size %d, want %d or an optimum with one nucleus edge deleted", errMismatch, sg.name, c, size, sg.refOrig[ci])
		}
	}
	if size > 0 && !sg.in.pg.IsFairClique(clique, c.k, c.delta) {
		return fmt.Errorf("%w: graph %s cell %v answer is not a fair clique", errMismatch, sg.name, c)
	}
	return nil
}

// replayer mirrors the served traffic on twin Sessions, one per served
// graph: every mutation is applied to its twin, and traced reads are
// answered by the twin directly, so the HTTP request can be compared
// with the same request on the Session.
type replayer struct {
	mu    sync.Mutex
	twins []*fairclique.Session
	// requery is set by a nucleus toggle until the graph's next
	// replayed read, which is then a warm requery.
	requery   []bool
	applyMs   []float64
	requeryMs []float64
	patched   int64
	reused    int64
}

func newReplayer(cfg config, graphs []*servedGraph) *replayer {
	rp := &replayer{requery: make([]bool, len(graphs))}
	for _, sg := range graphs {
		rp.twins = append(rp.twins, fairclique.NewSession(sg.in.pg, fairclique.SessionOptions{Workers: cfg.workers}))
	}
	return rp
}

func (rp *replayer) close() {
	for _, s := range rp.twins {
		s.Close()
	}
}

func (rp *replayer) replay(r serveReq, traced bool) (time.Duration, error) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	twin := rp.twins[r.g]
	t := time.Now()
	var err error
	switch r.kind {
	case 'N', 'S':
		d := fairclique.Delta{}
		if r.del {
			d.DelEdges = [][2]int{r.edge}
		} else {
			d.AddEdges = [][2]int{r.edge}
		}
		var ast fairclique.ApplyStats
		ast, err = twin.Apply(d)
		el := time.Since(t)
		rp.requery[r.g] = r.kind == 'N'
		if traced {
			rp.applyMs = append(rp.applyMs, ms(el))
			rp.patched += ast.SnapshotsPatched
			rp.reused += ast.CompPrepsReused
		}
		return el, err
	case 'Q':
		if !traced {
			return 0, nil
		}
		_, err = twin.Find(fairclique.QuerySpec{K: r.c.k, Delta: r.c.delta})
	case 'G':
		if !traced {
			return 0, nil
		}
		_, err = twin.FindGrid(serveSpecs())
	case 'E':
		if !traced {
			return 0, nil
		}
		_, err = twin.Enumerate(fairclique.QuerySpec{K: gridTopR.k, Delta: gridTopR.delta, Kind: fairclique.KindTopR, R: gridR})
	}
	el := time.Since(t)
	if rp.requery[r.g] {
		rp.requeryMs = append(rp.requeryMs, ms(el))
		rp.requery[r.g] = false
	}
	return el, err
}

// serveTotals sums what the served graphs' entries have counted.
type serveTotals struct {
	hits, misses, flushes int64
	stats                 fairclique.SessionStats
}

func (st *serveState) totals() serveTotals {
	var t serveTotals
	for _, sg := range st.graphs {
		e, _ := st.srv.Registry().Get(sg.name)
		h, m := e.CacheStats()
		t.hits += h
		t.misses += m
		t.flushes += e.Flushes()
		s := e.Session().Stats()
		t.stats.ReductionBuilds += s.ReductionBuilds
		t.stats.ReductionReuses += s.ReductionReuses
		t.stats.DominanceSkips += s.DominanceSkips
		t.stats.WarmStarts += s.WarmStarts
		t.stats.Nodes += s.Nodes
		t.stats.EnumCacheHits += s.EnumCacheHits
		t.stats.Steals += s.Steals
		t.stats.CrossCellSteals += s.CrossCellSteals
	}
	return t
}

// drive sends reqs over workers connections and returns what each
// request measured, how late the generator handed each one over, and
// the wall time. With rate > 0 request i is due i/rate seconds after
// the start (an open loop); with rate 0 every request is due at the
// start and each connection sends its next one as soon as its last is
// answered (a closed loop). In a traced run (tr and rp non-nil) the
// requests of odd cycles are traced; even cycles run untraced, giving
// trace.overhead_frac its baseline.
func (st *serveState) drive(reqs []serveReq, rate float64, workers int, tr *tracer, rp *replayer) ([]serveResult, []time.Duration, time.Duration) {
	queue := make(chan serveReq, len(reqs)) // sized to every send, so the generator never blocks
	results := make([]serveResult, len(reqs))
	lates := make([]time.Duration, len(reqs))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range queue {
				traced := tr != nil && rp != nil && (r.i/serveCycle)%2 == 1
				var root int
				if traced {
					root = tr.begin("op", 0, r.i+1)
				}
				el, err := st.do(r, r.i+1, root)
				done := time.Now()
				if traced {
					tr.end(root)
				}
				var direct time.Duration
				if rp != nil && err == nil {
					direct, err = rp.replay(r, traced)
				}
				results[r.i] = serveResult{req: r, latency: done.Sub(r.due), service: el, direct: direct, traced: traced, err: err}
			}
		}()
	}
	for i := range reqs {
		reqs[i].due = start
		if rate > 0 {
			reqs[i].due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		}
		if d := time.Until(reqs[i].due); d > 0 {
			time.Sleep(d)
		}
		lates[i] = time.Since(reqs[i].due)
		queue <- reqs[i]
	}
	close(queue)
	wg.Wait()
	return results, lates, time.Since(start)
}

// undo sends the restoring toggles plan returned, on the server and on
// the twins.
func (st *serveState) undo(restore []serveReq, rp *replayer, rep *report) {
	for _, r := range restore {
		if _, err := st.do(r, 0, 0); err != nil {
			rep.fail("restore: %v", err)
		}
		if rp != nil {
			if _, err := rp.replay(r, false); err != nil {
				rep.fail("restore twin: %v", err)
			}
		}
	}
}

func runServe(cfg config, tr *tracer) (*report, error) {
	rep := &report{}
	graphs := make([]*servedGraph, serveGraphs)
	err := forEach(serveGraphs, cfg.workers, func(i int) (err error) {
		graphs[i], err = newServedGraph(cfg, i)
		return err
	})
	if err != nil {
		return nil, err
	}
	setupS, st, err := timedSetup(cfg.setupReps, func() (*serveState, error) { return serveSetup(cfg, graphs) },
		func(st *serveState) { st.close() })
	if err != nil {
		return nil, err
	}
	defer st.close()

	var rp *replayer
	var queueMax int
	stopSampler := func() {}
	if cfg.trace {
		st.http.Handler = tracedHandler(tr, st.handler)
		rp = newReplayer(cfg, graphs)
		defer rp.close()
		for g := range graphs {
			for _, r := range warmRequests(g) {
				if _, err := rp.replay(r, true); err != nil {
					return nil, err
				}
			}
		}
		rp.applyMs, rp.requeryMs, rp.patched, rp.reused = nil, nil, 0, 0
		stopSampler = sampleAdmission(st.handler, &queueMax)
	}

	// Probe the capacity on serveProbes cycles of the mix, untraced,
	// undoing each cycle's toggles so the run starts from the generated
	// graphs again; the capacity is the median cycle's.
	var caps []float64
	for p := 0; p < serveProbes; p++ {
		probe, probeRestore := st.plan(serveCycle)
		probed, _, probeWall := st.drive(probe, 0, cfg.workers, nil, rp)
		for _, res := range probed {
			if res.err != nil {
				rep.fail("capacity probe request %d: %v", res.req.i, res.err)
			}
		}
		st.undo(probeRestore, rp, rep)
		caps = append(caps, float64(len(probe))/probeWall.Seconds())
	}
	capacity := median(caps)
	rate := serveLoad * capacity
	before := st.totals()

	n := max(int(math.Ceil(cfg.seconds*rate)), serveCycle)
	reqs, restore := st.plan(n)
	hs := startHeapSampler()
	cpu0 := cpuTime()
	results, lates, wall := st.drive(reqs, rate, cfg.workers, tr, rp)
	cpu := cpuTime() - cpu0
	peak := hs.finish()
	stopSampler()

	var lat, late []float64
	for _, l := range lates {
		late = append(late, ms(l))
	}
	slo := 0
	for _, res := range results {
		lat = append(lat, ms(res.latency))
		if res.err != nil {
			rep.onErr(res.req.i, res.err)
			slo++
		} else if ms(res.latency) > serveSLOms {
			slo++
		}
	}
	// Undo every toggle still applied, then compare the served answers
	// with the references computed on a fresh session of each generated
	// graph.
	st.undo(restore, rp, rep)
	if err := st.differential(); err != nil {
		rep.fail("final differential: %v", err)
	}

	if !cfg.trace {
		rep.addEndToEnd(setupS, loopStats{latMs: lat, wall: wall, cpu: cpu, peakMB: peak, attempt: len(results)})
		rep.setNote("ops_per_s", fmt.Sprintf("offered %.4g/s: %.2g of the probed closed-loop capacity %.4g/s", rate, serveLoad, capacity))
		rep.add("slo_miss_frac", frac(float64(slo), float64(rep.Attempted)), "frac")
		rep.addTail("gen_late_ms_tail", late, "ms")
		return rep, nil
	}

	rep.Attempted += len(results)
	rep.add("failed_frac", frac(float64(rep.Failed), float64(rep.Attempted)), "frac")
	rep.add("slo_miss_frac", frac(float64(slo), float64(rep.Attempted)), "frac")
	rep.addTail("gen_late_ms_tail", late, "ms")
	after := st.totals()
	hits, misses := after.hits-before.hits, after.misses-before.misses
	flushes := after.flushes - before.flushes
	mutations := 0
	for _, r := range reqs {
		if r.kind == 'N' || r.kind == 'S' {
			mutations++
		}
	}
	rep.add("serve.cache_hit_frac", frac(float64(hits), float64(hits+misses)), "frac")
	rep.add("serve.flushes", float64(flushes), "flushes")
	rep.add("serve.ops_per_flush", frac(float64(mutations), float64(flushes)), "ops")
	rep.add("serve.admission_queue_max", float64(queueMax), "requests")

	s0, s1 := before.stats, after.stats
	rep.add("session.reduction_builds", float64(s1.ReductionBuilds-s0.ReductionBuilds), "builds")
	rep.add("session.reduction_reuses", float64(s1.ReductionReuses-s0.ReductionReuses), "queries")
	rep.add("session.dominance_skips", float64(s1.DominanceSkips-s0.DominanceSkips), "queries")
	rep.add("session.warm_starts", float64(s1.WarmStarts-s0.WarmStarts), "queries")
	rep.add("session.grid_nodes", float64(s1.Nodes-s0.Nodes), "nodes")
	rep.add("session.snapshots_patched", float64(rp.patched), "snapshots")
	rep.add("session.comp_preps_reused", float64(rp.reused), "components")
	rep.addNote("session.apply_ms", mean(rp.applyMs), "ms", "mean per Apply: cheap shell and deletion applies, costly re-insertions")
	rep.add("session.requery_ms", median(rp.requeryMs), "ms")
	rep.add("enum.cache_hits", float64(s1.EnumCacheHits-s0.EnumCacheHits), "queries")
	rep.add("sched.steals", float64(s1.Steals-s0.Steals), "tasks")
	rep.add("sched.cross_cell_steals", float64(s1.CrossCellSteals-s0.CrossCellSteals), "tasks")

	// serve.overhead_ms_p50: the HTTP request minus the same read on
	// the Session; trace.overhead_frac: traced over untraced requests'
	// service time (alternate cycles run each way).
	var over, tracedSvc, plainSvc []float64
	for _, res := range results {
		if res.err != nil {
			continue
		}
		if !res.traced {
			plainSvc = append(plainSvc, ms(res.service))
			continue
		}
		tracedSvc = append(tracedSvc, ms(res.service))
		if k := res.req.kind; k == 'Q' || k == 'G' || k == 'E' {
			over = append(over, ms(res.service-res.direct))
		}
	}
	rep.add("serve.overhead_ms_p50", median(over), "ms")
	spans := tr.snapshot()
	cover := childCover(spans)
	var unattr []float64
	for _, s := range spans {
		if s.Parent == 0 {
			unattr = append(unattr, frac(float64(s.dur()-cover[s.ID]), float64(s.dur())))
		}
	}
	rep.add("trace.unattributed_frac", median(unattr), "frac")
	rep.add("trace.overhead_frac", frac(median(tracedSvc), median(plainSvc)), "ratio")
	rep.Spans = summarize(spans)
	return rep, nil
}

// sampleAdmission polls the server's /v1/metrics in process (no extra
// connection) and keeps the deepest admission queue seen in *queueMax.
// The returned function stops the poller and waits for it.
func sampleAdmission(h http.Handler, queueMax *int) func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
			var m serve.MetricsResponse
			if json.Unmarshal(rec.Body.Bytes(), &m) == nil && m.Admission.QueueDepth > *queueMax {
				*queueMax = m.Admission.QueueDepth
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}
