package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fairclique"
	"fairclique/internal/gen"
	"fairclique/internal/graph"
)

// The ingest workload's query: the planted balanced 20-clique of
// gen.IngestGiant is the unique (k=8, δ=2) optimum.
var ingestCell = cell{8, 2}

const plantSize = 20

type ingestFiles struct {
	dir, edges, attrs string
	plant             []int // the planted clique's vertex ids
}

func runIngest(cfg config, tr *tracer) (*report, error) {
	rep := &report{}
	setup := func() (*ingestFiles, error) {
		f, err := writeIngestFiles(cfg)
		if err != nil {
			return nil, err
		}
		// Warm-up op, untimed by the loop and counted in set-up.
		_, err = ingestOp(f, cfg.workers)
		return f, err
	}
	setupS, f, err := timedSetup(cfg.setupReps, setup, func(f *ingestFiles) { os.RemoveAll(f.dir) })
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(f.dir)

	// Each op starts from a collected heap, as a fresh reader would:
	// the previous op's multi-hundred-megabyte graph is garbage, and
	// collecting it inside the next op would time the previous op.
	if !cfg.trace {
		ls := closedLoop(cfg.duration(), 1, runtime.GC, func(int) error { _, err := ingestOp(f, cfg.workers); return err }, rep.onErr)
		rep.addEndToEnd(setupS, ls)
		return rep, nil
	}

	var runs []replayRun
	var stream *graph.StreamStats
	var w1 []int64
	start := time.Now()
	for i := 0; time.Since(start) < cfg.duration() || i < 1; i++ {
		rep.Attempted++
		runtime.GC()
		t := time.Now()
		_, err := ingestOp(f, cfg.workers)
		pubTime := time.Since(t)
		if err != nil {
			rep.onErr(i, err)
			continue
		}
		// The op's own spans are the public ReadSNAPFiles and the
		// replayed Find. graph.LoadSNAP, the loader inside
		// ReadSNAPFiles, runs once more under a root of its own: its
		// result feeds the replay, and api.snap_copy_ms is the
		// ReadSNAPFiles span minus the LoadSNAP span.
		runtime.GC()
		var ig *graph.Graph
		tr.do("graph.load", 0, i, func(int) {
			ig, stream, err = graph.LoadSNAP(f.edges, f.attrs, graph.StreamConfig{})
		})
		if err != nil {
			rep.onErr(i, err)
			continue
		}
		runtime.GC()
		root := tr.begin("op", 0, i)
		var pg *fairclique.Graph
		tr.do("api.read_snap", root, i, func(int) {
			pg, err = fairclique.ReadSNAPFiles(f.edges, f.attrs)
		})
		if err != nil {
			tr.end(root)
			rep.onErr(i, err)
			continue
		}
		r := replayFind(tr, root, i, ig, ingestCell.k, ingestCell.delta, cfg.workers)
		tr.end(root)
		runtime.KeepAlive(pg)
		err = replaySplit(tr, i, ig, int32(ingestCell.k), cfg.workers, r.stages)
		if err == nil {
			err = checkPlant(toInt(r.clique), f.plant, func([]int) bool {
				return ig.IsFairClique(r.clique, ingestCell.k, ingestCell.delta)
			})
		}
		if err != nil {
			rep.onErr(i, err)
			continue
		}
		runs = append(runs, replayRun{op: i, pub: pubTime, find: r})
		if i == 0 {
			w1 = append(w1, w1Nodes(r, ingestCell.k, ingestCell.delta))
		}
	}
	spans := tr.snapshot()
	ops := make([]int, len(runs))
	for i, run := range runs {
		ops[i] = run.op
	}
	rep.add("graph.load_ms", opMedianMs(spans, "graph.load", ops), "ms")
	if stream != nil {
		rep.add("graph.spilled_bytes", float64(stream.SpilledBytes), "bytes")
		rep.add("graph.peak_tracked_mb", float64(stream.PeakTrackedBytes)/1e6, "MB")
	}
	read, load := perOp(spans, "api.read_snap"), perOp(spans, "graph.load")
	var copyMs []float64
	for _, op := range ops {
		copyMs = append(copyMs, ms(read[op]-load[op]))
	}
	rep.addFloored("api.snap_copy_ms", median(copyMs), "ms")
	rep.addFindLayers(spans, runs, w1, 1)
	return rep, nil
}

// writeIngestFiles generates gen.IngestGiant(seed) and writes it as a
// SNAP edge list and attribute file pair in a fresh directory.
func writeIngestFiles(cfg config) (*ingestFiles, error) {
	ig := gen.IngestGiant(cfg.seed, cfg.scale)
	dir, err := os.MkdirTemp("", "perfbench-ingest-")
	if err != nil {
		return nil, err
	}
	f := &ingestFiles{dir: dir, edges: filepath.Join(dir, "graph.snap"), attrs: filepath.Join(dir, "graph.attrs")}
	if err := writeFile(f.edges, func(w *bufio.Writer) error { return graph.WriteSNAP(w, ig) }); err != nil {
		return nil, err
	}
	if err := writeFile(f.attrs, func(w *bufio.Writer) error { return graph.WriteSNAPAttrs(w, ig) }); err != nil {
		return nil, err
	}
	// The plant is the generator's last plantSize vertex ids; the SNAP
	// attribute file lists vertices in id order, so the loader keeps them.
	for v := int(ig.N()) - plantSize; v < int(ig.N()); v++ {
		f.plant = append(f.plant, v)
	}
	return f, nil
}

func writeFile(path string, fill func(*bufio.Writer) error) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(fh)
	if err := fill(w); err != nil {
		fh.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

// ingestOp is the public op: read the SNAP pair, then Find.
func ingestOp(f *ingestFiles, workers int) (*fairclique.Result, error) {
	g, err := fairclique.ReadSNAPFiles(f.edges, f.attrs)
	if err != nil {
		return nil, err
	}
	res, err := fairclique.Find(g, findOptions(ingestCell, workers))
	if err != nil {
		return nil, err
	}
	return res, checkPlant(res.Clique, f.plant, func(c []int) bool {
		return g.IsFairClique(c, ingestCell.k, ingestCell.delta)
	})
}

// checkPlant verifies the answer is the planted clique and fair.
func checkPlant(clique, plant []int, fair func([]int) bool) error {
	if len(clique) != len(plant) {
		return fmt.Errorf("%w: ingest answer has %d vertices, want the planted %d", errMismatch, len(clique), len(plant))
	}
	in := make(map[int]bool, len(plant))
	for _, v := range plant {
		in[v] = true
	}
	for _, v := range clique {
		if !in[v] {
			return fmt.Errorf("%w: ingest answer holds vertex %d outside the plant", errMismatch, v)
		}
	}
	if !fair(clique) {
		return fmt.Errorf("%w: ingest answer is not a fair clique", errMismatch)
	}
	return nil
}
