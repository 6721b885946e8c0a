// Command perfbench is the repository's end-to-end benchmark. One
// invocation generates the inputs of one workload from a seed, sets the
// system up several times, runs the workload for a fixed time, checks
// every answer, and prints each metric by name and unit. The last line
// of standard output is a single JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured on the
// public calls with no tracing at all. With --trace 1 the run replays
// every op as the sequence of layer calls the public call makes,
// records a span around each call, and reports the per-layer metrics.
//
// Usage (from the repository root, after building it with run.sh):
//
//	bash perfbench/run.sh --workload find --seed 3 --seconds 10 --trace 0
//
// See perfbench/README.md for the workloads and the metric catalogue.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// heldOutSeed is never used while the benchmark or a change is being
// tuned; a later performance claim must also hold on it.
const heldOutSeed = 20261017

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	format   string
	// scale shrinks every generated instance (1 = the documented
	// sizes); the package tests run all workloads at a tiny scale.
	scale float64
	// workers is the search, thread and connection budget (nproc).
	workers int
	// setupReps is the least number of times the set-up is repeated;
	// setup_s is the median.
	setupReps int
}

func (c config) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs one workload and writes the report. It returns
// the process exit code: 0 on success, 1 when any answer was wrong, 2
// on a usage or set-up error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: ingest, find, grid or serve")
	fs.Uint64Var(&cfg.seed, "seed", 1, fmt.Sprintf("input seed (%d is held out for claims)", heldOutSeed))
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured run time in seconds")
	fs.IntVar(&trace, "trace", 0, "1 replays each op layer by layer and reports per-layer metrics")
	fs.StringVar(&cfg.format, "format", "text", "text (human-readable table) or json (one machine-readable record); the last line is always the result object")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	if cfg.format != "text" && cfg.format != "json" {
		fmt.Fprintln(stderr, "perfbench: --format must be text or json")
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	cfg.scale, cfg.setupReps, cfg.workers = 1, 3, runtime.NumCPU()
	w, ok := workloadByName(cfg.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want ingest, find, grid or serve)\n", cfg.workload)
		return 2
	}

	host := probeHost()
	rep, err := w.run(cfg, newTracer(cfg.trace))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	host.SpinMsAfter, host.NoiseRatioAfter = spinProbe()
	rep.Workload, rep.Why, rep.Seed, rep.Trace, rep.Host = w.name, w.why, cfg.seed, cfg.trace, host
	if cfg.trace {
		rep.fillLayers()
	}
	rep.write(stdout, stderr, cfg.format)
	if !rep.correct() {
		return 1
	}
	return 0
}

// workload is one benchmark workload.
type workload struct {
	name string
	why  string
	run  func(cfg config, tr *tracer) (*report, error)
}

var workloads = []workload{
	{"ingest", "SNAP read plus Find(k=8,d=2): graph, kcore and reduce do the work and search visits no node, so a search change must not move it", runIngest},
	{"find", "one-shot public Find on bigcomp-giant over fixed (k,d) cells: reduction, heuristic, bounds and core search all work", runFind},
	{"grid", "fresh Session per op: 9-cell FindGrid plus top-r Enumerate, so session amortisation, the sched pool and speculation work", runGrid},
	{"serve", "synthetic open-loop HTTP mix on serve.Server at 1/4 of its probed capacity: 75% point reads, 5% answer-changing and 10% no-op writes, 5% grid, 5% top-r enumerate", runServe},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// errMismatch marks a wrong answer; the op counts as failed.
var errMismatch = errors.New("wrong answer")
