package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"
)

// hostFacts are recorded with every run so a noisy or differently
// sized host is visible next to its numbers.
type hostFacts struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	LoadAvg    string `json:"load_avg"`
	// SpinMs is the wall time of one goroutine spinning a fixed loop;
	// it rises when the host runs slower for every process on it.
	SpinMs float64 `json:"spin_ms"`
	// NoiseRatio is the wall time of two goroutines each spinning the
	// loop over the time of one: 1.0 on two idle CPUs, 2.0 when only
	// one CPU is really available.
	NoiseRatio float64 `json:"noise_ratio"`
	// SpinMsAfter and NoiseRatioAfter repeat the probe once the
	// workload has run, since the host can change during a run.
	SpinMsAfter     float64 `json:"spin_ms_after"`
	NoiseRatioAfter float64 `json:"noise_ratio_after"`
}

func probeHost() hostFacts {
	h := hostFacts{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		LoadAvg:    "unknown",
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) >= 3 {
			h.LoadAvg = strings.Join(f[:3], " ")
		}
	}
	h.SpinMs, h.NoiseRatio = spinProbe()
	return h
}

// spinProbe returns one spinner's wall time in milliseconds and two
// spinners' over one's.
func spinProbe() (float64, float64) {
	one := spinWall(1)
	two := spinWall(2)
	return ms(one), float64(two) / float64(one)
}

var spinSink uint64

// spinWall runs n goroutines each spinning the same fixed loop and
// returns the wall time until all finish.
func spinWall(n int) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(88172645463325252)
			for j := 0; j < 30_000_000; j++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			mu.Lock()
			spinSink += x
			mu.Unlock()
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler samples the live-and-unswept heap object bytes every
// heapTick while a measurement runs, reading runtime/metrics (no
// stop-the-world).
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

const (
	heapMetric = "/memory/classes/heap/objects:bytes"
	heapTick   = 2 * time.Millisecond
	// heapWindow is the span of samples whose highest one counts as a
	// peak (heapWindow/heapTick samples: about a second, as ticks slip
	// under load). The run's single highest sample lands on whichever
	// collection happened to start latest, and a high percentile of
	// all samples jumps with how many of the rare tallest collection
	// cycles a run happens to hold; the median over windows of each
	// window's highest sample is set by the usual top of the heap, and
	// holds still from run to run.
	heapWindow = time.Second
)

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(heapTick)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.samples = append(h.samples, float64(s[0].Value.Uint64())/1e6)
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in megabytes: the
// median over windows of each window's highest sample (a run shorter
// than one window counts as one window).
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	per := int(heapWindow / heapTick)
	var peaks []float64
	for lo := 0; lo < len(h.samples); lo += per {
		if lo > 0 && lo+per > len(h.samples) {
			break // a trailing partial window
		}
		hi := min(lo+per, len(h.samples))
		peaks = append(peaks, slices.Max(h.samples[lo:hi]))
	}
	return median(peaks)
}

// allocCount is the cumulative number of heap objects allocated.
func allocCount() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// A cheap set-up is repeated more often than a costly one, so that
// the median of either is steady: timedSetup repeats until at least
// setupFloor has been spent, within [minReps, maxSetupReps] reps.
const (
	setupFloor   = 2 * time.Second
	maxSetupReps = 9
)

// timedSetup runs setup repeatedly, returning the median wall time in
// seconds and the last repetition's state; earlier states are released
// with discard.
func timedSetup[T any](minReps int, setup func() (T, error), discard func(T)) (float64, T, error) {
	var last T
	var secs []float64
	var spent time.Duration
	for i := 0; i < minReps || (spent < setupFloor && i < maxSetupReps); i++ {
		if i > 0 {
			discard(last)
			runtime.GC()
		}
		start := time.Now()
		st, err := setup()
		if err != nil {
			return 0, last, err
		}
		el := time.Since(start)
		spent += el
		secs = append(secs, el.Seconds())
		last = st
	}
	return median(secs), last, nil
}

// loopStats are the end-to-end numbers of one closed-loop measurement.
type loopStats struct {
	latMs   []float64
	wall    time.Duration
	cpu     time.Duration
	peakMB  float64
	attempt int
}

// closedLoop calls op back to back until d has elapsed and at least
// minOps ops ran, timing each call. op reports a wrong answer by
// returning an error; the loop keeps going so every op is counted.
// before, when non-nil, runs untimed ahead of every op.
func closedLoop(d time.Duration, minOps int, before func(), op func(i int) error, onErr func(i int, err error)) loopStats {
	var ls loopStats
	hs := startHeapSampler()
	cpu0 := cpuTime()
	start := time.Now()
	var timed time.Duration
	for i := 0; time.Since(start) < d || i < minOps; i++ {
		if before != nil {
			before()
		}
		t := time.Now()
		err := op(i)
		el := time.Since(t)
		timed += el
		ls.attempt++
		ls.latMs = append(ls.latMs, ms(el))
		if err != nil {
			onErr(i, err)
		}
	}
	ls.wall = time.Since(start)
	if before != nil {
		// Untimed per-op preparation is not part of the throughput.
		ls.wall = timed
	}
	ls.cpu = cpuTime() - cpu0
	ls.peakMB = hs.finish()
	return ls
}

// addEndToEnd reports the end-to-end metrics of a measurement.
func (r *report) addEndToEnd(setupS float64, ls loopStats) {
	r.Attempted += ls.attempt
	r.add("setup_s", setupS, "s")
	r.add("op_ms_p50", median(ls.latMs), "ms")
	r.addTail("op_ms_tail", ls.latMs, "ms")
	r.add("ops_per_s", float64(ls.attempt)/ls.wall.Seconds(), "1/s")
	r.add("cpu_ms_per_op", ms(ls.cpu)/float64(ls.attempt), "ms")
	r.add("peak_heap_mb", ls.peakMB, "MB")
	r.add("failed_frac", frac(float64(r.Failed), float64(r.Attempted)), "frac")
}
