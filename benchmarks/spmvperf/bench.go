package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"mwmerge/internal/core"
)

// options are the settings of one run.
type options struct {
	seed     int64
	seconds  float64
	traced   bool
	traceOut string // where a traced run writes its spans; "" keeps them in memory only
}

// setupReps is how often a run sets up; setup_s is the median.
const setupReps = 3

// setUp does what has to happen before the first measured operation: it
// builds the library half's engine and warms it with one SpMV (which
// plans the stripes, builds the HDN filter when configured, and grows
// the arenas), and builds and warms the daemon's two pools and starts
// the server. Input generation is not part of it — the generators are
// the benchmark's side, the program only ever sees their output — and
// leaving them out keeps setup_s sensitive to work a later change moves
// into engine or pool construction.
func setUp(in *inputs) (*core.Engine, *daemon, time.Duration, error) {
	start := time.Now()
	eng, err := core.New(in.cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	if _, err := eng.SpMV(in.a, in.x, nil); err != nil {
		return nil, nil, 0, err
	}
	d, err := startDaemon(in.served)
	if err != nil {
		return nil, nil, 0, err
	}
	return eng, d, time.Since(start), nil
}

// runWorkload generates the inputs, sets up, runs one workload's phases
// for about opt.seconds, and returns everything it measured. An error
// means the run could not be carried out at all; a wrong output is a
// failed operation in the result instead.
func runWorkload(w workload, opt options) (*runResult, error) {
	res := newRunResult(w.name, opt)
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	in, err := makeInputs(w, opt.seed)
	if err != nil {
		return nil, err
	}

	var eng *core.Engine
	var d *daemon
	var setupS []float64
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
			eng, d = nil, nil
			runtime.GC()
		}
		var took time.Duration
		if eng, d, took, err = setUp(in); err != nil {
			return nil, err
		}
		setupS = append(setupS, took.Seconds())
		res.Attempted++
	}
	defer d.stop()

	b := &bench{in: in, res: res, seconds: opt.seconds, firstHash: make(map[string]uint64)}
	if opt.traced {
		b.tr = newTracer()
	}
	if !opt.traced {
		res.samples("setup_s", setupS)
		b.libraryEndToEnd(eng)
		runtime.GC()
		if err := b.daemonEndToEnd(d); err != nil {
			return nil, err
		}
	} else {
		res.value("graph.generate_s", in.generateS)
		oneshotMS, warmMS, err := b.libraryTraced(eng)
		if err != nil {
			return nil, err
		}
		if err := b.measureLayers(time.Now().Add(b.window(tracedLayers))); err != nil {
			return nil, err
		}
		if err := b.measureBaselines(time.Now().Add(b.window(tracedBaseline))); err != nil {
			return nil, err
		}
		csrMS := res.Metrics["baseline.csr_ms"].Median
		res.value("baseline.gap_vs_csr", warmMS/csrMS)
		res.value("baseline.gap_oneshot_vs_csr", oneshotMS/csrMS)
		runtime.GC()
		if err := b.daemonTraced(d, b.window(tracedServe)); err != nil {
			return nil, err
		}
		recordRuntime(res, &before)
		b.tr.finish()
		if opt.traceOut != "" {
			if err := b.tr.write(opt.traceOut); err != nil {
				return nil, fmt.Errorf("write spans: %w", err)
			}
		}
		checkSpans(res, b.tr.snapshot())
	}
	res.checkComplete()
	return res, nil
}

// recordRuntime records the Go runtime's view of the run: collections
// and their pauses since `before`, and the process's peaks (which, with
// -workload all, earlier workloads of the same process share).
func recordRuntime(res *runResult, before *runtime.MemStats) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	res.value("rt.gc_cycles", float64(m.NumGC-before.NumGC))
	res.value("rt.gc_pause_ms", float64(m.PauseTotalNs-before.PauseTotalNs)/1e6)
	res.value("rt.peak_heap_mb", float64(m.HeapSys)/1e6)
	res.value("rt.peak_rss_mb", peakRSSMB())
}

// peakRSSMB reads the process's peak resident set from /proc (0 where
// there is none).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1e3
		}
	}
	return 0
}

// checkSpans fails the run unless every span's parent exists and began
// no later than it, and every self time is non-negative.
func checkSpans(res *runResult, spans []span) {
	ok := len(spans) > 0
	for _, s := range spans {
		if s.Parent >= len(spans) || s.Parent < -1 || s.SelfNS < 0 || s.End < s.Start {
			ok = false
		}
	}
	res.op(ok, "span tree is inconsistent (%d spans)", len(spans))
	res.Notes["spans"] = float64(len(spans))
}
