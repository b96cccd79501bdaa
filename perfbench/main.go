// Command perfbench is the repository's benchmark: one process runs one
// workload of the compile-and-simulate pipeline, checks every output, and
// prints its metrics, the last line being one JSON object
// {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench -workload paper_grid -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it measures the end-to-end metrics; with -trace 1 it makes
// one traced, single-threaded pass that times every pipeline layer from
// outside and cross-checks each cell against the untraced engine. See
// README.md for the workloads, the metrics and why they were chosen.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// A run times two rounds of fresh set-ups, one before its measured
// phase and one after. A round is at least setupReps set-ups and lasts
// until they add up to setupTime, so that a short set-up is sampled
// across seconds of the host's load; setup_s is the median of both
// rounds, never one sample.
const (
	setupReps = 15
	setupTime = 2 * time.Second
)

// env is one run's parameters.
type env struct {
	seed    uint64
	seconds time.Duration
	nproc   int
}

// size scales the traced pass; the self-test runs it reduced.
type size struct {
	paperBenches int // first n analogs of the seeded order
	corpus       int // generated programs
	serveRounds  int // cells per serving path = rounds × 17 analogs; both paths must fit the 256-entry LRU
	fleetRounds  int // fleet grids = rounds × 17 analogs; their cells must fit the 256-entry LRU
}

var fullSize = size{paperBenches: 17, corpus: 1024, serveRounds: 6, fleetRounds: 4}

// workloadDef is one workload's measured run and traced run.
type workloadDef struct {
	run    func(e *env) (*report, error)
	traced func(e *env, sz size, l *layers, r *report) error
}

var workloads = map[string]workloadDef{
	"paper_grid": {
		run: func(e *env) (*report, error) {
			return runGrid(e, func() (gridJob, error) { return paperJob(e, fullSize.paperBenches) })
		},
		traced: func(e *env, sz size, l *layers, r *report) error {
			job, err := paperJob(e, sz.paperBenches)
			if err != nil {
				return err
			}
			return traceGrid(e, job, l, r)
		},
	},
	"gen_corpus": {
		run: func(e *env) (*report, error) {
			return runGrid(e, func() (gridJob, error) { return corpusJob(e, fullSize.corpus) })
		},
		traced: func(e *env, sz size, l *layers, r *report) error {
			var job gridJob
			err := l.time("hlirgen.generate", -1, func() error {
				var err error
				job, err = corpusJob(e, sz.corpus)
				return err
			})
			if err != nil {
				return err
			}
			return traceGrid(e, job, l, r)
		},
	},
	"serve":      {run: runServe, traced: traceServe},
	"fleet_grid": {run: runFleet, traced: traceFleet},
}

// perLayer lists every metric a traced run prints, with its unit. A
// workload that does not load a layer reports it as 0.
var perLayer = [][2]string{
	{"sim.ms", "ms"}, {"sim.minstr_per_s", "Minstr/s"}, {"sim.pool_hit_ratio", "ratio"},
	{"profile.ms", "ms"}, {"profile.runs", "count"}, {"profile.cache_hits", "count"},
	{"trace.ms", "ms"}, {"trace.traces", "count"},
	{"sched.ms", "ms"}, {"sched.blocks", "count"},
	{"lower.ms", "ms"}, {"lower.instrs", "count"},
	{"regalloc.ms", "ms"}, {"regalloc.spills", "count"},
	{"locality.ms", "ms"}, {"unroll.ms", "ms"}, {"prefetch.ms", "ms"}, {"licm.ms", "ms"},
	{"workload.build_ms", "ms"}, {"hlirgen.generate_ms", "ms"}, {"hlir.interp_ms", "ms"},
	{"exp.busy_frac", "ratio"},
	{"runtime.alloc_mb_per_cell", "MB"}, {"runtime.gc_cpu_frac", "ratio"},
	{"server.handler_ms", "ms"}, {"server.http_ms", "ms"},
	{"server.handler_warm_ms", "ms"}, {"server.http_warm_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"}, {"server.shed", "count"},
	{"fleet.hop_ms", "ms"}, {"fleet.cache_tier_hit_ratio", "ratio"},
	{"fleet.retries", "count"}, {"fleet.hedges", "count"},
	{"sim.cycles", "count"}, {"sim.instrs", "count"}, {"cells", "count"},
	{"tracing.overhead_ms", "ms"},
}

// traced makes the traced run of w and returns its report with every
// per-layer metric set.
func traced(w workloadDef, e *env, sz size) (*report, *layers, error) {
	r := newReport()
	for _, m := range perLayer {
		r.set(m[0], 0, m[1])
	}
	l := newLayers()
	if err := w.traced(e, sz, l, r); err != nil {
		return nil, nil, err
	}
	l.report(r)
	return r, l, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper_grid, gen_corpus, serve or fleet_grid")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 makes the traced per-layer run")
	out := fs.String("out", ".bench_build", "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q)\n", *name)
		return 2
	}
	e := &env{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), nproc: runtime.NumCPU()}
	// The host stamp: figures are comparable only between runs that share it.
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d trace=%d go=%s nproc=%d gomaxprocs=%d\n",
		*name, *seed, *trace, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))

	var rep *report
	var err error
	if *trace == 1 {
		var l *layers
		rep, l, err = traced(w, e, fullSize)
		if err == nil {
			path := filepath.Join(*out, fmt.Sprintf("spans_%s_%d.json", *name, *seed))
			if werr := os.MkdirAll(*out, 0o755); werr != nil {
				err = werr
			} else {
				err = l.writeSpans(path)
			}
		}
	} else {
		rep, err = w.run(e)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return emit(rep, stdout, stderr)
}

// emit prints the metrics one per line, then the result object as the
// last line.
func emit(rep *report, stdout, stderr io.Writer) int {
	for _, why := range rep.reasons {
		fmt.Fprintln(stderr, "perfbench: failed:", why)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "# %-28s %14.4f %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	if rep.samples != "" {
		fmt.Fprintf(stdout, "# %s\n", rep.samples)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return 0
}
