package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/hlirgen"
	"repro/internal/sim"
	"repro/internal/workload"
)

// gridJob is one grid workload's engine calls: fresh engines over the
// benchmarks × configurations, so every pass starts with cold front-ends
// and profile caches, as a paperbench run does. An engine
// keeps every front-end of its grid (program, data, machine pool) alive
// until the grid ends, so a large corpus runs chunk benchmarks per engine
// to bound memory.
type gridJob struct {
	benches []workload.Benchmark
	cfgs    []core.Config
	chunk   int // benchmarks per engine; 0 means all
}

func (g gridJob) cells() int { return len(g.benches) * len(g.cfgs) }

// run runs one pass and visits every cell's result (nil when the engine
// returned none). A degraded grid still returns every healthy cell; the
// visitor sees the injured ones with Err set. done, when non-nil, is
// called as each cell completes, with the count of the engine's cells
// completed so far (1 for an engine's first cell).
func (g gridJob) run(jobs int, visit func(k cell, r *exp.Result), done func(n int)) error {
	step := g.chunk
	if step <= 0 {
		step = len(g.benches)
	}
	opt := exp.Options{Jobs: jobs}
	if done != nil {
		opt.Progress = func(n, _ int, _, _ string) { done(n) }
	}
	for lo := 0; lo < len(g.benches); lo += step {
		part := g.benches[lo:min(lo+step, len(g.benches))]
		s, err := exp.RunBenchmarksConfigs(part, g.cfgs, opt)
		var ge *exp.GridError
		if err != nil && !errors.As(err, &ge) {
			return err
		}
		for _, b := range part {
			for _, cfg := range g.cfgs {
				visit(cell{b.Name, cfg.Name()}, s.Get(b.Name, cfg))
			}
		}
	}
	return nil
}

// paperJob is the paper's grid: the seventeen analogs (the first n of
// them in seeded order) × the sixteen exp.Cells.
func paperJob(e *env, n int) (gridJob, error) {
	benches, err := analogs(benchNames(e.seed)[:n])
	return gridJob{benches: benches, cfgs: exp.Cells()}, err
}

// analogs looks the named analogs up, in order.
func analogs(names []string) ([]workload.Benchmark, error) {
	out := make([]workload.Benchmark, 0, len(names))
	for _, n := range names {
		b, err := workload.ByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// buildFrontEnds is a grid's set-up: every benchmark's program and its
// reference checksum, the work the engine does before a benchmark's first
// cell can run.
func buildFrontEnds(benches []workload.Benchmark) error {
	for _, b := range benches {
		p, d := b.Build()
		if _, err := core.Reference(p, d); err != nil {
			return fmt.Errorf("%s reference: %w", b.Name, err)
		}
	}
	return nil
}

// corpusSeed derives the generated corpus from the benchmark seed.
func corpusSeed(seed uint64) uint64 { return newRNG(seed, 3).Uint64() }

// corpusJob generates the seeded corpus of n programs, to run × the five
// exp.GenCells, 128 programs per engine.
func corpusJob(e *env, n int) (gridJob, error) {
	items, err := hlirgen.Corpus(corpusSeed(e.seed), n)
	if err != nil {
		return gridJob{}, err
	}
	return gridJob{benches: workload.FromItems(items), cfgs: exp.GenCells(), chunk: 128}, nil
}

// gridChecker checks every cell the workload runs: present, not degraded
// (the engine compares each cell's checksum with core.Reference and
// degrades a mismatch), and simulated in exactly the cycles the cell's
// first run saw. It also collects the two cell latencies:
//
//   - cold: a one-cell grid on a fresh engine, which builds the
//     front-end (program, input data, reference checksum) and then runs
//     the cell with nothing cached;
//   - warm: a cell inside a jobs = 1 pass, timed as the gap between
//     engine completions. An engine's first completion is left out: it
//     carries the engine's front-end pre-phase for every benchmark.
//
// busy sums the engine's own per-cell phase times.
type gridChecker struct {
	t          *tally
	cycles     map[cell]int64
	cold, warm []float64 // cell latencies, ms
	busy       time.Duration
}

func newGridChecker(t *tally) *gridChecker {
	return &gridChecker{t: t, cycles: map[cell]int64{}}
}

// check tallies one cell's result and reports whether it passed.
func (g *gridChecker) check(k cell, r *exp.Result) bool {
	if r != nil {
		g.busy += r.Phases.Total()
	}
	if r == nil || r.Metrics == nil {
		msg := "no result"
		if r != nil && r.Err != nil {
			msg = r.Err.Error()
		}
		g.t.add(false, fmt.Sprintf("%v: %s", k, msg))
		return false
	}
	want, seen := g.cycles[k]
	if !seen {
		g.cycles[k] = r.Metrics.Cycles
	} else if want != r.Metrics.Cycles {
		g.t.add(false, fmt.Sprintf("%v: %d cycles, earlier run %d", k, r.Metrics.Cycles, want))
		return false
	}
	g.t.ok()
	return true
}

// pass runs one pass of job, checking every cell, and returns its wall
// time and verified cell count.
func (g *gridChecker) pass(job gridJob, jobs int) (wall time.Duration, ok int, err error) {
	start := time.Now()
	last := start
	var done func(n int)
	if jobs == 1 {
		done = func(n int) {
			now := time.Now()
			if n > 1 {
				g.warm = append(g.warm, ms(now.Sub(last)))
			}
			last = now
		}
	}
	err = job.run(jobs, func(k cell, r *exp.Result) {
		if g.check(k, r) {
			ok++
		}
	}, done)
	return time.Since(start), ok, err
}

// coldCell times the i-th cold cell: a one-cell grid on a fresh engine.
// Cell i is benchmark i mod benchmarks × configuration i mod
// configurations, so a run walks the paper grid's cells (17 × 16,
// coprime) in a fixed cycle and the corpus's programs in order, each
// configuration equally often.
func (g *gridChecker) coldCell(job gridJob, i int) error {
	one := gridJob{
		benches: []workload.Benchmark{job.benches[i%len(job.benches)]},
		cfgs:    []core.Config{job.cfgs[i%len(job.cfgs)]},
	}
	start := time.Now()
	err := one.run(1, func(k cell, r *exp.Result) { g.check(k, r) }, nil)
	g.cold = append(g.cold, ms(time.Since(start)))
	return err
}

// minColdSamples is the fewest cold cells a grid run times, so that
// cold_p95_ms has at least ten samples beyond it.
const minColdSamples = 200

// runGrid is a grid workload's measured run: a round of set-ups, one
// unmeasured warm-up pass, then fresh-engine passes at jobs = 1 for the
// run's seconds, each followed by cold one-cell grids for a fifth of the
// pass's time, and a second round of set-ups. Interleaving passes and
// cold grids spreads both kinds of sample over the whole run, so the
// host's swings of a few seconds fall on them alike. cells_per_s is the
// median over the passes of verified cells per wall second, so a burst
// of load on the host moves one pass, not the figure.
func runGrid(e *env, setup func() (gridJob, error)) (*report, error) {
	var job gridJob
	su := &setupTimer{setup: func() (func(), error) {
		var err error
		if job, err = setup(); err != nil {
			return nil, err
		}
		return nil, buildFrontEnds(job.benches)
	}}
	if _, err := su.round(); err != nil {
		return nil, err
	}
	t := &tally{}
	chk := newGridChecker(t)
	if _, _, err := chk.pass(job, 1); err != nil {
		return nil, err
	}
	chk.warm = nil
	var rates []float64
	for start := time.Now(); len(rates) == 0 || len(chk.cold) < minColdSamples || time.Since(start) < e.seconds; {
		d, ok, err := chk.pass(job, 1)
		if err != nil {
			return nil, err
		}
		rates = append(rates, float64(ok)/d.Seconds())
		for t0 := time.Now(); time.Since(t0) < d/5; {
			if err := chk.coldCell(job, len(chk.cold)); err != nil {
				return nil, err
			}
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if _, err := su.round(); err != nil {
		return nil, err
	}
	r := newReport()
	t.fill(r)
	r.set("setup_s", su.median(), "s")
	r.set("cells_per_s", median(rates), "1/s")
	r.set("peak_rss_mb", rss, "MB")
	latencies(r, chk.cold, chk.warm)
	return r, nil
}

// traceGrid is a grid workload's traced run. The untraced engine runs the
// job once at jobs = nproc (busy fraction, allocation, GC share) and once
// at jobs = 1; then the layer driver runs every cell single-threaded,
// and each cell's cycles must equal the engine's.
// Tracing overhead is the traced pass's wall time minus the second
// engine pass's.
func traceGrid(e *env, job gridJob, l *layers, r *report) error {
	t := &tally{}
	chk := newGridChecker(t)

	rt0 := readRuntime()
	wall, _, err := chk.pass(job, e.nproc)
	if err != nil {
		return err
	}
	alloc, gc := runtimeDelta(rt0, readRuntime(), job.cells())
	r.set("exp.busy_frac", chk.busy.Seconds()/(float64(e.nproc)*wall.Seconds()), "ratio")
	r.set("runtime.alloc_mb_per_cell", alloc, "MB")
	r.set("runtime.gc_cpu_frac", gc, "ratio")

	untraced, _, err := chk.pass(job, 1)
	if err != nil {
		return err
	}

	h0, m0 := sim.PoolCounters()
	start := time.Now()
	for _, b := range job.benches {
		fe, err := l.frontEnd(b)
		if err != nil {
			return err
		}
		for _, cfg := range job.cfgs {
			k := cell{b.Name, cfg.Name()}
			out, err := l.cell(fe, cfg)
			switch {
			case err != nil:
				t.add(false, err.Error())
			case out.cycles != chk.cycles[k]:
				t.add(false, fmt.Sprintf("%v: traced %d cycles, engine %d", k, out.cycles, chk.cycles[k]))
			default:
				t.ok()
			}
		}
	}
	traced := time.Since(start)
	h1, m1 := sim.PoolCounters()
	poolRatio(r, h1-h0, m1-m0)
	r.set("tracing.overhead_ms", ms(traced-untraced), "ms")
	t.fill(r)
	return nil
}

func poolRatio(r *report, hits, misses int64) {
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	r.set("sim.pool_hit_ratio", ratio, "ratio")
}
