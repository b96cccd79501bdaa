package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/hlir"
	"repro/internal/licm"
	"repro/internal/locality"
	"repro/internal/lower"
	"repro/internal/prefetch"
	"repro/internal/profile"
	"repro/internal/regalloc"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/unroll"
	"repro/internal/workload"
)

// The traced run drives the pipeline layer by layer through the same
// public entry points core.CompileWithOptions and core.ExecutePooled
// compose, timing each call from here. Nothing inside the program is
// instrumented. If the pipeline's composition changes, the cross-check
// against the untraced engine (same cycles, same checksum for every cell)
// fails the run instead of timing a different program.

// span is one timed call: a layer name, the cell that caused it (-1 for
// front-end work), and its start and end relative to the pass start.
type span struct {
	name       string
	cell       int
	start, end time.Duration
}

// layers is one traced pass: spans kept in memory, self time per layer
// and the counts measured at the same boundaries. A layer's spans never
// nest inside each other, so each span's duration is its self time.
type layers struct {
	epoch time.Time
	spans []span
	cells []cell // cell names, indexed by span.cell
	dur   map[string]time.Duration

	profileRuns, profileHits int64
	traces, schedBlocks      int64
	lowerInstrs, spills      int64
	cycles, instrs           int64
}

func newLayers() *layers {
	return &layers{epoch: time.Now(), dur: map[string]time.Duration{}}
}

// time runs f as one span of layer name on behalf of cell c.
func (l *layers) time(name string, c int, f func() error) error {
	t0 := time.Now()
	err := f()
	t1 := time.Now()
	l.dur[name] += t1.Sub(t0)
	l.spans = append(l.spans, span{name: name, cell: c, start: t0.Sub(l.epoch), end: t1.Sub(l.epoch)})
	return err
}

func (l *layers) ms(name string) float64 { return ms(l.dur[name]) }

// frontEnd is one benchmark's shared state, as the engine keeps it: the
// program, its input data, the reference checksum, the edge-profile
// cache and the machine pool.
type frontEnd struct {
	name     string
	p        *hlir.Program
	d        *core.Data
	want     uint64
	profiles map[string]profile.Edges
	pool     *sim.Pool
}

// frontEnd builds b and its reference checksum under the
// workload.build and hlir.interp layers.
func (l *layers) frontEnd(b workload.Benchmark) (*frontEnd, error) {
	fe := &frontEnd{name: b.Name, profiles: map[string]profile.Edges{}, pool: sim.NewPool()}
	l.time("workload.build", -1, func() error {
		fe.p, fe.d = b.Build()
		return nil
	})
	err := l.time("hlir.interp", -1, func() error {
		var err error
		fe.want, err = core.Reference(fe.p, fe.d)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s reference: %w", b.Name, err)
	}
	return fe, nil
}

// cellOut is what the cross-check compares against the untraced engine.
type cellOut struct {
	cycles, instrs int64
	sum            uint64
}

// cell compiles and simulates one cell of fe layer by layer, in the
// order core.CompileWithOptions runs the phases, and checks its output
// checksum against the reference interpreter's.
func (l *layers) cell(fe *frontEnd, cfg core.Config) (cellOut, error) {
	c := len(l.cells)
	l.cells = append(l.cells, cell{Bench: fe.name, Config: cfg.Name()})
	wrap := func(err error) (cellOut, error) {
		return cellOut{}, fmt.Errorf("%s %s: %w", fe.name, cfg.Name(), err)
	}
	prog := fe.p
	if cfg.Locality {
		l.time("locality", c, func() error {
			prog, _ = locality.Apply(prog, cfg.Unroll)
			return nil
		})
	}
	if cfg.Unroll > 0 {
		l.time("unroll", c, func() error {
			prog = unroll.ApplyObserved(prog, cfg.Unroll, nil)
			return nil
		})
	}
	if cfg.Prefetch {
		l.time("prefetch", c, func() error {
			prog, _ = prefetch.Apply(prog)
			return nil
		})
	}
	if prog == fe.p {
		prog = fe.p.Clone()
	}
	var res *lower.Result
	if err := l.time("lower", c, func() error {
		var err error
		res, err = lower.Lower(prog)
		return err
	}); err != nil {
		return wrap(err)
	}
	for _, b := range res.Fn.Blocks {
		l.lowerInstrs += int64(len(b.Instrs))
	}
	if cfg.LICM {
		l.time("licm", c, func() error {
			licm.Apply(res.Fn)
			return nil
		})
	}
	fn := res.Fn
	if cfg.Trace {
		// The engine's profile cache is keyed by the transform prefix:
		// configurations that differ only in weight policy lower to the
		// same CFG and share one profiling run.
		key := fmt.Sprintf("LA=%v LU=%d PF=%v LICM=%v", cfg.Locality, cfg.Unroll, cfg.Prefetch, cfg.LICM)
		edges, hit := fe.profiles[key]
		if err := l.time("profile", c, func() error {
			if hit {
				profile.Annotate(fn, edges)
				return nil
			}
			var err error
			edges, _, err = profile.CollectPooled(fn, func(m *sim.Machine) {
				core.InitMachine(m, res.ArrayID, fe.d)
			}, fe.pool)
			return err
		}); err != nil {
			return wrap(err)
		}
		if hit {
			l.profileHits++
		} else {
			l.profileRuns++
			fe.profiles[key] = edges
		}
		if err := l.time("trace", c, func() error {
			rep, err := trace.ScheduleAllChecked(fn, edges, cfg.Policy, nil, false)
			if rep != nil {
				l.traces += int64(rep.Traces)
			}
			return err
		}); err != nil {
			return wrap(err)
		}
	} else {
		if err := l.time("sched", c, func() error {
			for _, b := range fn.Blocks {
				if err := trace.ScheduleBlockChecked(fn, b, cfg.Policy, nil, false); err != nil {
					return err
				}
				l.schedBlocks++
			}
			return fn.Validate()
		}); err != nil {
			return wrap(err)
		}
	}
	if err := l.time("regalloc", c, func() error {
		rep, err := regalloc.AllocateChecked(fn, nil, false)
		if rep != nil {
			l.spills += int64(rep.Spills + rep.Restores)
		}
		return err
	}); err != nil {
		return wrap(err)
	}

	var m *sim.Machine
	var out cellOut
	if err := l.time("sim", c, func() error {
		var err error
		if m, _, err = fe.pool.Get(fn); err != nil {
			return err
		}
		m.IssueWidth = 1
		core.InitMachine(m, res.ArrayID, fe.d)
		met, err := m.Run(nil)
		if err == nil {
			out.cycles, out.instrs = met.Cycles, met.Instrs
		}
		return err
	}); err != nil {
		return wrap(err)
	}
	l.time("checksum", c, func() error {
		out.sum = core.Checksum(m, &core.Compiled{Program: prog, ArrayID: res.ArrayID})
		return nil
	})
	fe.pool.Put(m)
	l.cycles += out.cycles
	l.instrs += out.instrs
	if out.sum != fe.want {
		return wrap(fmt.Errorf("checksum %#x, reference %#x", out.sum, fe.want))
	}
	return out, nil
}

// driveCells runs the driver over cells, whose untraced runs simulated
// want cycles, tallying each cell, and returns the driver's wall time
// over cells[from:]. Front-ends are built before the clock starts.
func driveCells(l *layers, t *tally, r *report, cells []cell, want []int64, from int) (time.Duration, error) {
	fes := map[string]*frontEnd{}
	for _, c := range cells {
		if fes[c.Bench] != nil {
			continue
		}
		b, err := workload.ByName(c.Bench)
		if err != nil {
			return 0, err
		}
		if fes[c.Bench], err = l.frontEnd(b); err != nil {
			return 0, err
		}
	}
	h0, m0 := sim.PoolCounters()
	var start time.Time
	for i, c := range cells {
		if i == from {
			start = time.Now()
		}
		cfg, err := core.ParseConfig(c.Config)
		if err != nil {
			return 0, err
		}
		out, err := l.cell(fes[c.Bench], cfg)
		switch {
		case err != nil:
			t.add(false, err.Error())
		case out.cycles != want[i]:
			t.add(false, fmt.Sprintf("%v: traced %d cycles, served %d", c, out.cycles, want[i]))
		default:
			t.ok()
		}
	}
	wall := time.Since(start)
	h1, m1 := sim.PoolCounters()
	poolRatio(r, h1-h0, m1-m0)
	return wall, nil
}

// report writes the pipeline layer metrics of the pass into r.
func (l *layers) report(r *report) {
	for _, name := range []string{"sim", "profile", "trace", "sched", "lower", "regalloc", "locality", "unroll", "prefetch", "licm"} {
		r.set(name+".ms", l.ms(name), "ms")
	}
	r.set("workload.build_ms", l.ms("workload.build"), "ms")
	r.set("hlir.interp_ms", l.ms("hlir.interp"), "ms")
	r.set("hlirgen.generate_ms", l.ms("hlirgen.generate"), "ms")
	mips := 0.0
	if s := l.dur["sim"].Seconds(); s > 0 {
		mips = float64(l.instrs) / s / 1e6
	}
	r.set("sim.minstr_per_s", mips, "Minstr/s")
	r.set("sim.cycles", float64(l.cycles), "count")
	r.set("sim.instrs", float64(l.instrs), "count")
	r.set("profile.runs", float64(l.profileRuns), "count")
	r.set("profile.cache_hits", float64(l.profileHits), "count")
	r.set("trace.traces", float64(l.traces), "count")
	r.set("sched.blocks", float64(l.schedBlocks), "count")
	r.set("lower.instrs", float64(l.lowerInstrs), "count")
	r.set("regalloc.spills", float64(l.spills), "count")
	r.set("cells", float64(len(l.cells)), "count")
}

// writeSpans writes the pass's spans as a Chrome trace (one complete
// event per span; layer spans carry their cell's name and index, which
// is their parent in the trace tree).
func (l *layers) writeSpans(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := make([]event, 0, len(l.spans))
	for _, s := range l.spans {
		ev := event{Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: 1}
		if s.cell >= 0 {
			c := l.cells[s.cell]
			ev.Args = map[string]any{"cell": s.cell, "bench": c.Bench, "config": c.Config}
		}
		events = append(events, ev)
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
