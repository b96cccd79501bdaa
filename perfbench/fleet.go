package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	"repro/internal/fleet"
	"repro/internal/server"
)

// fleetWorkers is the fleet's size: two workers with one compute slot
// each, so the fleet never asks for more CPUs than a 2-CPU host has.
const fleetWorkers = 2

// fleetEnv is a coordinator in front of its workers, all in-process on
// loopback.
type fleetEnv struct {
	workers []*worker
	coord   *fleet.Coordinator
	front   *httpServer
	tr      *http.Transport // the coordinator's client to its workers
}

// startFleet is the fleet workload's set-up: the workers, the coordinator
// ready on loopback, and every analog's front-end built on its owner by
// one priming grid. Hedging is off (a hedge duplicates a cell's work on a
// second worker and blurs its latency) and the in-flight window per
// worker equals its one compute slot, so cells queue at the coordinator,
// not inside a worker.
func startFleet(st *cellStream) (*fleetEnv, error) {
	f := &fleetEnv{tr: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}}
	var addrs []string
	for i := 0; i < fleetWorkers; i++ {
		w, err := startWorker(server.Config{Workers: 1})
		if err != nil {
			f.close()
			return nil, err
		}
		f.workers = append(f.workers, w)
		addrs = append(addrs, w.addr)
	}
	coord, err := fleet.New(fleet.Config{
		Workers:    addrs,
		Inflight:   1,
		HedgeAfter: -1, // any negative value disables hedging; 0 means the 2s default
		MinWorkers: fleetWorkers,
		Client:     &http.Client{Transport: f.tr},
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.coord = coord
	if f.front, err = listen(coord.Handler()); err != nil {
		f.close()
		return nil, err
	}
	if err := waitReady(f.front.base()); err != nil {
		f.close()
		return nil, err
	}
	post, closeIdle := loopback(f.front.base(), 1)
	defer closeIdle()
	req := server.GridRequest{Benches: st.benches, Configs: []string{primeConfig}}
	resp, err := post("/v1/grid", req)
	if err := checkGrid(req, resp, err, nil); err != nil {
		f.close()
		return nil, fmt.Errorf("priming: %w", err)
	}
	return f, nil
}

// close drains the coordinator, then the workers, and waits for every
// goroutine they started.
func (f *fleetEnv) close() {
	if f.front != nil {
		f.front.close()
	}
	if f.coord != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = f.coord.Drain(ctx) // no journal configured: nothing to flush
		cancel()
	}
	f.tr.CloseIdleConnections()
	for _, w := range f.workers {
		w.close()
	}
}

// cacheCounts sums the workers' result-cache hits and misses, read from
// each worker's /debug/obs.
func (f *fleetEnv) cacheCounts() (hits, misses int64, err error) {
	for _, w := range f.workers {
		resp, err := http.Get(w.base() + "/debug/obs")
		if err != nil {
			return 0, 0, err
		}
		var doc struct {
			Stats struct {
				Counters map[string]int64 `json:"counters"`
			} `json:"stats"`
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			return 0, 0, fmt.Errorf("%s /debug/obs: %w", w.addr, err)
		}
		hits += doc.Stats.Counters["server/cache_hits"]
		misses += doc.Stats.Counters["server/cache_misses"]
	}
	return hits, misses, nil
}

// checkCache fails the phase's operations unless the workers' cache
// counters moved by exactly the hits and misses it expects: every cold
// cell computed, every warm cell served from a worker's LRU.
func (f *fleetEnv) checkCache(t *tally, phase string, from [2]int64, hits, misses int) error {
	h, m, err := f.cacheCounts()
	if err != nil {
		return err
	}
	if dh, dm := h-from[0], m-from[1]; dh != int64(hits) || dm != int64(misses) {
		t.fail(fmt.Sprintf("%s phase: workers counted %d cache hits and %d misses, want %d and %d", phase, dh, dm, hits, misses))
	}
	return nil
}

// checkGrid checks one /v1/grid response: 200, then either the bytes of
// the cold response (want) or one healthy cell per requested cell.
func checkGrid(req server.GridRequest, resp response, err error, want []byte) error {
	switch {
	case err != nil:
		return fmt.Errorf("grid %v: %w", req, err)
	case resp.status != http.StatusOK:
		return fmt.Errorf("grid %v: status %d: %s", req, resp.status, bytes.TrimSpace(resp.body))
	case want != nil:
		if !bytes.Equal(resp.body, want) {
			return fmt.Errorf("grid %v: bytes differ from the cold response", req)
		}
		return nil
	}
	var g server.GridResponse
	if err := json.Unmarshal(resp.body, &g); err != nil {
		return fmt.Errorf("grid %v: %w", req, err)
	}
	if len(g.Cells) != len(req.Benches)*len(req.Configs) {
		return fmt.Errorf("grid %v: %d cells", req, len(g.Cells))
	}
	for _, c := range g.Cells {
		if c.Error != "" || c.Metrics == nil || c.Metrics.Cycles <= 0 {
			return fmt.Errorf("grid %v: cell %s/%s: %s %s", req, c.Bench, c.Config, c.Kind, c.Error)
		}
	}
	return nil
}

// gridCycles returns the simulated cycles of a grid response's cells, in
// response order.
func gridCycles(body []byte) []int64 {
	var g server.GridResponse
	if json.Unmarshal(body, &g) != nil {
		return nil
	}
	var out []int64
	for _, c := range g.Cells {
		if c.Metrics != nil {
			out = append(out, c.Metrics.Cycles)
		}
	}
	return out
}

func gridReq(st *cellStream, k int) server.GridRequest {
	b, cfgs := st.grid(k)
	return server.GridRequest{Benches: []string{b}, Configs: cfgs}
}

// runFleet is the fleet workload: one closed-loop client sends the
// seeded stream of never-served grids for coldShare of the run, then
// replays the last 60 of them (120 cells, inside every worker's
// 256-entry LRU) for the rest. The workers' cache counters must show
// every cold cell as a miss and every warm one as a hit. Afterwards
// every grid served is requested again from a fresh single-node server;
// its bytes must equal the fleet's.
func runFleet(e *env) (*report, error) {
	st := newCellStream(e.seed)
	var f *fleetEnv
	su := &setupTimer{setup: func() (func(), error) {
		var err error
		if f, err = startFleet(st); err != nil {
			return nil, err
		}
		return f.close, nil
	}}
	release, err := su.round()
	if err != nil {
		return nil, err
	}
	defer release()
	post, closeIdle := loopback(f.front.base(), 1)
	defer closeIdle()

	t := &tally{}
	bodies := make([][]byte, st.grids())
	cold := func(k int) (time.Duration, bool) {
		req := gridReq(st, k)
		resp, err := post("/v1/grid", req)
		if err := checkGrid(req, resp, err, nil); err != nil {
			t.add(false, err.Error())
			return 0, false
		}
		t.ok()
		bodies[k] = resp.body
		return resp.lat, true
	}
	warmup := len(st.benches)
	closedLoop(1, warmup, time.Time{}, cold)

	var counts [2]int64
	if counts[0], counts[1], err = f.cacheCounts(); err != nil {
		return nil, err
	}
	start := time.Now()
	coldLat := closedLoop(1, st.grids()-warmup, start.Add(time.Duration(coldShare*float64(e.seconds))),
		func(i int) (time.Duration, bool) { return cold(warmup + i) })
	coldWall := time.Since(start)
	served := warmup + len(coldLat)
	if err := f.checkCache(t, "cold", counts, 0, gridConfigs*len(coldLat)); err != nil {
		return nil, err
	}
	if counts[0], counts[1], err = f.cacheCounts(); err != nil {
		return nil, err
	}

	hot := seq(max(0, served-60), served)
	newRNG(e.seed, 4).Shuffle(len(hot), func(i, j int) { hot[i], hot[j] = hot[j], hot[i] })
	warmLat := closedLoop(1, math.MaxInt, time.Now().Add(e.seconds-coldWall), func(i int) (time.Duration, bool) {
		k := hot[i%len(hot)]
		req := gridReq(st, k)
		resp, err := post("/v1/grid", req)
		if err := checkGrid(req, resp, err, bodies[k]); err != nil {
			t.add(false, err.Error())
			return 0, false
		}
		t.ok()
		return resp.lat, true
	})
	if err := f.checkCache(t, "warm", counts, gridConfigs*len(warmLat), 0); err != nil {
		return nil, err
	}
	if err := crossCheckSingleNode(st, bodies[:served], e.nproc, t); err != nil {
		return nil, err
	}

	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	// The second round of set-ups, after the peak memory is read (its
	// fleets run beside the measured one); they are released at once.
	rel, err := su.round()
	if err != nil {
		return nil, err
	}
	rel()
	r := newReport()
	t.fill(r)
	r.set("setup_s", su.median(), "s")
	r.set("cells_per_s", float64(gridConfigs*len(coldLat))/coldWall.Seconds(), "1/s")
	r.set("peak_rss_mb", rss, "MB")
	latencies(r, coldLat, warmLat)
	return r, nil
}

// crossCheckSingleNode requests every served grid from a fresh
// single-node server, in-process, and fails each grid whose bytes differ
// from the fleet's (grids the fleet failed are already counted).
func crossCheckSingleNode(st *cellStream, bodies [][]byte, clients int, t *tally) error {
	srv, err := server.New(server.Config{})
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
	}()
	direct := inProcess(srv.Handler())
	closedLoop(clients, len(bodies), time.Time{}, func(k int) (time.Duration, bool) {
		if bodies[k] == nil {
			return 0, false
		}
		req := gridReq(st, k)
		resp, err := direct("/v1/grid", req)
		if err := checkGrid(req, resp, err, bodies[k]); err != nil {
			t.fail("single node: " + err.Error())
			return 0, false
		}
		return resp.lat, true
	})
	return nil
}

// failover drains the worker that owns bench and waits until the
// coordinator's health probes see it down (its /readyz answers 503 once
// fewer than MinWorkers are healthy), and returns the drained worker's
// address. The dispatcher then sends that worker's cells to the other
// one, consulting the cache tier first.
func (f *fleetEnv) failover(bench string) (string, error) {
	owner := f.coord.OwnerAddr(bench)
	for _, w := range f.workers {
		if w.addr == owner {
			w.srv.StartDrain()
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(f.front.base() + "/readyz")
		if err != nil {
			return "", err
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			return owner, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return "", fmt.Errorf("coordinator still ready 10s after draining %s", owner)
}

// traceFleet is the fleet workload's traced run, single-threaded: the
// grids cold through the coordinator, then cold on a single-node server
// with one compute slot, straight into its handler (bytes must match the
// fleet's), then both warm over loopback. fleet.hop_ms is the
// coordinator's added latency on a warm grid: the median warm fleet grid
// minus the median warm single-node grid. Then the owner of the first
// grid is drained and its grids are requested again: they fail over and
// come from the coordinator's cache tier, byte-identical, which is the
// only path that reads the tier (fleet.cache_tier_hit_ratio). The layer
// driver then compiles every cell, whose cycles must equal the fleet's;
// tracing overhead is its time minus the single-node handler's.
func traceFleet(e *env, sz size, l *layers, r *report) error {
	st := newCellStream(e.seed)
	f, err := startFleet(st)
	if err != nil {
		return err
	}
	defer f.close()
	single, postSingle, releaseSingle, err := startServe(st, 1, server.Config{Workers: 1})
	if err != nil {
		return err
	}
	defer releaseSingle()
	postFleet, closeIdle := loopback(f.front.base(), 1)
	defer closeIdle()

	t := &tally{}
	n := sz.fleetRounds * len(st.benches)
	bodies := make([][]byte, n)
	pass := func(p poster) (lats []float64, wall time.Duration) {
		start := time.Now()
		for k := 0; k < n; k++ {
			req := gridReq(st, k)
			resp, err := p("/v1/grid", req)
			if err := checkGrid(req, resp, err, bodies[k]); err != nil {
				t.add(false, err.Error())
				continue
			}
			t.ok()
			if bodies[k] == nil {
				bodies[k] = resp.body
			}
			lats = append(lats, ms(resp.lat))
		}
		return lats, time.Since(start)
	}
	before := f.coord.StatsSnapshot().Counters
	rt0 := readRuntime()
	pass(postFleet)
	alloc, gc := runtimeDelta(rt0, readRuntime(), gridConfigs*n)
	_, singleWall := pass(inProcess(single.srv.Handler()))
	fleetWarm, _ := pass(postFleet)
	singleWarm, _ := pass(postSingle)

	drained, err := f.failover(st.benches[0])
	if err != nil {
		return err
	}
	for k := 0; k < n; k++ {
		req := gridReq(st, k)
		if f.coord.OwnerAddr(req.Benches[0]) != drained {
			continue
		}
		resp, err := postFleet("/v1/grid", req)
		if err := checkGrid(req, resp, err, bodies[k]); err != nil {
			t.add(false, "failover: "+err.Error())
			continue
		}
		t.ok()
	}
	after := f.coord.StatsSnapshot().Counters
	delta := func(name string) float64 { return float64(after[name] - before[name]) }

	r.set("fleet.hop_ms", median(fleetWarm)-median(singleWarm), "ms")
	tier := 0.0
	if lookups := delta("fleet/cache_hits") + delta("fleet/cache_misses"); lookups > 0 {
		tier = delta("fleet/cache_hits") / lookups
	}
	r.set("fleet.cache_tier_hit_ratio", tier, "ratio")
	r.set("fleet.retries", delta("fleet/retries"), "count")
	r.set("fleet.hedges", delta("fleet/hedges"), "count")
	r.set("runtime.alloc_mb_per_cell", alloc, "MB")
	r.set("runtime.gc_cpu_frac", gc, "ratio")

	var cells []cell
	var want []int64
	for k := 0; k < n; k++ {
		b, cfgs := st.grid(k)
		got := gridCycles(bodies[k])
		for j, c := range cfgs {
			cells = append(cells, cell{b, c})
			w := int64(-1)
			if j < len(got) {
				w = got[j]
			}
			want = append(want, w)
		}
	}
	traced, err := driveCells(l, t, r, cells, want, 0)
	if err != nil {
		return err
	}
	r.set("tracing.overhead_ms", ms(traced-singleWall), "ms")
	t.fill(r)
	return nil
}

// seq returns from, from+1, …, to-1.
func seq(from, to int) []int {
	out := make([]int, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, i)
	}
	return out
}
