// Package fleet is bschedd's coordinator mode: one process that shards
// /v1/grid cells across a fleet of worker daemons and keeps serving
// while workers die, join and leave. It is the distributed analogue of
// the paper's balanced-scheduling insight — spread work to where the
// latency estimates say capacity is — applied to processes instead of
// functional units:
//
//   - Sharding: cells route by consistent hash on benchmark name, so
//     all configurations of a benchmark land on the same worker and its
//     per-benchmark front-end and LRU result caches stay hot. Virtual
//     nodes keep the shards balanced; walking the ring yields each
//     cell's deterministic failover order.
//   - Membership: the fleet is elastic. Workers join via POST
//     /v1/fleet/join (probed synchronously, taking new cells within one
//     probe interval), leave via POST /v1/fleet/leave (in-flight cells
//     drain, new cells stop routing at once), and are evicted after
//     sustained probe failure. The ring mutates incrementally, so a
//     membership change moves only ~1/n of the keyspace — every other
//     benchmark keeps its worker, and that worker keeps its hot caches.
//   - Health: every member is probed via GET /readyz on its own loop —
//     steady cadence while healthy, exponential backoff while down —
//     and dispatch-time transport failures mark a worker unhealthy
//     immediately rather than waiting for the next probe. A probe loop
//     lives exactly as long as its worker's membership.
//   - Robustness: per-cell retry with jittered backoff fails over to
//     the next healthy worker on the ring; straggler cells are hedged
//     onto the next replica after a delay (first result wins); a
//     worker-level circuit breaker (layered on the workers' own
//     per-benchmark breakers) stops hammering a sick worker; 429/503
//     Retry-After hints from shedding or draining workers are honored
//     as per-worker backoff windows. When every replica is exhausted a
//     cell degrades to a structured error entry — a grid response never
//     fails whole.
//   - Shared cache tier: every served cell's bytes are promoted into a
//     coordinator-side LRU, and a failover consults that tier — then
//     the surviving workers' own result caches over GET /v1/cache/{key}
//     — before recomputing, so a worker death stops costing
//     recomputation of everything it had already served. Cached bytes
//     are byte-identical to cold bytes (the documents are
//     deterministic), so the tier never changes a response.
//   - Streaming: /v1/grid?stream=jsonl (or sse) emits each cell as it
//     completes instead of buffering the whole grid; the buffered
//     default stays byte-identical to a single-node bschedd response.
//   - Durability: every finished cell is appended to a JSONL journal
//     recording which worker served it; -resume replays completed cells
//     through the same torn-tail-tolerant reader as every other journal
//     in the system, across topology changes.
//   - Drain: SIGTERM stops intake, finishes or cancels in-flight cells
//     on the workers (by canceling the dispatch requests), flushes the
//     journal and exits 0.
package fleet

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/server"
)

// Config parameterizes a Coordinator. The zero value of every field but
// Workers gets a sensible default from New.
type Config struct {
	// Workers are the initial worker daemons' host:port addresses. At
	// least one is required at startup; the fleet is elastic afterwards
	// (POST /v1/fleet/join and /v1/fleet/leave).
	Workers []string
	// VNodes is the number of virtual ring points per worker. Default 64.
	VNodes int
	// Inflight bounds concurrently dispatched cells per worker — the
	// bounded in-flight window that keeps one slow worker from absorbing
	// the whole grid. Default 8.
	Inflight int
	// Attempts bounds dispatch attempts per cell (across workers).
	// Default max(3, 2*len(Workers)).
	Attempts int
	// RetryBackoff is the base jittered backoff between a cell's
	// attempts; it doubles per retry up to 2s. Default 50ms.
	RetryBackoff time.Duration
	// HedgeAfter is how long a cell's first attempt may run before a
	// hedge attempt is dispatched to the next replica (first result
	// wins). 0 disables hedging. Default 2s.
	HedgeAfter time.Duration
	// ProbeInterval is the /readyz health-check cadence for a healthy
	// worker. Default 500ms.
	ProbeInterval time.Duration
	// ProbeMaxInterval caps the exponential probe backoff for an
	// unhealthy worker. Default 8s.
	ProbeMaxInterval time.Duration
	// ProbeTimeout bounds one health-check request. Default 1s.
	ProbeTimeout time.Duration
	// EvictAfterFails removes a worker from the fleet after this many
	// consecutive failed health probes (its probe loop stops, its keys
	// remap to the survivors). 0 disables eviction — dead workers stay
	// on the roster and are probed back into rotation if they revive.
	// The last member is never auto-evicted. Default 0.
	EvictAfterFails int
	// MinWorkers is the readiness quorum: /readyz answers 503 (naming
	// the down workers) while fewer than this many members are healthy.
	// Default 1.
	MinWorkers int
	// BreakerThreshold is the consecutive transport-level failures that
	// open a worker's circuit breaker. Default 3.
	BreakerThreshold int
	// BreakerCooldown is how long an open worker breaker waits before a
	// half-open probe dispatch. Default 5s.
	BreakerCooldown time.Duration
	// CacheEntries is the coordinator's shared result-cache tier
	// capacity (entries). Every served cell's bytes are promoted here;
	// failovers consult it before recomputing. Default 4096.
	CacheEntries int
	// PeerFetchTimeout bounds one GET /v1/cache/{key} peer-cache fetch
	// during failover. Default 750ms.
	PeerFetchTimeout time.Duration
	// DefaultDeadline is the per-request deadline when the client sets
	// none. Default 60s.
	DefaultDeadline time.Duration
	// MaxDeadline caps client-requested deadlines. Default 5m.
	MaxDeadline time.Duration
	// MaxBodyBytes caps request-body size (413 beyond it). Default 1 MiB.
	MaxBodyBytes int64
	// Journal, when non-empty, is the coordinator's JSONL cell journal:
	// every finished cell is appended with the worker that served it.
	Journal string
	// Resume preloads completed cells from Journal, so a restarted
	// coordinator replays them without dispatching — even when the
	// worker set has changed since they were served.
	Resume bool
	// MetricsPrefix prefixes every /metrics series. Default "bschedd_".
	MetricsPrefix string
	// Logger receives structured logs. Nil discards.
	Logger *slog.Logger
	// Client issues worker requests. Default: a transport sized to the
	// fleet's in-flight windows.
	Client *http.Client
}

// worker is the coordinator's view of one worker daemon.
type worker struct {
	addr string
	base string // "http://" + addr

	// brk is the worker-level circuit breaker: transport failures
	// (connection refused, resets, torn responses) trip it; any complete
	// HTTP response — even a 429 — proves the worker alive and closes it.
	brk *server.Breaker
	// sem is the bounded in-flight window.
	sem chan struct{}
	// healthy mirrors the last /readyz probe or dispatch outcome.
	healthy atomic.Bool
	// backoffUntil (unix nanos) honors the worker's Retry-After hints:
	// no new dispatches route to the worker before it.
	backoffUntil atomic.Int64
	// probeFails counts consecutive failed health probes.
	probeFails atomic.Int64
	// stop ends the worker's probe loop when it leaves or is evicted;
	// stopOnce makes Leave and eviction race-safe.
	stop     chan struct{}
	stopOnce sync.Once
}

func (w *worker) stopProbe() { w.stopOnce.Do(func() { close(w.stop) }) }

func (w *worker) backedOff(now time.Time) bool {
	return now.UnixNano() < w.backoffUntil.Load()
}

// backOff extends the worker's Retry-After window to now+d (never
// shrinking a longer window).
func (w *worker) backOff(now time.Time, d time.Duration) {
	until := now.Add(d).UnixNano()
	for {
		cur := w.backoffUntil.Load()
		if until <= cur || w.backoffUntil.CompareAndSwap(cur, until) {
			return
		}
	}
}

// Coordinator shards grid cells across an elastic worker fleet. Create
// with New.
type Coordinator struct {
	cfg     Config
	members *membership
	tier    *server.LRU // shared result-cache tier (cachetier.go)
	stats   *obs.SyncStats
	client  *http.Client
	jnl     *exp.JSONLWriter[CellRecord]
	resumed map[string][]byte

	reqSeq atomic.Uint64

	baseCtx    context.Context
	baseCancel context.CancelFunc

	probeCtx    context.Context
	probeCancel context.CancelFunc
	probeWG     sync.WaitGroup

	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup
	closeJnl sync.Once
	jnlErr   error
}

// New builds a coordinator over cfg.Workers and starts the health-probe
// loops. It returns an error when no workers are configured or the
// journal cannot be opened or resumed.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("fleet: no workers configured")
	}
	if cfg.VNodes <= 0 {
		cfg.VNodes = 64
	}
	if cfg.Inflight <= 0 {
		cfg.Inflight = 8
	}
	if cfg.Attempts <= 0 {
		cfg.Attempts = 2 * len(cfg.Workers)
		if cfg.Attempts < 3 {
			cfg.Attempts = 3
		}
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 50 * time.Millisecond
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = 2 * time.Second
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	if cfg.ProbeMaxInterval <= 0 {
		cfg.ProbeMaxInterval = 8 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.EvictAfterFails < 0 {
		cfg.EvictAfterFails = 0
	}
	if cfg.MinWorkers <= 0 {
		cfg.MinWorkers = 1
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 5 * time.Second
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 4096
	}
	if cfg.PeerFetchTimeout <= 0 {
		cfg.PeerFetchTimeout = 750 * time.Millisecond
	}
	if cfg.DefaultDeadline <= 0 {
		cfg.DefaultDeadline = 60 * time.Second
	}
	if cfg.MaxDeadline <= 0 {
		cfg.MaxDeadline = 5 * time.Minute
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.MetricsPrefix == "" {
		cfg.MetricsPrefix = "bschedd_"
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: cfg.Inflight + 2,
			IdleConnTimeout:     90 * time.Second,
		}}
	}

	jnl, err := exp.OpenJSONLWriter[CellRecord](cfg.Journal)
	if err != nil {
		return nil, err
	}
	var resumed map[string][]byte
	if cfg.Resume && cfg.Journal != "" {
		resumed, err = loadResume(cfg.Journal)
		if err != nil {
			return nil, err
		}
	}

	baseCtx, baseCancel := context.WithCancel(context.Background())
	probeCtx, probeCancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:         cfg,
		members:     newMembership(cfg.VNodes),
		tier:        server.NewLRU(cfg.CacheEntries),
		stats:       obs.NewSyncStats(),
		client:      client,
		jnl:         jnl,
		resumed:     resumed,
		baseCtx:     baseCtx,
		baseCancel:  baseCancel,
		probeCtx:    probeCtx,
		probeCancel: probeCancel,
	}
	for _, addr := range cfg.Workers {
		if err := validateWorkerAddr(addr); err != nil {
			probeCancel()
			baseCancel()
			return nil, err
		}
		w := c.newWorker(addr)
		// Workers start optimistically healthy: the first dispatch or the
		// first probe corrects the guess, and starting pessimistic would
		// reject the first grid to arrive before the probe loop's first
		// round trip.
		w.healthy.Store(true)
		if !c.members.add(w) {
			probeCancel()
			baseCancel()
			return nil, fmt.Errorf("fleet: duplicate worker address %q", addr)
		}
	}
	for _, w := range c.members.all() {
		c.startProbe(w)
	}
	if len(resumed) > 0 {
		cfg.Logger.Info("resume loaded", "cells", len(resumed), "journal", cfg.Journal)
	}
	return c, nil
}

// StatsSnapshot returns the coordinator's counter/histogram registry —
// the same data /metrics renders — for in-process consumers like the
// churn drill.
func (c *Coordinator) StatsSnapshot() *obs.Snapshot {
	return c.stats.Snapshot()
}

// probeLoop health-checks one worker until it leaves the fleet or the
// coordinator drains: steady ProbeInterval cadence while the worker
// answers /readyz 200, exponential backoff up to ProbeMaxInterval while
// it does not, eviction after EvictAfterFails consecutive failures.
func (c *Coordinator) probeLoop(w *worker) {
	defer c.probeWG.Done()
	interval := c.cfg.ProbeInterval
	for {
		timer := time.NewTimer(jitterDur(interval))
		select {
		case <-timer.C:
		case <-w.stop:
			timer.Stop()
			return
		case <-c.probeCtx.Done():
			timer.Stop()
			return
		}
		c.stats.Inc("fleet/probes")
		if c.probeOnce(w) {
			w.probeFails.Store(0)
			if !w.healthy.Swap(true) {
				c.stats.Inc("fleet/worker_up")
				c.cfg.Logger.Info("worker recovered", "worker", w.addr)
			}
			interval = c.cfg.ProbeInterval
		} else {
			fails := w.probeFails.Add(1)
			if w.healthy.Swap(false) {
				c.stats.Inc("fleet/worker_down")
				c.cfg.Logger.Warn("worker unhealthy", "worker", w.addr)
			}
			if c.cfg.EvictAfterFails > 0 && fails >= int64(c.cfg.EvictAfterFails) && c.evict(w) {
				return
			}
			interval *= 2
			if interval > c.cfg.ProbeMaxInterval {
				interval = c.cfg.ProbeMaxInterval
			}
		}
	}
}

// probeOnce asks one worker for readiness: only a 200 /readyz counts —
// a draining or breaker-saturated worker answers 503 and takes no new
// cells until it recovers.
func (c *Coordinator) probeOnce(w *worker) bool {
	ctx, cancel := context.WithTimeout(c.probeCtx, c.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// healthyCount reports how many members currently look dispatchable.
func (c *Coordinator) healthyCount() int {
	n := 0
	for _, w := range c.members.all() {
		if w.healthy.Load() {
			n++
		}
	}
	return n
}

// downWorkers lists the members that are currently unhealthy, sorted.
func (c *Coordinator) downWorkers() []string {
	var out []string
	for _, w := range c.members.all() {
		if !w.healthy.Load() {
			out = append(out, w.addr)
		}
	}
	return out
}

// pickFrom returns the first eligible worker scanning the cell's replica
// order from rotation offset rot — healthy and not inside a Retry-After
// window — plus the next eligible worker after it (the hedge target).
func (c *Coordinator) pickFrom(order []*worker, rot int, now time.Time) (w, next *worker) {
	for i := 0; i < len(order); i++ {
		cand := order[(rot+i)%len(order)]
		if !cand.healthy.Load() || cand.backedOff(now) {
			continue
		}
		if w == nil {
			w = cand
		} else if cand != w {
			return w, cand
		}
	}
	return w, nil
}

// enter registers a request; it fails once draining has begun.
func (c *Coordinator) enter() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return false
	}
	c.inflight.Add(1)
	return true
}

func (c *Coordinator) leave() { c.inflight.Done() }

func (c *Coordinator) isDraining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// StartDrain flips the coordinator into draining mode: /readyz goes
// not-ready and new requests are rejected with 503. In-flight grids
// keep dispatching.
func (c *Coordinator) StartDrain() {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
	c.probeCancel()
}

// Drain gracefully shuts the coordinator down: stop admitting, stop
// probing, let in-flight grids finish — and when ctx expires first,
// cancel their worker dispatches so they finish promptly with degraded
// cells — then flush and close the cell journal. The returned error is
// the journal's.
func (c *Coordinator) Drain(ctx context.Context) error {
	c.StartDrain()
	done := make(chan struct{})
	go func() {
		c.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		c.baseCancel()
		<-done
	}
	c.probeWG.Wait()
	c.closeJnl.Do(func() { c.jnlErr = c.jnl.Close() })
	return c.jnlErr
}

// jitterDur spreads d over [0.75d, 1.25d) so fleet-wide timers (probes,
// retries) do not synchronize.
func jitterDur(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d - d/4 + rand.N(d/2+1)
}

// sleepCtx sleeps for d or until ctx dies; it reports whether the full
// sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}
