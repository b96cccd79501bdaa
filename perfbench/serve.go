package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// The serving workloads talk to in-process servers over loopback TCP,
// the path a bschedd client takes. Latency is timed per request, from
// send to the last body byte.

// coldShare is the part of a serving run's seconds spent on the cold
// stream; the rest replays the warm set.
const coldShare = 0.6

// response is one HTTP exchange as the benchmark saw it.
type response struct {
	status int
	cache  string // X-Cache
	body   []byte
	lat    time.Duration
}

// poster sends one JSON POST: over loopback, or straight into a handler.
type poster func(path string, v any) (response, error)

// loopback returns a poster for base over a keep-alive client, and the
// func that closes the client's idle connections.
func loopback(base string, conns int) (poster, func()) {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, DisableCompression: true}
	c := &http.Client{Transport: tr}
	post := func(path string, v any) (response, error) {
		data, err := json.Marshal(v)
		if err != nil {
			return response{}, err
		}
		t0 := time.Now()
		resp, err := c.Post(base+path, "application/json", bytes.NewReader(data))
		if err != nil {
			return response{}, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return response{}, err
		}
		return response{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: body, lat: time.Since(t0)}, nil
	}
	return post, tr.CloseIdleConnections
}

// inProcess returns a poster that calls h directly, with no network.
func inProcess(h http.Handler) poster {
	return func(path string, v any) (response, error) {
		data, err := json.Marshal(v)
		if err != nil {
			return response{}, err
		}
		t0 := time.Now()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data)))
		return response{status: rec.Code, cache: rec.Header().Get("X-Cache"), body: rec.Body.Bytes(), lat: time.Since(t0)}, nil
	}
}

// httpServer is one in-process server listening on a loopback port.
type httpServer struct {
	addr string
	hsrv *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{addr: ln.Addr().String(), hsrv: server.NewHTTPServer(h, time.Second), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.hsrv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

func (s *httpServer) base() string { return "http://" + s.addr }

// close stops accepting, waits for in-flight requests and for the serve
// goroutine to end.
func (s *httpServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.hsrv.Shutdown(ctx)
	<-s.done
}

// worker is a bschedd worker: a server.Server behind its listener.
type worker struct {
	srv *server.Server
	*httpServer
}

func startWorker(cfg server.Config) (*worker, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	hs, err := listen(srv.Handler())
	if err != nil {
		return nil, err
	}
	return &worker{srv: srv, httpServer: hs}, nil
}

func (w *worker) close() {
	w.httpServer.close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = w.srv.Drain(ctx) // no journal configured: nothing to flush
}

// waitReady polls GET /readyz until it answers 200.
func waitReady(base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 10s (last error %v)", base, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// closedLoop runs clients that each send their next operation only after
// the previous one completed, until n operations have started or the
// deadline (zero: none) has passed. op performs operation i and reports
// whether it succeeded; the latencies of successful operations come back
// in milliseconds.
func closedLoop(clients, n int, deadline time.Time, op func(i int) (time.Duration, bool)) []float64 {
	var next atomic.Int64
	var mu sync.Mutex
	var lats []float64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []float64
			for {
				i := int(next.Add(1) - 1)
				if i >= n || (!deadline.IsZero() && time.Now().After(deadline)) {
					break
				}
				if d, ok := op(i); ok {
					mine = append(mine, ms(d))
				}
			}
			mu.Lock()
			lats = append(lats, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return lats
}

// checkCell checks one /v1/compile response: 200, the expected X-Cache,
// and either the bytes of the cold response (want) or, for a cold one, a
// result document for the requested cell.
func checkCell(c cell, resp response, err error, cache string, want []byte) error {
	switch {
	case err != nil:
		return fmt.Errorf("%v: %w", c, err)
	case resp.status != http.StatusOK:
		return fmt.Errorf("%v: status %d: %s", c, resp.status, bytes.TrimSpace(resp.body))
	case resp.cache != cache:
		return fmt.Errorf("%v: X-Cache %q, want %q", c, resp.cache, cache)
	case want != nil:
		if !bytes.Equal(resp.body, want) {
			return fmt.Errorf("%v: warm bytes differ from cold bytes", c)
		}
		return nil
	}
	var doc server.ResultDoc
	if err := json.Unmarshal(resp.body, &doc); err != nil {
		return fmt.Errorf("%v: %w", c, err)
	}
	if doc.Bench != c.Bench || doc.Config != c.Config || doc.Metrics == nil || doc.Metrics.Cycles <= 0 {
		return fmt.Errorf("%v: response is for %s/%s", c, doc.Bench, doc.Config)
	}
	return nil
}

// cycles reads the simulated cycle count out of a result document.
func cycles(body []byte) int64 {
	var doc server.ResultDoc
	if json.Unmarshal(body, &doc) != nil || doc.Metrics == nil {
		return -1
	}
	return doc.Metrics.Cycles
}

// prime compiles primeConfig once per benchmark, building every
// front-end the server will need.
func prime(post poster, benches []string, clients int) error {
	errs := make([]error, len(benches))
	closedLoop(clients, len(benches), time.Time{}, func(i int) (time.Duration, bool) {
		c := cell{benches[i], primeConfig}
		resp, err := post("/v1/compile", server.CompileRequest{Bench: c.Bench, Config: c.Config})
		errs[i] = checkCell(c, resp, err, "miss", nil)
		return resp.lat, errs[i] == nil
	})
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("priming: %w", err)
		}
	}
	return nil
}

// startServe is the serve workload's set-up: a server on loopback,
// ready, with every analog's front-end built.
func startServe(st *cellStream, clients int, cfg server.Config) (*worker, poster, func(), error) {
	w, err := startWorker(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	post, closeIdle := loopback(w.base(), clients)
	release := func() {
		closeIdle()
		w.close()
	}
	if err := waitReady(w.base()); err != nil {
		release()
		return nil, nil, nil, err
	}
	if err := prime(post, st.benches, clients); err != nil {
		release()
		return nil, nil, nil, err
	}
	return w, post, release, nil
}

// serveClients is the serve workload's closed loop: one client, so a
// request's latency is the server's work alone and never waits behind
// the benchmark's own second client for the host's CPUs.
const serveClients = 1

// runServe is the serve workload: a closed loop of serveClients sends
// the seeded cold stream (every cell new to the server) for coldShare of
// the run, then replays a hot set of the last cold cells, which the
// 256-entry LRU still holds, for the rest.
func runServe(e *env) (*report, error) {
	st := newCellStream(e.seed)
	var post poster
	su := &setupTimer{setup: func() (func(), error) {
		_, p, rel, err := startServe(st, serveClients, server.Config{})
		post = p
		return rel, err
	}}
	release, err := su.round()
	if err != nil {
		return nil, err
	}
	defer release()

	t := &tally{}
	bodies := make([][]byte, st.len())
	var mu sync.Mutex
	var served []int // cold cells in completion order
	cold := func(i int) (time.Duration, bool) {
		c := st.at(i)
		resp, err := post("/v1/compile", server.CompileRequest{Bench: c.Bench, Config: c.Config})
		if err := checkCell(c, resp, err, "miss", nil); err != nil {
			t.add(false, err.Error())
			return 0, false
		}
		t.ok()
		bodies[i] = resp.body
		mu.Lock()
		served = append(served, i)
		mu.Unlock()
		return resp.lat, true
	}
	warmup := 2 * len(st.benches)
	closedLoop(serveClients, warmup, time.Time{}, cold)

	start := time.Now()
	coldLat := closedLoop(serveClients, st.len()-warmup, start.Add(time.Duration(coldShare*float64(e.seconds))),
		func(i int) (time.Duration, bool) { return cold(warmup + i) })
	coldWall := time.Since(start)

	hot := append([]int(nil), served[max(0, len(served)-64):]...)
	newRNG(e.seed, 4).Shuffle(len(hot), func(i, j int) { hot[i], hot[j] = hot[j], hot[i] })
	warmLat := closedLoop(serveClients, math.MaxInt, time.Now().Add(e.seconds-coldWall), func(i int) (time.Duration, bool) {
		k := hot[i%len(hot)]
		c := st.at(k)
		resp, err := post("/v1/compile", server.CompileRequest{Bench: c.Bench, Config: c.Config})
		if err := checkCell(c, resp, err, "hit", bodies[k]); err != nil {
			t.add(false, err.Error())
			return 0, false
		}
		t.ok()
		return resp.lat, true
	})

	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	// The second round of set-ups, after the peak memory is read (its
	// servers run beside the measured one); they are released at once.
	rel, err := su.round()
	if err != nil {
		return nil, err
	}
	rel()
	r := newReport()
	t.fill(r)
	r.set("setup_s", su.median(), "s")
	r.set("cells_per_s", float64(len(coldLat))/coldWall.Seconds(), "1/s")
	r.set("peak_rss_mb", rss, "MB")
	latencies(r, coldLat, warmLat)
	return r, nil
}

// latencies reports the cold median and 95th percentile and the warm
// median. The warm 95th percentile, a fraction of a millisecond, moved
// with the host's load by up to 38% between runs, beyond any bound the
// benchmark may set, so it is printed for reading but is not a metric.
func latencies(r *report, cold, warm []float64) {
	r.set("cold_p50_ms", median(cold), "ms")
	r.set("cold_p95_ms", percentile(cold, 0.95), "ms")
	r.set("warm_p50_ms", median(warm), "ms")
	r.samples = fmt.Sprintf("%d cold and %d warm latency samples; warm p95 %.4f ms",
		len(cold), len(warm), percentile(warm, 0.95))
}

// traceServe is the serve workload's traced run, single-threaded: one
// set of cold cells over loopback and another straight into the
// handler, then both again warm; then the layer driver compiles every
// one of those cells, whose cycles must equal the served documents'.
// Tracing overhead is the driver's time on the in-process cells minus
// the handler's.
func traceServe(e *env, sz size, l *layers, r *report) error {
	st := newCellStream(e.seed)
	w, post, release, err := startServe(st, 1, server.Config{})
	if err != nil {
		return err
	}
	defer release()
	direct := inProcess(w.srv.Handler())
	t := &tally{}
	n := sz.serveRounds * len(st.benches)
	bodies := make([][]byte, 2*n)
	var hits, total, shed int
	pass := func(p poster, from int, cache string) (lats []float64, wall time.Duration) {
		start := time.Now()
		for i := from; i < from+n; i++ {
			c := st.at(i)
			resp, err := p("/v1/compile", server.CompileRequest{Bench: c.Bench, Config: c.Config})
			total++
			if resp.cache == "hit" {
				hits++
			}
			if resp.status == http.StatusTooManyRequests {
				shed++
			}
			if err := checkCell(c, resp, err, cache, bodies[i]); err != nil {
				t.add(false, err.Error())
				continue
			}
			t.ok()
			bodies[i] = resp.body
			lats = append(lats, ms(resp.lat))
		}
		return lats, time.Since(start)
	}
	rt0 := readRuntime()
	httpCold, _ := pass(post, 0, "miss")
	alloc, gc := runtimeDelta(rt0, readRuntime(), n)
	handlerCold, handlerWall := pass(direct, n, "miss")
	httpWarm, _ := pass(post, 0, "hit")
	handlerWarm, _ := pass(direct, n, "hit")
	r.set("server.http_ms", median(httpCold), "ms")
	r.set("server.handler_ms", median(handlerCold), "ms")
	r.set("server.http_warm_ms", median(httpWarm), "ms")
	r.set("server.handler_warm_ms", median(handlerWarm), "ms")
	r.set("server.cache_hit_ratio", float64(hits)/float64(total), "ratio")
	r.set("server.shed", float64(shed), "count")
	r.set("runtime.alloc_mb_per_cell", alloc, "MB")
	r.set("runtime.gc_cpu_frac", gc, "ratio")

	// The driver compiles the cells in the server's order, so its edge
	// profile cache hits where the server's did; its time on the
	// in-process half lines up with the handler pass for the overhead.
	cells := make([]cell, 2*n)
	want := make([]int64, 2*n)
	for i := range cells {
		cells[i], want[i] = st.at(i), cycles(bodies[i])
	}
	traced, err := driveCells(l, t, r, cells, want, n)
	if err != nil {
		return err
	}
	r.set("tracing.overhead_ms", ms(traced-handlerWall), "ms")
	t.fill(r)
	return nil
}
