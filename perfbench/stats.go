package main

import (
	"bufio"
	"errors"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	reasons []string // first failure reasons, for standard error
	samples string   // latency sample counts, for the human-readable lines
}

func newReport() *report { return &report{Metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// tally counts checked operations and keeps the first few failure
// reasons for standard error. Safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	reasons   []string
}

func (t *tally) ok() { t.add(true, "") }

// add records one operation; a failed one carries its reason.
func (t *tally) add(ok bool, reason string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if !ok {
		t.failLocked(reason)
	}
}

// fail turns an operation that was already counted as attempted into a
// failed one (a later check found its output wrong).
func (t *tally) fail(reason string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failLocked(reason)
}

func (t *tally) failLocked(reason string) {
	t.failed++
	if len(t.reasons) < 8 {
		t.reasons = append(t.reasons, reason)
	}
}

func (t *tally) fill(r *report) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r.Attempted, r.Failed = t.attempted, t.failed
	r.Correct = t.failed == 0 && t.attempted > 0
	r.reasons = append(r.reasons, t.reasons...)
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q < 1).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads the process's peak resident set (VmHWM) from procfs.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// rtSample is a runtime/metrics reading: cumulative heap allocation and
// the runtime's CPU-time estimates.
type rtSample struct {
	allocBytes    float64
	gcCPU, allCPU float64
}

func readRuntime() rtSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{allocBytes: val(0), gcCPU: val(1), allCPU: val(2)}
}

// runtimeDelta reports allocation per cell (MB) and the GC's share of CPU
// time between two samples.
func runtimeDelta(a, b rtSample, cells int) (allocMBPerCell, gcFrac float64) {
	if cells > 0 {
		allocMBPerCell = (b.allocBytes - a.allocBytes) / float64(cells) / (1 << 20)
	}
	if d := b.allCPU - a.allCPU; d > 0 {
		gcFrac = (b.gcCPU - a.gcCPU) / d
	}
	return allocMBPerCell, gcFrac
}

// setupTimer times a workload's set-up on fresh state, after a full
// GC each time, timing only the set-up itself. A run times one round
// before its measured phase and one after, so setup_s, the median over
// both, samples the host's load at both ends of the run.
type setupTimer struct {
	setup func() (release func(), err error)
	secs  []float64
}

// round runs setup at least setupReps times and until the round's
// set-ups add up to setupTime. Every repetition but the last is released
// at once; the last one's release func (never nil) is returned for the
// caller, whose measured phase may run on that state.
func (s *setupTimer) round() (func(), error) {
	release := func() {}
	var total time.Duration
	for n := 0; n < setupReps || total < setupTime; n++ {
		release()
		runtime.GC()
		start := time.Now()
		rel, err := s.setup()
		d := time.Since(start)
		s.secs = append(s.secs, d.Seconds())
		total += d
		if rel == nil {
			rel = func() {}
		}
		if err != nil {
			rel()
			return nil, err
		}
		release = rel
	}
	return release, nil
}

func (s *setupTimer) median() float64 { return median(s.secs) }
