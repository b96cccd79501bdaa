package main

import (
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/workload"
)

// The benchmark derives every input from --seed; the program under test
// only ever sees the generated names, configurations and corpora.

// primeConfig is the configuration set-up compiles once per benchmark to
// build the serving layer's front-ends. The cold streams never use it,
// so no timed request is served from a cache that set-up filled.
const primeConfig = "TS"

// newRNG returns the stream of random choices for one input family; the
// salt keeps families independent under the same seed.
func newRNG(seed, salt uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, salt))
}

// benchNames lists the seventeen paper analogs in a seed-shuffled order.
func benchNames(seed uint64) []string {
	var names []string
	for _, b := range workload.All() {
		names = append(names, b.Name)
	}
	r := newRNG(seed, 1)
	r.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return names
}

// configSpace is every configuration the serving layer accepts that the
// benchmark draws from: four weight policies × {LA, PF, LICM, TrS} ×
// unroll factor {off, 2, 4, 8, 16}, minus primeConfig — 319 names.
// Unroll factors that are not powers of two are left out: lowering
// rejects them on some analogs ("% by 3 (need positive power of two)"
// on tomcatv), and a benchmark workload must not fail.
func configSpace() []string {
	var names []string
	for _, pol := range []string{"TS", "BS", "BF", "AUTO"} {
		for mask := 0; mask < 16; mask++ {
			for _, lu := range []int{0, 2, 4, 8, 16} {
				cfg, err := core.ParseConfig(pol)
				if err != nil {
					panic(err) // constant input
				}
				cfg.Locality = mask&1 != 0
				cfg.Prefetch = mask&2 != 0
				cfg.LICM = mask&4 != 0
				cfg.Trace = mask&8 != 0
				cfg.Unroll = lu
				if name := cfg.Name(); name != primeConfig {
					names = append(names, name)
				}
			}
		}
	}
	return names
}

// cell is one (benchmark, configuration) pair.
type cell struct {
	Bench, Config string
}

// cellStream is a seeded, never-repeating sequence of cells: benchmarks
// in round-robin (so every prefix mixes cheap and expensive analogs in
// the same proportion, whatever the seed), each walking its own seeded
// permutation of configSpace.
type cellStream struct {
	benches []string
	perms   map[string][]string
}

func newCellStream(seed uint64) *cellStream {
	s := &cellStream{benches: benchNames(seed), perms: map[string][]string{}}
	r := newRNG(seed, 2)
	for _, b := range s.benches {
		p := configSpace()
		r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
		s.perms[b] = p
	}
	return s
}

// at returns the i-th cell of the stream (i below len).
func (s *cellStream) at(i int) cell {
	b := s.benches[i%len(s.benches)]
	return cell{Bench: b, Config: s.perms[b][i/len(s.benches)]}
}

func (s *cellStream) len() int { return len(s.benches) * len(s.perms[s.benches[0]]) }

// gridConfigs is the number of configurations in a fleet grid: small
// enough that a 20 s run takes several hundred cold grids.
const gridConfigs = 2

// grid returns the k-th fleet grid: one benchmark × gridConfigs
// configurations never requested before. A grid's cells live on one
// worker (the fleet shards by benchmark), so its latency does not depend
// on how the ring happens to split the analogs between the workers this
// run.
func (s *cellStream) grid(k int) (bench string, configs []string) {
	b := s.benches[k%len(s.benches)]
	i := gridConfigs * (k / len(s.benches))
	return b, s.perms[b][i : i+gridConfigs]
}

func (s *cellStream) grids() int {
	return len(s.benches) * (len(s.perms[s.benches[0]]) / gridConfigs)
}
