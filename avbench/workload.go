package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"
	"sync"
)

// mixOp is one weighted operation of the request mix.
type mixOp struct {
	name   string
	weight int
	path   string
}

// defaultMix is a copy of avload's "default" mix, names and weights
// unchanged. It is copied rather than imported from internal/loadgen so
// that a change to the load generator cannot move this benchmark.
var defaultMix = []mixOp{
	{"events-recent", 20, "/v1/studies/{seed}/disengagements?limit=50"},
	{"events-mfr", 10, "/v1/studies/{seed}/disengagements?mfr=waymo&limit=50"},
	{"events-filtered", 8, "/v1/studies/{seed}/disengagements?category=ml%2Fdesign&weather=raining&limit=100"},
	{"events-window", 7, "/v1/studies/{seed}/disengagements?from=2015-01&to=2015-12&limit=100"},
	{"events-paged", 10, "/v1/studies/{seed}/disengagements?offset={offset}&limit=100"},
	{"groupby-tag", 10, "/v1/studies/{seed}/groupby?by=tag"},
	{"groupby-category", 5, "/v1/studies/{seed}/groupby?by=category&mfr=waymo"},
	{"groupby-road", 5, "/v1/studies/{seed}/groupby?by=road&modality=automatic"},
	{"reliability", 15, "/v1/studies/{seed}/metrics/reliability"},
	{"accidents", 7, "/v1/studies/{seed}/accidents?limit=50"},
	{"table-i", 2, "/v1/studies/{seed}/tables/i"},
	{"table-vii", 1, "/v1/studies/{seed}/tables/vii"},
}

// mixWeight is the sum of the mix weights.
var mixWeight = func() int {
	sum := 0
	for _, op := range defaultMix {
		sum += op.weight
	}
	return sum
}()

// workload is one traffic shape the benchmark runs. The open-loop rates
// are constants, set at about half of the closed-loop capacity measured
// at the commit that introduced the benchmark (2 CPUs); they are never
// derived at run time, so a faster commit sees the same offered load.
type workload struct {
	name string
	// pool is the number of study seeds requests draw from uniformly;
	// 0 means every request names a seed the server has never seen.
	pool int
	// cache is the server's study-cache capacity.
	cache int
	// rate is the open-loop arrival rate in requests per second.
	rate float64
	// trials is how many closed-loop and open-loop phase pairs the
	// measured window is split into.
	trials int
	// closedShare is the share of each trial spent in the closed-loop
	// phase; the rest is the open-loop phase.
	closedShare float64
	// tail is the percentile reported as latency_tail_ms: the highest of
	// p99, p90 and p75 that one trial's open-loop sample count supports
	// with at least ten samples beyond it in a 30-second run.
	tail int
}

// workloads lists the benchmark's workloads; see README.md for why each
// exists and which layers it stresses.
var workloads = []workload{
	{name: "warm-mix", pool: 2, cache: 2, rate: 850, trials: 6, closedShare: 0.5, tail: 99},
	{name: "snapshot-churn", pool: 6, cache: 2, rate: 600, trials: 6, closedShare: 0.5, tail: 99},
	{name: "cold-build", pool: 0, cache: 2, rate: 1.8, trials: 1, closedShare: 0.25, tail: 75},
}

// workloadByName finds a workload.
func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q: want one of %s", name, strings.Join(names, ", "))
}

// Phases of a run. Each has its own request stream, so the open-loop
// sequence does not depend on how many requests the closed loop consumed.
const (
	phaseWarmup = iota
	phaseClosed
	phaseOpen
	phaseTraced
)

// streamSeed derives an independent random stream from the workload
// seed, the workload name and a stream label.
func streamSeed(seed int64, name, stream string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s", name, stream)
	return seed ^ int64(h.Sum64()>>1)
}

// poolSeeds returns the workload's study seeds: n distinct values below
// 2^20, derived from the workload seed.
func poolSeeds(w workload, seed int64) []int64 {
	rng := rand.New(rand.NewSource(streamSeed(seed, w.name, "pool")))
	seen := make(map[int64]bool)
	out := make([]int64, 0, w.pool)
	for len(out) < w.pool {
		s := 1 + rng.Int63n(1<<20-1)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// coldSeed returns the i-th never-seen study seed of a cold-build phase.
// Cold seeds start at 2^24 (above every pool seed) and each phase owns a
// block of 2^20, so no seed repeats within a run.
func coldSeed(seed int64, phase int, i int64) int64 {
	base := (seed&(1<<20-1) + 1) << 24
	return base + int64(phase)<<20 + i
}

// request is one generated request.
type request struct {
	op   int // index into defaultMix
	seed int64
	path string
}

// generator produces a workload's deterministic request sequence.
type generator struct {
	mu   sync.Mutex
	rng  *rand.Rand
	pool []int64 // nil for cold-build

	seed  int64
	phase int
	n     int64 // requests generated so far
}

// newGenerator returns the request stream for one phase of a run.
func newGenerator(w workload, seed int64, phase int) *generator {
	g := &generator{
		rng:   rand.New(rand.NewSource(streamSeed(seed, w.name, "phase"+strconv.Itoa(phase)))),
		seed:  seed,
		phase: phase,
	}
	if w.pool > 0 {
		g.pool = poolSeeds(w, seed)
	}
	return g
}

// next returns the next request of the stream.
func (g *generator) next() request {
	g.mu.Lock()
	defer g.mu.Unlock()
	op := pickOp(g.rng.Intn(mixWeight))
	var study int64
	if g.pool != nil {
		study = g.pool[g.rng.Intn(len(g.pool))]
	} else {
		study = coldSeed(g.seed, g.phase, g.n)
	}
	g.n++
	path := strings.ReplaceAll(defaultMix[op].path, "{seed}", strconv.FormatInt(study, 10))
	if strings.Contains(path, "{offset}") {
		path = strings.ReplaceAll(path, "{offset}", strconv.Itoa(50*g.rng.Intn(20)))
	}
	return request{op: op, seed: study, path: path}
}

// pickOp maps u in [0, mixWeight) to the op owning that weight slot.
func pickOp(u int) int {
	for i, op := range defaultMix {
		if u < op.weight {
			return i
		}
		u -= op.weight
	}
	return len(defaultMix) - 1
}

// opRequest returns a fixed request for one op against one study, used
// to warm every op up before timing.
func opRequest(op int, study int64) request {
	path := strings.ReplaceAll(defaultMix[op].path, "{seed}", strconv.FormatInt(study, 10))
	path = strings.ReplaceAll(path, "{offset}", "0")
	return request{op: op, seed: study, path: path}
}
