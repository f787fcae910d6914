// Command avbench is the repository's benchmark. It hosts serve.New
// behind a loopback HTTP listener in its own process, drives it with its
// own request generator, checks every distinct response against an
// in-process heap reference, and prints each metric by name with its
// unit, then one JSON result line.
//
// Run it from the repository root through the wrapper, which builds it
// from the checkout first:
//
//	bash avbench/run.sh --workload warm-mix --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics from untraced phases; --trace 1
// reports the per-layer metrics from a traced phase (and the tracing
// overhead), writing the spans to .bench_build/avbench/traces/. See
// README.md for the workloads and what each metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// watchdog bounds a whole run, however the server behaves.
const watchdog = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("avbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "repository checkout; scratch files go under <root>/.bench_build/avbench")
	name := fs.String("workload", "", "workload to run: warm-mix, snapshot-churn or cold-build")
	seed := fs.Int64("seed", 1, "workload seed: study seeds and the request schedule derive from it")
	seconds := fs.Int("seconds", 30, "length of the measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from untraced phases; 1: per-layer metrics from a traced phase")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		if err == nil {
			err = fmt.Errorf("bad -seconds %d or -trace %d", *seconds, *trace)
		}
		fmt.Fprintln(stderr, "avbench:", err)
		return 2
	}
	base := filepath.Join(*root, ".bench_build", "avbench")
	scratch := filepath.Join(base, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "avbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	timer := time.AfterFunc(watchdog, func() {
		fmt.Fprintf(stderr, "avbench: run exceeded %v\n", watchdog)
		os.RemoveAll(scratch)
		os.Exit(1)
	})
	defer timer.Stop()

	r, err := newRunner(w, *seed, float64(*seconds), scratch, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "avbench:", err)
		return 1
	}
	ctx := context.Background()
	var metrics map[string]float64
	var defs []metricDef
	if *trace == 1 {
		defs = perLayer
		metrics, err = r.runTraced(ctx, filepath.Join(base, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed)), stderr)
	} else {
		defs = endToEnd
		metrics, err = r.runEndToEnd(ctx, stderr)
	}
	if terr := r.teardown(); err == nil {
		err = terr
	}
	if err != nil {
		fmt.Fprintln(stderr, "avbench:", err)
		return 1
	}

	failed, problems := r.gate(stderr)
	res := result{
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load() + int64(failed),
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	res.Correct = res.Failed == 0
	for _, p := range append(r.errs, problems...) {
		fmt.Fprintln(stderr, "avbench: check failed:", p)
	}
	fmt.Fprintf(stdout, "# workload %s seed %d seconds %d trace %d concurrency %d\n", w.name, *seed, *seconds, *trace, r.conc)
	for _, d := range defs {
		v := metrics[d.name]
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "%-46s %16.6g %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(stdout, "# correct %v: %d operations attempted, %d failed\n", res.Correct, res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "avbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runEndToEnd sets the server up setupRuns times, then measures on the
// last set-up, untraced, the workload's trials: each a closed-loop phase
// followed by an open-loop phase. Each metric is the median over the
// set-ups or trials, so that a burst of contention from outside the
// process moves one trial rather than the result.
func (r *runner) runEndToEnd(ctx context.Context, log io.Writer) (map[string]float64, error) {
	setups := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		if err := r.teardown(); err != nil {
			return nil, err
		}
		if i > 0 {
			if err := os.RemoveAll(filepath.Join(r.scratch, fmt.Sprintf("serve%d", i-1))); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if err := r.setup(ctx, i); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	closedD, openD := r.phases()
	closedGen := newGenerator(r.w, r.seed, phaseClosed)
	openGen := newGenerator(r.w, r.seed, phaseOpen)
	var rps, cpu, p50s, tails, lags []float64
	requests := 0
	rss := startRSS()
	for t := 0; t < r.w.trials; t++ {
		cr := r.closedLoop(ctx, closedGen, closedD)
		if cr.ok == 0 {
			rss.finish()
			return nil, fmt.Errorf("closed loop completed no request")
		}
		rps = append(rps, cr.rps)
		cpu = append(cpu, ms(cr.cpu)/float64(cr.ok))
		or := r.openLoop(ctx, openGen, openD)
		requests += len(or.latency)
		lags = append(lags, maxOf(or.lag))
		p50, err := percentile(or.latency, 50)
		if err != nil {
			rss.finish()
			return nil, fmt.Errorf("open loop: %w", err)
		}
		tail, err := percentile(or.latency, r.w.tail)
		if err != nil {
			rss.finish()
			return nil, fmt.Errorf("open loop: %w", err)
		}
		p50s, tails = append(p50s, p50), append(tails, tail)
	}
	peak := rss.finish()
	snapBytes, err := snapshotBytesPerStudy(r.serveDir)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "avbench: %s: set-ups %.3f s; %d trials of a %v closed loop (c=%d) and a %v open loop (%g/s, tail p%d); %d open-loop requests; gen lag max %.3f ms\n",
		r.w.name, setups, r.w.trials, closedD, r.conc, openD, r.w.rate, r.w.tail, requests, maxOf(lags))
	return map[string]float64{
		"setup_s":                  median(setups),
		"throughput_rps":           median(rps),
		"latency_p50_ms":           median(p50s),
		"latency_tail_ms":          median(tails),
		"cpu_ms_per_req":           median(cpu),
		"rss_peak_mb":              float64(peak) / (1 << 20),
		"snapshot_bytes_per_study": snapBytes,
	}, nil
}

// phases returns the length of one trial's closed- and open-loop phases:
// the measured window split into the workload's trials, and each trial
// by the workload's closed share.
func (r *runner) phases() (closed, open time.Duration) {
	trial := time.Duration(r.seconds * float64(time.Second) / float64(r.w.trials))
	closed = time.Duration(float64(trial) * r.w.closedShare)
	return closed, trial - closed
}

// runTraced sets the server up once with tracing on, probes the cache
// tiers, then runs three equal phases: an untraced closed loop (the
// baseline for tracing overhead, and the runtime and cache counters), a
// traced closed loop whose requests are replayed layer by layer, and an
// untraced open loop for generator lag. It writes the spans to tracePath.
func (r *runner) runTraced(ctx context.Context, tracePath string, log io.Writer) (map[string]float64, error) {
	r.tr.on.Store(true)
	if err := r.setup(ctx, 0); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	warm := coldSeed(r.seed, phaseWarmup, 0)
	if r.w.pool > 0 {
		warm = r.pool[0]
	}
	if err := r.probe(ctx, warm); err != nil {
		return nil, err
	}
	r.tr.on.Store(false)
	third := time.Duration(r.seconds * float64(time.Second) / 3)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := r.st.srv.CacheStats()
	plain := r.closedLoop(ctx, newGenerator(r.w, r.seed, phaseClosed), third)
	c1 := r.st.srv.CacheStats()
	runtime.ReadMemStats(&m1)

	r.tr.on.Store(true)
	traced := r.closedLoop(ctx, newGenerator(r.w, r.seed, phaseTraced), third)
	r.tr.on.Store(false)

	or := r.openLoop(ctx, newGenerator(r.w, r.seed, phaseOpen), third)
	if plain.ok == 0 || traced.ok == 0 || len(or.lag) == 0 {
		return nil, fmt.Errorf("a traced-run phase completed no request")
	}
	if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
		return nil, err
	}
	if err := r.tr.write(tracePath); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "avbench: %s: %d spans written to %s; throughput untraced %.4g/s, traced %.4g/s\n",
		r.w.name, len(r.tr.spans), tracePath, plain.rps, traced.rps)

	lookups := (c1.Hits + c1.Misses) - (c0.Hits + c0.Misses)
	extra := map[string]float64{
		"cache.hit_ratio":              float64(c1.Hits-c0.Hits) / float64(max(lookups, 1)),
		"cache.evictions_per_req":      float64(c1.Evictions-c0.Evictions) / float64(plain.ok),
		"runtime.alloc_bytes_per_req":  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(plain.ok),
		"runtime.gc_cycles_per_1k_req": 1000 * float64(m1.NumGC-m0.NumGC) / float64(plain.ok),
		"gen.lag_max_ms":               maxOf(or.lag),
		"trace.throughput_ratio":       traced.rps / plain.rps,
	}
	return perLayerMetrics(r.tr, extra)
}

// maxOf returns the largest value, or 0 for none.
func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
