package main

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"avfda/internal/serve"
	"avfda/internal/snapshot2"
)

// setupRuns is how many times an untraced run sets the server up; it
// reports the median and measures on the last one.
const setupRuns = 3

// maxInFlight bounds the open loop's outstanding requests; past it the
// generator falls behind schedule, which gen lag reports.
const maxInFlight = 256

// runner executes one run of one workload.
type runner struct {
	w       workload
	seed    int64
	seconds float64
	conc    int
	scratch string  // per-run scratch directory, removed at exit
	tr      *tracer // nil in untraced runs

	pool   []int64
	builds *builds
	log    *responseLog

	attempted atomic.Int64
	failed    atomic.Int64
	errMu     sync.Mutex
	errs      []string

	st       *stack
	cl       *client
	serveDir string // the current server's snapshot directory

	// Traced-run state: the benchmark-owned cache the replays drive, and
	// the ids that join server-side spans to the request that caused them.
	owned        *serve.Cache
	ownedMu      sync.Mutex
	ownedDir     string
	replayDir    string
	handlerSpans sync.Map // request id -> serve.handler span id
	seedReq      sync.Map // cold-build study seed -> request id that asked for it
}

func newRunner(w workload, seed int64, seconds float64, scratch string, traced bool) (*runner, error) {
	r := &runner{
		w:       w,
		seed:    seed,
		seconds: seconds,
		conc:    runtime.NumCPU(),
		scratch: scratch,
		builds:  newBuilds(),
		log:     newResponseLog(),
	}
	if w.pool > 0 {
		r.pool = poolSeeds(w, seed)
	}
	if traced {
		r.tr = newTracer()
		r.ownedDir = filepath.Join(scratch, "owned")
		r.replayDir = filepath.Join(scratch, "replay")
		for _, d := range []string{r.ownedDir, r.replayDir} {
			if err := os.MkdirAll(d, 0o755); err != nil {
				return nil, err
			}
		}
		owned, err := serve.NewSnapshotCache(r.handoffBuild, w.cache, r.ownedDir)
		if err != nil {
			return nil, err
		}
		r.owned = owned
	}
	return r, nil
}

// fail counts one failed operation and keeps its error for the report.
func (r *runner) fail(err error) {
	r.failed.Add(1)
	r.errMu.Lock()
	if len(r.errs) < 10 {
		r.errs = append(r.errs, err.Error())
	}
	r.errMu.Unlock()
}

// serverBuild is the measured server's BuildFunc: avserve's builder, plus
// the headline record the gate checks and, when tracing, the build's
// stage spans and a hand-off of the study to the replay cache.
func (r *runner) serverBuild(seed int64) (*serve.Study, error) {
	start := time.Now()
	res, err := runPipeline(seed)
	if err != nil {
		return nil, err
	}
	r.builds.record(seed, headlineOf(res))
	mid := time.Now()
	study, err := newHeapStudy(res)
	if err != nil {
		return nil, err
	}
	if r.tr.enabled() {
		var req, parent int64
		if v, ok := r.seedReq.Load(seed); ok {
			req = v.(int64)
			if p, ok := r.handlerSpans.Load(req); ok {
				parent = p.(int64)
			}
		}
		id := r.tr.add(span{Req: req, Parent: parent, Name: "pipeline.run", Count: int64(len(res.DB.Events))}, start, mid)
		stageSpans(r.tr, req, id, start, res.Stages)
		r.tr.add(span{Req: req, Parent: parent, Name: "query.new"}, mid, time.Now())
		r.builds.stash(seed, study)
	}
	return study, nil
}

// handoffBuild is the replay cache's BuildFunc: it returns the study the
// measured server just built for seed rather than building it again.
func (r *runner) handoffBuild(seed int64) (*serve.Study, error) {
	s, ok := r.builds.take(seed)
	if !ok {
		return nil, fmt.Errorf("replay: no study built by the server for seed %d", seed)
	}
	return &serve.Study{DB: s.DB, Engine: s.Engine}, nil
}

// tracedHandler records serve.handler spans around Server.ServeHTTP for
// requests that carry a request id.
func (r *runner) tracedHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id, err := strconv.ParseInt(req.Header.Get(reqIDHeader), 10, 64)
		if err != nil || !r.tr.enabled() {
			next.ServeHTTP(w, req)
			return
		}
		sid := r.tr.newID()
		r.handlerSpans.Store(id, sid)
		start := time.Now()
		next.ServeHTTP(w, req)
		r.tr.add(span{ID: sid, Parent: id, Req: id, Name: "serve.handler"}, start, time.Now())
	})
}

// setup brings up a fresh server: for pool workloads it builds every
// study and writes its v2 snapshot, then it starts serve.New over the
// snapshot directory and sends every op once per study, so that studies
// are mapped, lazy tables materialized and connections open before
// anything is timed. A cold-build setup builds one warm-up study through
// the server.
func (r *runner) setup(ctx context.Context, i int) error {
	dir := filepath.Join(r.scratch, fmt.Sprintf("serve%d", i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if r.w.pool > 0 {
		if err := parallel(r.conc, len(r.pool), func(k int) error { return r.setupStudy(dir, r.pool[k]) }); err != nil {
			return err
		}
	}
	srv, err := serve.New(serve.Config{Build: r.serverBuild, CacheSize: r.w.cache, SnapshotDir: dir})
	if err != nil {
		return err
	}
	var wrap func(http.Handler) http.Handler
	if r.tr != nil {
		wrap = r.tracedHandler
	}
	st, err := startStack(srv, wrap)
	if err != nil {
		return err
	}
	r.st, r.cl, r.serveDir = st, newClient(st.base, r.conc), dir
	warm := r.pool
	if r.w.pool == 0 {
		warm = []int64{coldSeed(r.seed, phaseWarmup, 0)}
	}
	for _, seed := range warm {
		for op := range defaultMix {
			if err := r.send(ctx, opRequest(op, seed)); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	runtime.GC()
	debug.FreeOSMemory()
	return nil
}

// setupStudy builds one pool study and writes its snapshot into dir (and,
// in a traced run, into the replay cache's directory too).
func (r *runner) setupStudy(dir string, seed int64) error {
	start := time.Now()
	res, err := runPipeline(seed)
	if err != nil {
		return err
	}
	r.builds.record(seed, headlineOf(res))
	built := time.Now()
	if _, err := snapshot2.WriteSeed(dir, seed, res.DB); err != nil {
		return fmt.Errorf("write snapshot %d: %w", seed, err)
	}
	written := time.Now()
	if !r.tr.enabled() {
		return nil
	}
	id := r.tr.add(span{Name: "pipeline.run", Count: int64(len(res.DB.Events))}, start, built)
	stageSpans(r.tr, 0, id, start, res.Stages)
	fi, err := os.Stat(snapshot2.Path(dir, seed))
	if err != nil {
		return err
	}
	r.tr.add(span{Name: "snapshot2.write", Count: fi.Size()}, built, written)
	// avserve's builder wraps every build in a query engine; pool studies
	// are served from snapshots, so time that step as a replay here.
	qs := time.Now()
	if _, err := newHeapStudy(res); err != nil {
		return err
	}
	r.tr.add(span{Name: "query.new", Replay: true}, qs, time.Now())
	if _, err := snapshot2.WriteSeed(r.ownedDir, seed, res.DB); err != nil {
		return fmt.Errorf("write snapshot %d: %w", seed, err)
	}
	return nil
}

// teardown stops the current server and client.
func (r *runner) teardown() error {
	if r.st == nil {
		return nil
	}
	r.cl.close()
	err := r.st.close()
	r.st, r.cl = nil, nil
	return err
}

// send issues one request and checks its body against earlier responses
// for the same path; in a traced phase it also records the request's
// root span and replays the layers it crossed.
func (r *runner) send(ctx context.Context, req request) error {
	r.attempted.Add(1)
	var id int64
	traced := r.tr.enabled()
	if traced {
		id = r.tr.newID()
		if r.w.pool == 0 {
			r.seedReq.Store(req.seed, id)
		}
	}
	start := time.Now()
	body, err := r.cl.get(ctx, req.path, id)
	end := time.Now()
	if err == nil {
		err = r.log.record(req, body)
	}
	if err == nil && traced {
		r.tr.add(span{ID: id, Req: id, Name: "request", Op: defaultMix[req.op].name}, start, end)
		var parent int64
		if p, ok := r.handlerSpans.Load(id); ok {
			parent = p.(int64)
		}
		err = r.replay(ctx, req, id, parent, body)
	}
	if err != nil {
		r.fail(err)
	}
	return err
}

// closedResult is one closed-loop phase's outcome.
type closedResult struct {
	ok  int           // successful requests
	rps float64       // successful requests per second
	cpu time.Duration // process user+system CPU over the phase
}

// closedLoop runs r.conc clients, each sending its next request when the
// previous one completes, until d has passed. Each client's rate is its
// successes over the time to its last completion; the phase's rate is
// their sum, so no client's unfinished request is counted as idle time.
func (r *runner) closedLoop(ctx context.Context, gen *generator, d time.Duration) closedResult {
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	counts := make([]int, r.conc)
	busy := make([]time.Duration, r.conc)
	var wg sync.WaitGroup
	for w := 0; w < r.conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				if r.send(ctx, gen.next()) == nil {
					counts[w]++
				}
				busy[w] = time.Since(start)
			}
		}()
	}
	wg.Wait()
	res := closedResult{cpu: cpuTime() - cpu0}
	for w := range counts {
		res.ok += counts[w]
		if busy[w] > 0 {
			res.rps += float64(counts[w]) / busy[w].Seconds()
		}
	}
	return res
}

// openResult is one open-loop phase's outcome, in milliseconds.
type openResult struct {
	latency []float64 // from when each request was due; +Inf when it failed
	lag     []float64 // how late the generator dispatched each request
}

// openLoop sends requests at the workload's fixed rate for d, whether or
// not earlier ones have completed, timing each from when it was due.
func (r *runner) openLoop(ctx context.Context, gen *generator, d time.Duration) openResult {
	n := int(r.w.rate * d.Seconds())
	interval := time.Duration(float64(time.Second) / r.w.rate)
	res := openResult{latency: make([]float64, 0, n), lag: make([]float64, 0, n)}
	lat := make([]float64, n)
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	start := time.Now()
	sent := 0
	for i := 0; i < n && ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		sem <- struct{}{}
		res.lag = append(res.lag, ms(time.Since(due)))
		req := gen.next()
		sent++
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			if r.send(ctx, req) != nil {
				lat[i] = math.Inf(1)
				return
			}
			lat[i] = ms(time.Since(due))
		}()
	}
	wg.Wait()
	res.latency = append(res.latency, lat[:sent]...)
	return res
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssSampler tracks the process's peak resident set while it runs.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak int64
}

// startRSS samples /proc/self/statm every 10ms until stopped.
func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.peak = residentBytes()
	go func() {
		defer close(s.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.peak = max(s.peak, residentBytes())
			}
		}
	}()
	return s
}

// finish stops sampling and returns the peak in bytes.
func (s *rssSampler) finish() int64 {
	close(s.stop)
	<-s.done
	return max(s.peak, residentBytes())
}

// residentBytes reads the process's resident set size, mapped snapshot
// pages included.
func residentBytes() int64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// snapshotBytesPerStudy returns the mean size of the v2 snapshots in dir.
func snapshotBytesPerStudy(dir string) (float64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.avsnap2"))
	if err != nil {
		return 0, err
	}
	if len(paths) == 0 {
		return 0, errors.New("no snapshots written")
	}
	var total int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return float64(total) / float64(len(paths)), nil
}

// parallel runs fn(0..n-1) on at most workers goroutines and returns the
// first error.
func parallel(workers, n int, fn func(i int) error) error {
	var (
		wg    sync.WaitGroup
		next  atomic.Int64
		errMu sync.Mutex
		first error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errMu.Lock()
					if first == nil {
						first = err
					}
					errMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// castagnoli is the CRC table used to compare repeated response bodies.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// respEntry is the first body served for one path.
type respEntry struct {
	req   request
	body  []byte
	sum   uint32
	count int // responses received for the path
}

// responseLog keeps the first body served for every distinct path and
// checks that every later response for the path is identical to it.
type responseLog struct {
	mu sync.Mutex
	m  map[string]*respEntry
}

func newResponseLog() *responseLog {
	return &responseLog{m: make(map[string]*respEntry)}
}

// record logs a response body, failing when it differs from the body an
// earlier response for the same path carried.
func (l *responseLog) record(req request, body []byte) error {
	sum := crc32.Checksum(body, castagnoli)
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.m[req.path]
	if !ok {
		l.m[req.path] = &respEntry{req: req, body: body, sum: sum, count: 1}
		return nil
	}
	e.count++
	if e.sum != sum || len(e.body) != len(body) {
		return fmt.Errorf("GET %s: body differs from an earlier response for the same path", req.path)
	}
	return nil
}

// bySeed groups the logged entries by study seed.
func (l *responseLog) bySeed() map[int64][]*respEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[int64][]*respEntry)
	for _, e := range l.m {
		out[e.req.seed] = append(out[e.req.seed], e)
	}
	return out
}
