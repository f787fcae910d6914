package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"

	"avfda/internal/core"
	"avfda/internal/query"
	"avfda/internal/serve"
	"avfda/internal/snapshot2"
)

// gate checks every distinct response of the run against a reference:
// what serve.New returns in-process, without gzip, over a heap study of
// the same seed. Pool studies are rebuilt with the pipeline, so their
// check compares the mapped snapshot the server served against a fresh
// heap build. Cold-build studies were served from the heap build itself,
// so their reference is the written-through snapshot, reopened,
// materialized and wrapped in a heap engine; the reopened snapshot must
// also hold the built event count. Most studies built during the run
// must have their headline numbers in the calibrated range. It returns
// the number of failed operations and the problems found.
func (r *runner) gate(log io.Writer) (int, []string) {
	groups := r.log.bySeed()
	seeds := make([]int64, 0, len(groups))
	for s := range groups {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })

	type result struct {
		failed   int
		problems []string
	}
	results := make([]result, len(seeds))
	err := parallel(r.conc, len(seeds), func(i int) error {
		seed := seeds[i]
		ref, err := r.reference(seed)
		if err != nil {
			results[i] = result{failed: countOf(groups[seed]), problems: []string{err.Error()}}
			return nil
		}
		f, p := checkBodies(ref, groups[seed])
		results[i] = result{failed: f, problems: p}
		return nil
	})
	var failed int
	var problems []string
	if err != nil {
		problems = append(problems, err.Error())
	}
	for _, res := range results {
		failed += res.failed
		problems = append(problems, res.problems...)
	}
	misses, studies := r.headlineMisses(log)
	if allowed := (studies + 4) / 5; misses > allowed {
		failed++
		problems = append(problems, fmt.Sprintf("%d of %d studies have headline numbers out of the calibrated range, more than the %d allowed", misses, studies, allowed))
	}
	return failed, problems
}

// headlineMisses checks every study built during the run against the
// calibrated headline range, prints each miss to log, and returns the
// number of misses and of studies. The range is a property of the
// pipeline across seeds, not a promise for each seed: at the commit that
// introduced this benchmark about one seed in thirty misses it, because
// one OCR error in a table header drops the rows beneath it.
func (r *runner) headlineMisses(log io.Writer) (misses, studies int) {
	r.builds.mu.Lock()
	defer r.builds.mu.Unlock()
	seeds := make([]int64, 0, len(r.builds.headlines))
	for seed := range r.builds.headlines {
		seeds = append(seeds, seed)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	for _, seed := range seeds {
		if err := r.builds.headlines[seed].check(); err != nil {
			misses++
			fmt.Fprintf(log, "avbench: study %d: %v\n", seed, err)
		}
	}
	return misses, len(seeds)
}

// countOf sums the responses logged under entries.
func countOf(entries []*respEntry) int {
	n := 0
	for _, e := range entries {
		n += e.count
	}
	return n
}

// reference returns an in-process server over a heap study of seed.
func (r *runner) reference(seed int64) (http.Handler, error) {
	var db *core.DB
	if r.w.pool > 0 {
		res, err := runPipeline(seed)
		if err != nil {
			return nil, err
		}
		r.builds.record(seed, headlineOf(res))
		db = res.DB
	} else {
		v, err := snapshot2.OpenSeed(r.serveDir, seed)
		if err != nil {
			return nil, fmt.Errorf("study %d: reopen snapshot: %w", seed, err)
		}
		h, ok := r.builds.headline(seed)
		if !ok {
			v.Close()
			return nil, fmt.Errorf("study %d: served but never built", seed)
		}
		if v.NumRows() != h.events {
			v.Close()
			return nil, fmt.Errorf("study %d: reopened snapshot has %d events, the build had %d", seed, v.NumRows(), h.events)
		}
		db, err = v.Database()
		v.Close()
		if err != nil {
			return nil, fmt.Errorf("study %d: materialize snapshot: %w", seed, err)
		}
	}
	engine, err := query.New(db)
	if err != nil {
		return nil, err
	}
	study := &serve.Study{DB: db, Engine: engine}
	return serve.New(serve.Config{
		Build:     func(int64) (*serve.Study, error) { return study, nil },
		CacheSize: 1,
	})
}

// checkBodies compares each logged body with the reference's response
// for the same path. Every response carrying a mismatched body counts as
// a failed operation.
func checkBodies(ref http.Handler, entries []*respEntry) (int, []string) {
	var failed int
	var problems []string
	for _, e := range entries {
		rec := httptest.NewRecorder()
		ref.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, e.req.path, nil))
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), e.body) {
			failed += e.count
			problems = append(problems, fmt.Sprintf("GET %s: served body (%d bytes) differs from the in-process heap reference (status %d, %d bytes)",
				e.req.path, len(e.body), rec.Code, rec.Body.Len()))
		}
	}
	return failed, problems
}
