package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"avfda/internal/pipeline"
	"avfda/internal/query"
	"avfda/internal/serve"
	"avfda/internal/synth"
)

// reqIDHeader carries the benchmark's request id to the traced handler
// wrapper, so server-side spans join the client's.
const reqIDHeader = "X-Avbench-Request"

// stack is one measured server: serve.New behind a loopback listener.
type stack struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan error
}

// startStack serves srv (wrapped by wrap when non-nil) on a loopback port.
func startStack(srv *serve.Server, wrap func(http.Handler) http.Handler) (*stack, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	var h http.Handler = srv
	if wrap != nil {
		h = wrap(srv)
	}
	st := &stack{
		srv:  srv,
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { st.done <- st.hs.Serve(ln) }()
	return st, nil
}

// close shuts the listener down and waits for the serve loop to end.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := st.hs.Shutdown(ctx)
	if serr := <-st.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// client issues the benchmark's requests. Its transport negotiates gzip
// the way Go's default client does and opens at most conns connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	return &client{
		base: base,
		hc: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				IdleConnTimeout:     time.Minute,
			},
		},
	}
}

// get fetches one path and returns the decoded body of a 200 response.
func (c *client) get(ctx context.Context, path string, reqID int64) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	if reqID != 0 {
		req.Header.Set(reqIDHeader, strconv.FormatInt(reqID, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: read body: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %.200s", path, resp.StatusCode, body)
	}
	return body, nil
}

// close releases idle connections.
func (c *client) close() {
	c.hc.CloseIdleConnections()
}

// headline is the paper's headline numbers for one built study.
type headline struct {
	events    int
	planted   int // accidents in the generated corpus
	accidents int // accidents recovered through OCR and parsing
	mlDesign  float64
}

// Calibrated ranges the headline numbers of every built study must fall
// in: ~5.2-5.3k disengagements, 42 accidents, ML/Design 63-64%. The
// corpus plants 42 accidents; on about one seed in forty the noisy OCR
// stage loses one of them, so 41 recovered accidents is in range too.
const (
	minEvents    = 5200
	maxEvents    = 5300
	wantPlanted  = 42
	minAccid     = 41
	maxAccid     = 42
	minMLDesign  = 0.63
	maxMLDesignX = 0.65 // exclusive
)

// check reports whether h is in the calibrated range.
func (h headline) check() error {
	if h.events < minEvents || h.events > maxEvents || h.planted != wantPlanted ||
		h.accidents < minAccid || h.accidents > maxAccid ||
		h.mlDesign < minMLDesign || h.mlDesign >= maxMLDesignX {
		return fmt.Errorf("headline out of range: %d disengagements (want %d-%d), %d accidents planted (want %d), %d recovered (want %d-%d), ML/Design %.4f (want [%.2f, %.2f))",
			h.events, minEvents, maxEvents, h.planted, wantPlanted, h.accidents, minAccid, maxAccid, h.mlDesign, minMLDesign, maxMLDesignX)
	}
	return nil
}

// builds records every study the run built: its headline numbers, and
// for the traced run, the built study so a replay can hand it to the
// benchmark-owned cache instead of building it twice.
type builds struct {
	mu        sync.Mutex
	headlines map[int64]headline
	handoff   map[int64]*serve.Study
}

func newBuilds() *builds {
	return &builds{headlines: make(map[int64]headline), handoff: make(map[int64]*serve.Study)}
}

func (b *builds) record(seed int64, h headline) {
	b.mu.Lock()
	b.headlines[seed] = h
	b.mu.Unlock()
}

func (b *builds) stash(seed int64, s *serve.Study) {
	b.mu.Lock()
	b.handoff[seed] = s
	b.mu.Unlock()
}

// take removes and returns the stashed study for seed.
func (b *builds) take(seed int64) (*serve.Study, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, ok := b.handoff[seed]
	delete(b.handoff, seed)
	return s, ok
}

func (b *builds) headline(seed int64) (headline, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	h, ok := b.headlines[seed]
	return h, ok
}

// runPipeline runs the calibrated pipeline for seed the way avserve's
// builder does.
func runPipeline(seed int64) (*pipeline.Result, error) {
	cfg := pipeline.DefaultConfig()
	cfg.Synth = synth.Config{Seed: seed}
	cfg.OCR.Seed = seed
	res, err := pipeline.Run(context.Background(), cfg)
	if err != nil {
		return nil, fmt.Errorf("build study %d: %w", seed, err)
	}
	return res, nil
}

// headlineOf extracts the headline numbers of a built study.
func headlineOf(res *pipeline.Result) headline {
	return headline{
		events:    len(res.DB.Events),
		planted:   len(res.Truth.Corpus.Accidents),
		accidents: len(res.DB.Accidents),
		mlDesign:  res.DB.OverallCategoryShares().MLDesign,
	}
}

// stageSpans records a build's stage spans as children of parent. The
// stages of pipeline.Run run back to back, so they are laid end to end
// from the build's start.
func stageSpans(tr *tracer, req, parent int64, start time.Time, st pipeline.StageTimings) {
	at := start
	for _, s := range []struct {
		name string
		d    time.Duration
	}{
		{"pipeline.synth", st.Synth}, {"pipeline.render", st.Render}, {"pipeline.ocr", st.OCR},
		{"pipeline.parse", st.Parse}, {"pipeline.expand", st.Expand}, {"pipeline.classify", st.Classify},
		{"pipeline.build", st.Build},
	} {
		tr.add(span{Req: req, Parent: parent, Name: s.name}, at, at.Add(s.d))
		at = at.Add(s.d)
	}
}

// newHeapStudy wraps a built database in a heap query engine, as avserve's
// builder does.
func newHeapStudy(res *pipeline.Result) (*serve.Study, error) {
	engine, err := query.New(res.DB)
	if err != nil {
		return nil, err
	}
	return &serve.Study{DB: res.DB, Engine: engine}, nil
}
