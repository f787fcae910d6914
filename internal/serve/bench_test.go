package serve

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"avfda/internal/core"
	"avfda/internal/loadgen"
	"avfda/internal/snapshot2"
	"avfda/internal/synth"
)

// discardWriter is a reusable ResponseWriter that keeps only the status,
// so the benchmark measures the server rather than a recorder's buffer.
type discardWriter struct {
	h    http.Header
	code int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkServeMix drives avload's default mix at its weights through
// Server.ServeHTTP: one op is one request, against the calibrated seed-1
// study mapped from its v2 snapshot, with gzip negotiated. Each path is
// served once before timing, so the study is resident and its memoized
// answers are filled, as on a warm server.
func BenchmarkServeMix(b *testing.B) {
	tr, err := synth.Generate(synth.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	db, err := core.BuildWithTags(&tr.Corpus, tr.Tags)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if _, err := snapshot2.WriteSeed(dir, 1, db); err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{
		Build: func(seed int64) (*Study, error) {
			return nil, fmt.Errorf("seed %d: the benchmark serves only the mapped snapshot", seed)
		},
		CacheSize:   1,
		SnapshotDir: dir,
	})
	if err != nil {
		b.Fatal(err)
	}
	mix, err := loadgen.LoadMix("default")
	if err != nil {
		b.Fatal(err)
	}

	// One request per unit of weight, offsets spread over avload's range
	// of 0..950 in steps of 50, in a fixed shuffled order.
	var reqs []*http.Request
	for _, op := range mix.Ops {
		for k := 0; k < int(op.Weight); k++ {
			path := strings.ReplaceAll(op.Path, "{seed}", "1")
			path = strings.ReplaceAll(path, "{offset}", strconv.Itoa(50*(7*k%20)))
			req := httptest.NewRequest(http.MethodGet, path, nil)
			req.Header.Set("Accept-Encoding", "gzip")
			reqs = append(reqs, req)
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })

	w := &discardWriter{h: make(http.Header)}
	serve := func(req *http.Request) {
		clear(w.h)
		w.code = http.StatusOK
		s.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("GET %s: status %d", req.URL, w.code)
		}
	}
	for _, req := range reqs {
		serve(req)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(reqs[i%len(reqs)])
	}
}
