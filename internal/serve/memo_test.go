package serve

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"avfda/internal/core"
	"avfda/internal/query"
	"avfda/internal/snapshot2"
)

// memoPaths lists every memoized answer's path for seed 1, each with the
// fresh engine result it must encode to.
func memoPaths(t *testing.T, db *core.DB) map[string][]byte {
	t.Helper()
	fresh, err := query.New(db)
	if err != nil {
		t.Fatal(err)
	}
	encode := func(v any) []byte {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	out := make(map[string][]byte)
	rows, err := fresh.Reliability()
	if err != nil {
		t.Fatal(err)
	}
	out["/v1/studies/1/metrics/reliability"] = encode(ReliabilityResponse{Manufacturers: rows})
	for id, render := range tableRenderers {
		text, err := render(db)
		if err != nil {
			t.Fatal(err)
		}
		out["/v1/studies/1/tables/"+id] = []byte(text)
	}
	for _, by := range query.GroupColumns() {
		groups, err := fresh.GroupCount(query.Filter{}, by)
		if err != nil {
			t.Fatal(err)
		}
		res := GroupByResponse{By: by, Groups: groups}
		for _, g := range groups {
			res.Total += g.Count
		}
		out["/v1/studies/1/groupby?by="+by] = encode(res)
	}
	return out
}

// TestMemoBodiesMatchFreshEncode: every memoized answer of a mapped study
// — reliability, each table, each unfiltered group-by — is byte-identical
// to a fresh encode of the heap engine's result, on the filling request
// and on the memoized one, and its gzip form inflates to the same bytes.
func TestMemoBodiesMatchFreshEncode(t *testing.T) {
	s := newSnapshotServer(t, nil)
	paths := memoPaths(t, testDB(t))
	if len(paths) != 20 {
		t.Fatalf("%d memoized answers, want 20 (reliability, 7 tables, 12 group-bys)", len(paths))
	}
	for path, want := range paths {
		for round := 0; round < 2; round++ {
			identity := getFull(t, s, path, nil)
			if identity.Code != http.StatusOK || !bytes.Equal(identity.Body.Bytes(), want) {
				t.Fatalf("GET %s round %d: code %d, body differs from a fresh encode:\n%s\nwant:\n%s",
					path, round, identity.Code, identity.Body.Bytes(), want)
			}
			if cl := identity.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
				t.Errorf("GET %s: Content-Length %q, want %d", path, cl, len(want))
			}

			zipped := getFull(t, s, path, map[string]string{"Accept-Encoding": "gzip"})
			if enc := zipped.Header().Get("Content-Encoding"); zipped.Code != http.StatusOK || enc != "gzip" {
				t.Fatalf("GET %s with gzip: code %d, Content-Encoding %q", path, zipped.Code, enc)
			}
			if cl := zipped.Header().Get("Content-Length"); cl != strconv.Itoa(zipped.Body.Len()) {
				t.Errorf("GET %s with gzip: Content-Length %q, body %d bytes", path, cl, zipped.Body.Len())
			}
			zr, err := gzip.NewReader(zipped.Body)
			if err != nil {
				t.Fatal(err)
			}
			inflated, err := io.ReadAll(zr)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(inflated, want) {
				t.Fatalf("GET %s: gzip body does not inflate to the identity body", path)
			}
		}
	}
	study, err := s.cache.Get(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := memoSize(study); n != len(paths) {
		t.Errorf("memo holds %d answers, want %d", n, len(paths))
	}
}

// memoSize counts the study's memoized answers.
func memoSize(study *Study) int {
	study.memo.mu.Lock()
	defer study.memo.mu.Unlock()
	n := 0
	for _, slot := range study.memo.slots {
		slot.mu.Lock()
		if slot.body != nil {
			n++
		}
		slot.mu.Unlock()
	}
	return n
}

// TestMemoConditionalBeforeFill: a matching If-None-Match answers 304
// before any answer is computed, so revalidation stays free.
func TestMemoConditionalBeforeFill(t *testing.T) {
	dir := t.TempDir()
	crc, err := snapshot2.WriteSeed(dir, 1, testDB(t))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Build: testBuilder(t, nil, 0), SnapshotDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{
		"/v1/studies/1/metrics/reliability", "/v1/studies/1/tables/vii", "/v1/studies/1/groupby?by=tag",
	} {
		rec := getFull(t, s, path, map[string]string{"If-None-Match": `"` + etagFromCRC(crc) + `"`})
		if rec.Code != http.StatusNotModified || rec.Body.Len() != 0 {
			t.Fatalf("GET %s conditional: code %d, %d body bytes; want an empty 304", path, rec.Code, rec.Body.Len())
		}
	}
	study, err := s.cache.Get(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := memoSize(study); n != 0 {
		t.Errorf("memo holds %d answers after 304s only, want 0", n)
	}
}

// TestMemoErrorsNotMemoized: a study whose database hook fails answers 500
// on every request — the failure is reported, never stored as an answer.
func TestMemoErrorsNotMemoized(t *testing.T) {
	data, err := snapshot2.Encode(testDB(t))
	if err != nil {
		t.Fatal(err)
	}
	v, err := snapshot2.NewView(data)
	if err != nil {
		t.Fatal(err)
	}
	var hookCalls atomic.Int64
	engine, err := query.NewFromSource(v, func() (*core.DB, error) {
		hookCalls.Add(1)
		return nil, errors.New("database unavailable")
	})
	if err != nil {
		t.Fatal(err)
	}
	study := &Study{Engine: engine}
	s, err := New(Config{Build: func(int64) (*Study, error) { return study, nil }})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/studies/1/metrics/reliability", "/v1/studies/1/tables/i"} {
		for i := 0; i < 2; i++ {
			if code, body := get(t, s, path); code != http.StatusInternalServerError {
				t.Fatalf("GET %s request %d: code %d (%s), want 500", path, i+1, code, body)
			}
		}
	}
	if n := memoSize(study); n != 0 {
		t.Errorf("memo holds %d answers after failures, want 0", n)
	}
	if hookCalls.Load() == 0 {
		t.Error("database hook never ran")
	}
}

// tagCounter counts Tag reads, one per row a group-by over tag counts.
type tagCounter struct {
	query.Source
	reads atomic.Int64
}

func (c *tagCounter) Tag(i int) string {
	c.reads.Add(1)
	return c.Source.Tag(i)
}

// TestMemoConcurrentFirstRequestsFillOnce: concurrent first requests for
// one answer compute it once and all receive the same bytes.
func TestMemoConcurrentFirstRequestsFillOnce(t *testing.T) {
	data, err := snapshot2.Encode(testDB(t))
	if err != nil {
		t.Fatal(err)
	}
	v, err := snapshot2.NewView(data)
	if err != nil {
		t.Fatal(err)
	}
	src := &tagCounter{Source: v}
	engine, err := query.NewFromSource(src, v.Database)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Build: func(int64) (*Study, error) { return &Study{Engine: engine}, nil }})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 8
	bodies := make([]string, clients)
	codes := make([]int, clients)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			codes[i], bodies[i] = get(t, s, "/v1/studies/1/groupby?by=tag")
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range bodies {
		if codes[i] != http.StatusOK || bodies[i] != bodies[0] {
			t.Fatalf("client %d: code %d, body %q; want 200 and client 0's body %q", i, codes[i], bodies[i], bodies[0])
		}
	}
	if got, want := src.reads.Load(), int64(v.NumRows()); got != want {
		t.Errorf("group-by read %d tags, want %d (one fill)", got, want)
	}
}
