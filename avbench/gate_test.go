package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"avfda/internal/serve"
)

// TestGateRejectsTamperedBody checks that the body comparison passes the
// reference's own bytes and fails a body with one byte changed, counting
// every response that carried it.
func TestGateRejectsTamperedBody(t *testing.T) {
	res, err := runPipeline(1)
	if err != nil {
		t.Fatal(err)
	}
	study, err := newHeapStudy(res)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := serve.New(serve.Config{
		Build:     func(int64) (*serve.Study, error) { return study, nil },
		CacheSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var entries []*respEntry
	for op := range defaultMix {
		req := opRequest(op, 1)
		rec := httptest.NewRecorder()
		ref.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, req.path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d", req.path, rec.Code)
		}
		entries = append(entries, &respEntry{req: req, body: rec.Body.Bytes(), count: 2})
	}
	if failed, problems := checkBodies(ref, entries); failed != 0 {
		t.Fatalf("untampered bodies: %d failed: %v", failed, problems)
	}

	tampered := entries[0]
	tampered.body = bytes.Replace(tampered.body, []byte(`"total":`), []byte(`"total":9`), 1)
	tampered.count = 3
	failed, problems := checkBodies(ref, entries)
	if failed != 3 || len(problems) != 1 {
		t.Fatalf("tampered body: %d failed, problems %v; want 3 failed, one problem", failed, problems)
	}
}

// TestResponseLogRejectsChangedRepeat checks that a later response whose
// body differs from the first for the same path is a failure.
func TestResponseLogRejectsChangedRepeat(t *testing.T) {
	l := newResponseLog()
	req := opRequest(0, 1)
	if err := l.record(req, []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := l.record(req, []byte(`{"a":1}`)); err != nil {
		t.Fatalf("identical repeat: %v", err)
	}
	if err := l.record(req, []byte(`{"a":2}`)); err == nil {
		t.Fatal("changed repeat accepted")
	}
}
