package serve

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
)

// Memoized answers.
//
// Reliability metrics, the paper tables and the unfiltered group-bys take
// no parameters beyond the study, and a study never changes once built,
// so each is computed, encoded and gzipped once per study and then served
// as bytes. The keys are fixed by validated inputs (reliability, seven
// table ids, twelve group-by columns), so a study holds at most twenty
// entries, and they are freed with it. There is deliberately no cache
// keyed on the query string: filtered listings and group-bys would fill it
// with whatever parameters clients send, without making any query faster.

// memo is a study's set of memoized answers. The zero value is ready to
// use, so a Study built as a plain struct literal memoizes too.
type memo struct {
	mu    sync.Mutex
	slots map[string]*memoSlot
}

// memoSlot holds one answer; mu serializes its fill, so concurrent first
// requests compute it once.
type memoSlot struct {
	mu   sync.Mutex
	body *memoBody
}

// memoBody is one encoded answer, immutable once published.
type memoBody struct {
	contentType string
	identity    []byte
	gzipped     []byte
}

// get returns the answer memoized under key, running fill when there is
// none yet. A failed fill is returned and not memoized, so the next
// request tries again. fill runs under the slot's lock, so requests for
// the same answer wait for one fill; it must not call back into the memo.
func (m *memo) get(key string, fill func() (*memoBody, error)) (*memoBody, error) {
	m.mu.Lock()
	if m.slots == nil {
		m.slots = make(map[string]*memoSlot)
	}
	slot := m.slots[key]
	if slot == nil {
		slot = &memoSlot{}
		m.slots[key] = slot
	}
	m.mu.Unlock()

	slot.mu.Lock()
	defer slot.mu.Unlock()
	if slot.body == nil {
		body, err := fill()
		if err != nil {
			return nil, err
		}
		slot.body = body
	}
	return slot.body, nil
}

// jsonMemo encodes v exactly as writeJSON would and gzips the result.
func jsonMemo(v any) (*memoBody, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return newMemoBody("application/json", buf.Bytes())
}

// textMemo wraps a rendered table and gzips it.
func textMemo(text string) (*memoBody, error) {
	return newMemoBody("text/plain; charset=utf-8", []byte(text))
}

// newMemoBody gzips identity once with a pooled compressor.
func newMemoBody(contentType string, identity []byte) (*memoBody, error) {
	var buf bytes.Buffer
	gz := gzipWriters.Get().(*gzip.Writer)
	gz.Reset(&buf)
	_, err := gz.Write(identity)
	if cerr := gz.Close(); err == nil {
		err = cerr
	}
	gz.Reset(nil)
	gzipWriters.Put(gz)
	if err != nil {
		return nil, err
	}
	return &memoBody{contentType: contentType, identity: identity, gzipped: buf.Bytes()}, nil
}

// writeMemo serves a memoized answer with its length, gzipped when the
// client negotiated it. The gzip middleware passes a body that already
// carries a Content-Encoding through untouched.
func writeMemo(w http.ResponseWriter, r *http.Request, b *memoBody) {
	body := b.identity
	h := w.Header()
	h.Set("Content-Type", b.contentType)
	if acceptsGzip(r) {
		body = b.gzipped
		h.Set("Content-Encoding", "gzip")
	}
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}
