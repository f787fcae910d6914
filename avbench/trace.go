package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's epoch. A replay span times a public call the
// benchmark made right after a request, with the request's arguments, to
// stand in for a layer the server calls internally.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Op     string `json:"op,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Replay bool   `json:"replay,omitempty"`
	// Count is a size measured with the span: bytes written or encoded,
	// events built.
	Count int64 `json:"count,omitempty"`
}

// sample is a value measured at a layer boundary that is not a time.
type sample struct {
	Req   int64   `json:"req"`
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// tracer keeps spans in memory until the run ends. It records only while
// on; the benchmark switches it on for the traced phase.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Int64

	mu      sync.Mutex
	spans   []span
	samples []sample
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now()}
}

// enabled reports whether spans are being recorded; a nil tracer never
// records.
func (t *tracer) enabled() bool {
	return t != nil && t.on.Load()
}

// newID allocates a span id.
func (t *tracer) newID() int64 {
	return t.ids.Add(1)
}

// add records a span that ran from start to end, allocating its id when
// s.ID is zero, and returns the id.
func (t *tracer) add(s span, start, end time.Time) int64 {
	if s.ID == 0 {
		s.ID = t.newID()
	}
	s.Start = int64(start.Sub(t.epoch))
	s.End = int64(end.Sub(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// addSample records a non-time measurement.
func (t *tracer) addSample(req int64, name string, v float64) {
	t.mu.Lock()
	t.samples = append(t.samples, sample{Req: req, Name: name, Value: v})
	t.mu.Unlock()
}

// write stores every span and sample as JSON lines in path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	for _, s := range t.samples {
		if err != nil {
			break
		}
		err = enc.Encode(s)
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children, keyed by span id. Children may overlap each
// other or run past their parent (replays run after the request they
// stand in for); only the covered part of the parent's interval counts.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.End - s.Start - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered returns the length of the union of the kids' intervals clipped
// to [start, end).
func covered(start, end int64, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, start), min(k.End, end)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}
