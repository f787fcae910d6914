package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"avfda/internal/core"
	"avfda/internal/query"
	"avfda/internal/report"
	"avfda/internal/serve"
	"avfda/internal/snapshot2"
)

// probeRounds is how many times the cache probe drives each outcome.
const probeRounds = 5

// probeSeedBase numbers the probe's studies apart from every workload's.
const probeSeedBase = 1 << 50

// gzipWriters mirrors the server's pool, so a replayed compression does
// not pay for allocating a compressor.
var gzipWriters = sync.Pool{New: func() any { return gzip.NewWriter(nil) }}

// timedGet replays one Get on a benchmark-owned cache and records its
// span, named by the tier that answered it. When the answer came from
// mapping a snapshot, it also replays the open and the lazy
// materialization on that snapshot.
func (r *runner) timedGet(ctx context.Context, c *serve.Cache, dir string, seed, req, parent int64) (*serve.Study, error) {
	// Replays of concurrent requests take turns, so the stats delta
	// belongs to this Get alone.
	r.ownedMu.Lock()
	before := c.Stats()
	start := time.Now()
	study, err := c.Get(ctx, seed)
	end := time.Now()
	after := c.Stats()
	r.ownedMu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("replay cache get %d: %w", seed, err)
	}
	outcome := "hit"
	switch {
	case after.Builds > before.Builds:
		outcome = "build"
	case after.Snapshot2Loads > before.Snapshot2Loads:
		outcome = "map"
	}
	r.tr.add(span{Req: req, Parent: parent, Name: "cache.get." + outcome, Replay: true}, start, end)
	if outcome == "map" {
		if err := r.replayOpen(dir, seed, req, parent); err != nil {
			return nil, err
		}
	}
	if outcome == "build" && study.DB != nil {
		if err := r.replayWrite(study, seed, req, parent); err != nil {
			return nil, err
		}
	}
	return study, nil
}

// replayOpen times snapshot2.OpenSeed and View.Database on one snapshot.
func (r *runner) replayOpen(dir string, seed, req, parent int64) error {
	start := time.Now()
	v, err := snapshot2.OpenSeed(dir, seed)
	if err != nil {
		return fmt.Errorf("replay open %d: %w", seed, err)
	}
	opened := time.Now()
	_, err = v.Database()
	done := time.Now()
	v.Close()
	if err != nil {
		return fmt.Errorf("replay database %d: %w", seed, err)
	}
	r.tr.add(span{Req: req, Parent: parent, Name: "snapshot2.open", Replay: true}, start, opened)
	r.tr.add(span{Req: req, Parent: parent, Name: "snapshot2.database", Replay: true}, opened, done)
	return nil
}

// replayWrite times the v2 write-through of a freshly built study.
func (r *runner) replayWrite(study *serve.Study, seed, req, parent int64) error {
	start := time.Now()
	if _, err := snapshot2.WriteSeed(r.replayDir, seed, study.DB); err != nil {
		return fmt.Errorf("replay write %d: %w", seed, err)
	}
	end := time.Now()
	path := snapshot2.Path(r.replayDir, seed)
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	r.tr.add(span{Req: req, Parent: parent, Name: "snapshot2.write", Count: fi.Size(), Replay: true}, start, end)
	return os.Remove(path)
}

// replay stands in for the layers a request crossed inside the server:
// the cache Get, the query or report call, the JSON encode and the gzip,
// each made through the same public call with the request's arguments.
// It fails when the replayed encode does not reproduce the served body,
// since then it did not replay the server's work.
func (r *runner) replay(ctx context.Context, rq request, req, parent int64, body []byte) error {
	study, err := r.timedGet(ctx, r.owned, r.ownedDir, rq.seed, req, parent)
	if err != nil {
		return err
	}
	op := defaultMix[rq.op].name
	u, err := url.Parse(rq.path)
	if err != nil {
		return err
	}
	q := u.Query()

	var buf bytes.Buffer
	if strings.HasPrefix(op, "table-") {
		db, err := study.Database()
		if err != nil {
			return err
		}
		start := time.Now()
		text, err := renderTable(op, db)
		end := time.Now()
		if err != nil {
			return err
		}
		r.tr.add(span{Req: req, Parent: parent, Name: "report." + op, Op: op, Replay: true}, start, end)
		start = time.Now()
		buf.WriteString(text)
		r.tr.add(span{Req: req, Parent: parent, Name: "encode." + op, Op: op, Count: int64(buf.Len()), Replay: true}, start, time.Now())
	} else {
		start := time.Now()
		v, err := runQuery(study.Engine, op, q)
		end := time.Now()
		if err != nil {
			return err
		}
		r.tr.add(span{Req: req, Parent: parent, Name: "query." + op, Op: op, Replay: true}, start, end)
		start = time.Now()
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(v); err != nil {
			return err
		}
		r.tr.add(span{Req: req, Parent: parent, Name: "encode." + op, Op: op, Count: int64(buf.Len()), Replay: true}, start, time.Now())
		if err := r.countRows(rq.seed, op, q, req); err != nil {
			return err
		}
	}
	if !bytes.Equal(buf.Bytes(), body) {
		return fmt.Errorf("replay of GET %s does not reproduce the served body", rq.path)
	}

	gz := gzipWriters.Get().(*gzip.Writer)
	start := time.Now()
	gz.Reset(io.Discard)
	_, err = gz.Write(body)
	if err == nil {
		err = gz.Close()
	}
	end := time.Now()
	gzipWriters.Put(gz)
	if err != nil {
		return err
	}
	r.tr.add(span{Req: req, Parent: parent, Name: "serve.gzip", Op: op, Replay: true}, start, end)
	return nil
}

// renderTable renders a paper table the way the table endpoint does.
func renderTable(op string, db *core.DB) (string, error) {
	switch op {
	case "table-i":
		return report.TableI(db), nil
	case "table-vii":
		return report.TableVII(db)
	}
	return "", fmt.Errorf("render %s: not a table op", op)
}

// filterOf maps request parameters onto a query filter, as the server's
// listing and group-by handlers do.
func filterOf(q url.Values) query.Filter {
	return query.Filter{
		Manufacturer: q.Get("mfr"),
		Tag:          q.Get("tag"),
		Category:     q.Get("category"),
		Road:         q.Get("road"),
		Weather:      q.Get("weather"),
		Modality:     q.Get("modality"),
		From:         q.Get("from"),
		To:           q.Get("to"),
	}
}

// pageOf parses offset and limit with the server's default and cap. The
// generator only produces valid values.
func pageOf(q url.Values) query.Page {
	p := query.Page{Limit: serve.DefaultListLimit}
	if v, err := strconv.Atoi(q.Get("offset")); err == nil {
		p.Offset = v
	}
	if v, err := strconv.Atoi(q.Get("limit")); err == nil {
		p.Limit = min(v, serve.MaxListLimit)
	}
	return p
}

// runQuery makes the engine call a mix op's handler makes and returns the
// value the handler encodes.
func runQuery(e *query.Engine, op string, q url.Values) (any, error) {
	switch {
	case strings.HasPrefix(op, "events-"):
		return e.Events(filterOf(q), pageOf(q))
	case strings.HasPrefix(op, "groupby-"):
		by := q.Get("by")
		groups, err := e.GroupCount(filterOf(q), by)
		if err != nil {
			return nil, err
		}
		res := serve.GroupByResponse{By: by, Groups: groups}
		for _, g := range groups {
			res.Total += g.Count
		}
		return res, nil
	case op == "reliability":
		rows, err := e.Reliability()
		if err != nil {
			return nil, err
		}
		return serve.ReliabilityResponse{Manufacturers: rows}, nil
	case op == "accidents":
		f := query.Filter{Manufacturer: q.Get("mfr"), From: q.Get("from"), To: q.Get("to")}
		return e.Accidents(f, pageOf(q))
	}
	return nil, fmt.Errorf("no query for op %q", op)
}

// rowsOp reports whether an op's engine call reads event rows through a
// query.Source, so that rows examined per row returned is defined for it.
func rowsOp(op string) bool {
	return strings.HasPrefix(op, "events-") || strings.HasPrefix(op, "groupby-")
}

// countRows replays a row-reading op over the study's snapshot through a
// counting Source and records how many distinct rows the engine read per
// row it returned (listed for listings, counted for group-bys).
func (r *runner) countRows(seed int64, op string, q url.Values, req int64) error {
	if !rowsOp(op) {
		return nil
	}
	v, err := snapshot2.OpenSeed(r.serveDir, seed)
	if err != nil {
		return fmt.Errorf("count rows: %w", err)
	}
	defer v.Close()
	cs := &countingSource{Source: v, seen: make([]bool, v.NumRows())}
	e, err := query.NewFromSource(cs, nil)
	if err != nil {
		return err
	}
	res, err := runQuery(e, op, q)
	if err != nil {
		return err
	}
	var returned int
	switch res := res.(type) {
	case query.EventPage:
		returned = len(res.Events)
	case serve.GroupByResponse:
		returned = res.Total
	}
	if returned > 0 {
		r.tr.addSample(req, "query.rows_examined_per_returned."+op, float64(cs.n)/float64(returned))
	}
	return nil
}

// countingSource counts the distinct rows an engine reads.
type countingSource struct {
	query.Source
	seen []bool
	n    int
}

func (c *countingSource) mark(i int) {
	if !c.seen[i] {
		c.seen[i] = true
		c.n++
	}
}

func (c *countingSource) Manufacturer(i int) string { c.mark(i); return c.Source.Manufacturer(i) }
func (c *countingSource) Vehicle(i int) string      { c.mark(i); return c.Source.Vehicle(i) }
func (c *countingSource) ReportYear(i int) string   { c.mark(i); return c.Source.ReportYear(i) }
func (c *countingSource) Time(i int) time.Time      { c.mark(i); return c.Source.Time(i) }
func (c *countingSource) Cause(i int) string        { c.mark(i); return c.Source.Cause(i) }
func (c *countingSource) Tag(i int) string          { c.mark(i); return c.Source.Tag(i) }
func (c *countingSource) Category(i int) string     { c.mark(i); return c.Source.Category(i) }
func (c *countingSource) Modality(i int) string     { c.mark(i); return c.Source.Modality(i) }
func (c *countingSource) Road(i int) string         { c.mark(i); return c.Source.Road(i) }
func (c *countingSource) Weather(i int) string      { c.mark(i); return c.Source.Weather(i) }
func (c *countingSource) ReactionSeconds(i int) float64 {
	c.mark(i)
	return c.Source.ReactionSeconds(i)
}

// probe drives a benchmark-owned, one-study cache through every tier
// outcome (build, hit, build with eviction, map), so that each workload
// reports a time for each outcome whatever its own traffic reaches. The
// probe's builds hand over a study made from the first warm-up snapshot,
// so a build outcome times the cache and its v2 write-through, not the
// pipeline.
func (r *runner) probe(ctx context.Context, warmSeed int64) error {
	v, err := snapshot2.OpenSeed(r.serveDir, warmSeed)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	db, err := v.Database()
	v.Close()
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	engine, err := query.New(db)
	if err != nil {
		return err
	}
	dir := r.scratch + "/probe"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	c, err := serve.NewSnapshotCache(func(int64) (*serve.Study, error) {
		return &serve.Study{DB: db, Engine: engine}, nil
	}, 1, dir)
	if err != nil {
		return err
	}
	for i := int64(0); i < probeRounds; i++ {
		a, b := int64(probeSeedBase)+2*i, int64(probeSeedBase)+2*i+1
		for _, s := range []int64{a, a, b, a} {
			if _, err := r.timedGet(ctx, c, dir, s, 0, 0); err != nil {
				return fmt.Errorf("probe: %w", err)
			}
		}
	}
	return nil
}
