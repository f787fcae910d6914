package snapshot2

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"avfda/internal/core"
	"avfda/internal/query"
	"avfda/internal/synth"
)

// jsonBytes renders v the way the avserve API would, so "results are
// byte-identical" is checked at the serialization boundary clients see.
func jsonBytes(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSnapshotV2QueryEquivalence is the contract that lets avserve swap a
// mapped View in where a deserialized database used to be: an engine
// backed by the v2 columns answers every query byte-identically to an
// engine built fresh on the original in-memory database. 250 randomized
// filters sweep the full query surface — event pages, accident pages,
// group counts over the typed columns and the dataframe-fallback columns,
// counts, indexed-vs-scan selection, reliability metrics, and CSV export.
// Then, on the calibrated seed-1 and seed-2 studies, every group-by column
// of both engines is held to a dataframe reference.
func TestSnapshotV2QueryEquivalence(t *testing.T) {
	db := testDB(11, 400, 40)
	data, err := Encode(db)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(data)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := query.New(db)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := query.NewFromSource(v, v.Database)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Len() != mapped.Len() {
		t.Fatalf("Len: fresh %d, mapped %d", fresh.Len(), mapped.Len())
	}

	rng := rand.New(rand.NewSource(99))
	pick := func(opts ...string) string { return opts[rng.Intn(len(opts))] }
	// The draws pick from a fixed ten-column list so the rng sequence does
	// not depend on GroupColumns; every column is checked on the
	// calibrated studies below.
	groupBys := []string{"manufacturer", "tag", "category", "road", "weather", "modality", "month",
		"cause", "vehicle", "reportYear"}
	for i := 0; i < 250; i++ {
		f := query.Filter{
			Manufacturer: pick("", "Waymo", "bosch", "Delphi", "Nissan"),
			Tag:          pick("", "Planner", "software", "Recognition System"),
			Category:     pick("", "ML/Design", "system"),
			Road:         pick("", "highway", "city street"),
			Weather:      pick("", "raining", "sunny"),
			Modality:     pick("", "manual", "automatic"),
			From:         pick("", "2015-01", "2015-06"),
			To:           pick("", "2015-12", "2016-06"),
		}
		page := query.Page{Offset: rng.Intn(20), Limit: 1 + rng.Intn(50)}

		wantN, err := fresh.Count(f)
		if err != nil {
			t.Fatal(err)
		}
		gotN, err := mapped.Count(f)
		if err != nil {
			t.Fatal(err)
		}
		if wantN != gotN {
			t.Fatalf("filter %+v: count fresh %d, mapped %d", f, wantN, gotN)
		}

		wantEv, err := fresh.Events(f, page)
		if err != nil {
			t.Fatal(err)
		}
		gotEv, err := mapped.Events(f, page)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(jsonBytes(t, wantEv), jsonBytes(t, gotEv)) {
			t.Fatalf("filter %+v: event pages diverge", f)
		}

		wantAcc, err := fresh.Accidents(f, page)
		if err != nil {
			t.Fatal(err)
		}
		gotAcc, err := mapped.Accidents(f, page)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(jsonBytes(t, wantAcc), jsonBytes(t, gotAcc)) {
			t.Fatalf("filter %+v: accident pages diverge", f)
		}

		by := groupBys[rng.Intn(len(groupBys))]
		wantGr, err := fresh.GroupCount(f, by)
		if err != nil {
			t.Fatal(err)
		}
		gotGr, err := mapped.GroupCount(f, by)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(jsonBytes(t, wantGr), jsonBytes(t, gotGr)) {
			t.Fatalf("filter %+v by %s: group counts diverge", f, by)
		}

		// The mapped engine's posting lists must agree with its own scan
		// path, the same invariant the in-heap indexes are held to.
		indexed, err := mapped.Select(f)
		if err != nil {
			t.Fatal(err)
		}
		scanned, err := mapped.SelectScan(f)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(indexed, scanned) {
			t.Fatalf("filter %+v: mapped engine's index disagrees with scan", f)
		}

		if i%25 == 0 {
			var wantCSV, gotCSV bytes.Buffer
			wantFr, err := fresh.Frame(f)
			if err != nil {
				t.Fatal(err)
			}
			gotFr, err := mapped.Frame(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := wantFr.WriteCSV(&wantCSV); err != nil {
				t.Fatal(err)
			}
			if err := gotFr.WriteCSV(&gotCSV); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantCSV.Bytes(), gotCSV.Bytes()) {
				t.Fatalf("filter %+v: CSV export diverges", f)
			}
		}
	}

	wantRel, err := fresh.Reliability()
	if err != nil {
		t.Fatal(err)
	}
	gotRel, err := mapped.Reliability()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonBytes(t, wantRel), jsonBytes(t, gotRel)) {
		t.Fatal("reliability metrics diverge")
	}

	for _, seed := range []int64{1, 2} {
		checkGroupCountsAgainstFrame(t, seedStudy(t, seed))
	}
}

// seedStudy is the calibrated synthetic study for seed, consolidated from
// the generator's ground-truth tags (no render, OCR or classification).
func seedStudy(tb testing.TB, seed int64) *core.DB {
	tb.Helper()
	tr, err := synth.Generate(synth.Config{Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	db, err := core.BuildWithTags(&tr.Corpus, tr.Tags)
	if err != nil {
		tb.Fatal(err)
	}
	return db
}

// heapAndMapped returns query.New's engine over db and an engine over
// db's in-memory v2 View, with hook as the mapped engine's database hook.
func heapAndMapped(tb testing.TB, db *core.DB, hook func() (*core.DB, error)) (heap, mapped *query.Engine, v *View) {
	tb.Helper()
	data, err := Encode(db)
	if err != nil {
		tb.Fatal(err)
	}
	v, err = NewView(data)
	if err != nil {
		tb.Fatal(err)
	}
	heap, err = query.New(db)
	if err != nil {
		tb.Fatal(err)
	}
	mapped, err = query.NewFromSource(v, hook)
	if err != nil {
		tb.Fatal(err)
	}
	return heap, mapped, v
}

// checkGroupCountsAgainstFrame holds both engines' GroupCount, for every
// column and a spread of filters, to the dataframe reference: frame.GroupBy
// over EventsFrame().Take(SelectScan ids), with "month" added as a
// "YYYY-MM" column rendered from "time".
func checkGroupCountsAgainstFrame(t *testing.T, db *core.DB) {
	t.Helper()
	heap, mapped, _ := heapAndMapped(t, db, nil)
	fr, err := db.EventsFrame()
	if err != nil {
		t.Fatal(err)
	}
	times, err := fr.Times("time")
	if err != nil {
		t.Fatal(err)
	}
	months := make([]string, len(times))
	for i, ts := range times {
		months[i] = ts.Format("2006-01")
	}
	if err := fr.AddStrings("month", months); err != nil {
		t.Fatal(err)
	}
	for _, f := range []query.Filter{
		{},
		{Manufacturer: "Waymo"},
		{Tag: "Planner", From: "2015-06"},
		{Category: "ml/design", Road: "highway"},
		{Weather: "sunny", Modality: "manual", To: "2015-12"},
	} {
		ids, err := heap.SelectScan(f)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := fr.Take(ids)
		if err != nil {
			t.Fatal(err)
		}
		for _, by := range query.GroupColumns() {
			groups, err := sub.GroupBy(by)
			if err != nil {
				t.Fatalf("reference GroupBy(%s): %v", by, err)
			}
			want := make([]query.GroupCount, 0, len(groups))
			for _, g := range groups {
				want = append(want, query.GroupCount{Key: g.Key[0], Count: g.Frame.NumRows()})
			}
			sort.Slice(want, func(i, j int) bool {
				if want[i].Count != want[j].Count {
					return want[i].Count > want[j].Count
				}
				return want[i].Key < want[j].Key
			})
			for _, eng := range []struct {
				name string
				*query.Engine
			}{{"heap", heap}, {"mapped", mapped}} {
				got, err := eng.GroupCount(f, by)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(jsonBytes(t, want), jsonBytes(t, got)) {
					t.Fatalf("%s engine, filter %+v by %s: GroupCount differs from frame.GroupBy", eng.name, f, by)
				}
			}
		}
	}
}

// TestMappedGroupCountSkipsDatabase pins that a mapped engine answers
// every group-by column from its View alone: the database hook fails the
// test if GroupCount ever reaches for it.
func TestMappedGroupCountSkipsDatabase(t *testing.T) {
	_, mapped, _ := heapAndMapped(t, testDB(3, 300, 10), func() (*core.DB, error) {
		t.Error("GroupCount called the database hook")
		return nil, errors.New("database hook called")
	})
	for _, by := range query.GroupColumns() {
		for _, f := range []query.Filter{{}, {Manufacturer: "waymo", From: "2015-01"}} {
			if _, err := mapped.GroupCount(f, by); err != nil {
				t.Errorf("GroupCount(%+v, %s): %v", f, by, err)
			}
		}
	}
}

// sourceRow is one event read through a query.Source (or an EventsFrame
// row), with its time in the RFC 3339 form group keys and JSON both use.
type sourceRow struct {
	mfr, vehicle, year, time, cause, tag, category, modality, road, weather string
	reaction                                                                float64
}

// TestSourcesMatchEventsFrame checks, row by row on the calibrated seed-1
// and seed-2 studies, that query.New's Source (read back through Events)
// and a View's accessors hold exactly core.DB.EventsFrame's columns.
func TestSourcesMatchEventsFrame(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		db := seedStudy(t, seed)
		heap, _, v := heapAndMapped(t, db, nil)
		fr, err := db.EventsFrame()
		if err != nil {
			t.Fatal(err)
		}
		str := func(name string) []string {
			col, err := fr.StringsCol(name)
			if err != nil {
				t.Fatal(err)
			}
			return col
		}
		mfr, vehicle, year, cause := str("manufacturer"), str("vehicle"), str("reportYear"), str("cause")
		tag, category, modality, road, weather := str("tag"), str("category"), str("modality"), str("road"), str("weather")
		times, err := fr.Times("time")
		if err != nil {
			t.Fatal(err)
		}
		reaction, err := fr.Floats("reactionSeconds")
		if err != nil {
			t.Fatal(err)
		}
		page, err := heap.Events(query.Filter{}, query.Page{})
		if err != nil {
			t.Fatal(err)
		}
		if len(page.Events) != fr.NumRows() || v.NumRows() != fr.NumRows() {
			t.Fatalf("seed %d: rows heap %d, view %d, frame %d", seed, len(page.Events), v.NumRows(), fr.NumRows())
		}
		for i, ev := range page.Events {
			want := sourceRow{mfr[i], vehicle[i], year[i], times[i].Format(time.RFC3339Nano), cause[i],
				tag[i], category[i], modality[i], road[i], weather[i], reaction[i]}
			fromHeap := sourceRow{ev.Manufacturer, ev.Vehicle, ev.ReportYear, ev.Time.Format(time.RFC3339Nano),
				ev.Cause, ev.Tag, ev.Category, ev.Modality, ev.Road, ev.Weather, ev.ReactionSeconds}
			fromView := sourceRow{v.Manufacturer(i), v.Vehicle(i), v.ReportYear(i), v.Time(i).Format(time.RFC3339Nano),
				v.Cause(i), v.Tag(i), v.Category(i), v.Modality(i), v.Road(i), v.Weather(i), v.ReactionSeconds(i)}
			if fromHeap != want {
				t.Fatalf("seed %d row %d: New's Source %+v, EventsFrame %+v", seed, i, fromHeap, want)
			}
			if fromView != want {
				t.Fatalf("seed %d row %d: View %+v, EventsFrame %+v", seed, i, fromView, want)
			}
		}
	}
}
