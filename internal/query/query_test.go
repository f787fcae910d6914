package query

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"avfda/internal/core"
	"avfda/internal/ontology"
	"avfda/internal/schema"
)

// fixtureEngine builds a small five-row engine with known values.
func fixtureEngine(t *testing.T) *Engine {
	t.Helper()
	ev := func(m schema.Manufacturer, tag ontology.Tag, road schema.RoadType, w schema.Weather,
		mod schema.Modality, cause string, ts time.Time, reaction float64) core.Event {
		return core.Event{
			Disengagement: schema.Disengagement{
				Manufacturer: m, ReportYear: schema.Report2016, Time: ts, Cause: cause,
				Modality: mod, Road: road, Weather: w, ReactionSeconds: reaction,
			},
			Tag:      tag,
			Category: ontology.CategoryOf(tag),
		}
	}
	day := func(y, m, d int) time.Time { return time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC) }
	db := &core.DB{Events: []core.Event{
		ev(schema.Waymo, ontology.TagSoftware, schema.RoadHighway, schema.WeatherSunny,
			schema.ModalityManual, "a", day(2015, 3, 10), 0.5),
		ev(schema.Waymo, ontology.TagSensor, schema.RoadCityStreet, schema.WeatherRaining,
			schema.ModalityAutomatic, "b", day(2015, 6, 10), -1),
		ev(schema.Bosch, ontology.TagSoftware, schema.RoadHighway, schema.WeatherUnknown,
			schema.ModalityPlanned, "c", day(2016, 1, 10), 1.25),
		ev(schema.Delphi, ontology.TagPlanner, schema.RoadUnknown, schema.WeatherSunny,
			schema.ModalityManual, "d", day(2016, 5, 2), 0.5),
		ev(schema.Waymo, ontology.TagSoftware, schema.RoadHighway, schema.WeatherFoggy,
			schema.ModalityManual, "e", day(2016, 11, 30), -1),
	}}
	eng, err := New(db)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// hooklessEngine is the fixture's Source behind an engine with no
// database hook.
func hooklessEngine(t *testing.T) *Engine {
	t.Helper()
	eng, err := NewFromSource(fixtureEngine(t).src, nil)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestPredicates(t *testing.T) {
	eng := fixtureEngine(t)
	tests := []struct {
		name   string
		filter Filter
		want   []int
	}{
		{"empty matches all", Filter{}, []int{0, 1, 2, 3, 4}},
		{"manufacturer", Filter{Manufacturer: "Waymo"}, []int{0, 1, 4}},
		{"manufacturer case-insensitive", Filter{Manufacturer: "wAYmo"}, []int{0, 1, 4}},
		{"tag", Filter{Tag: "Software"}, []int{0, 2, 4}},
		{"category", Filter{Category: "ml/design"}, []int{3}},
		{"road", Filter{Road: "highway"}, []int{0, 2, 4}},
		{"weather", Filter{Weather: "sunny"}, []int{0, 3}},
		{"modality", Filter{Modality: "manual"}, []int{0, 3, 4}},
		{"from only", Filter{From: "2016-01"}, []int{2, 3, 4}},
		{"to only", Filter{To: "2015-12"}, []int{0, 1}},
		{"from==to single month", Filter{From: "2015-06", To: "2015-06"}, []int{1}},
		{"inverted range", Filter{From: "2016-06", To: "2015-01"}, []int{}},
		{"conjunction", Filter{Manufacturer: "Waymo", Tag: "Software", Road: "highway"}, []int{0, 4}},
		{"conjunction with range", Filter{Tag: "Software", From: "2016-01"}, []int{2, 4}},
		{"unknown manufacturer", Filter{Manufacturer: "DeLorean"}, []int{}},
		{"unknown tag", Filter{Tag: "Flux Capacitor"}, []int{}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := eng.Select(tc.filter)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Select(%+v) = %v, want %v", tc.filter, got, tc.want)
			}
			scan, err := eng.SelectScan(tc.filter)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(scan, tc.want) {
				t.Errorf("SelectScan(%+v) = %v, want %v", tc.filter, scan, tc.want)
			}
		})
	}
}

func TestMonthErrors(t *testing.T) {
	eng := fixtureEngine(t)
	for _, tc := range []struct {
		filter Filter
		field  string
	}{
		{Filter{From: "nope"}, "from"},
		{Filter{To: "2015"}, "to"},
		{Filter{From: "2015-01", To: "12-2015"}, "to"},
	} {
		_, err := eng.Select(tc.filter)
		var me *MonthError
		if !errors.As(err, &me) {
			t.Fatalf("Select(%+v) error = %v, want *MonthError", tc.filter, err)
		}
		if me.Field != tc.field {
			t.Errorf("MonthError.Field = %q, want %q", me.Field, tc.field)
		}
		if me.Unwrap() == nil {
			t.Error("MonthError.Unwrap() = nil")
		}
		if tc.filter.Validate() == nil {
			t.Errorf("Validate(%+v) = nil, want error", tc.filter)
		}
	}
	if err := (Filter{From: "2015-01", To: "2016-11"}).Validate(); err != nil {
		t.Errorf("valid range: %v", err)
	}
}

// randomEngine generates a deterministic pseudo-random database for the
// equivalence property test and the selection benchmarks.
func randomEngine(t testing.TB, rng *rand.Rand, n int) *Engine {
	t.Helper()
	mfrs := []schema.Manufacturer{schema.Waymo, schema.Bosch, schema.Delphi, schema.GMCruise, schema.Tesla, ""}
	tags := []ontology.Tag{ontology.TagSoftware, ontology.TagSensor, ontology.TagPlanner,
		ontology.TagRecognitionSystem, ontology.TagUnknownT}
	cats := ontology.AllCategories()
	roads := []schema.RoadType{schema.RoadHighway, schema.RoadCityStreet, schema.RoadRural, schema.RoadUnknown}
	weathers := []schema.Weather{schema.WeatherSunny, schema.WeatherRaining, schema.WeatherFoggy, schema.WeatherUnknown}
	modalities := []schema.Modality{schema.ModalityManual, schema.ModalityAutomatic, schema.ModalityPlanned}

	start := time.Date(2014, 9, 1, 0, 0, 0, 0, time.UTC)
	db := &core.DB{Events: make([]core.Event, n)}
	for i := range db.Events {
		db.Events[i] = core.Event{
			Disengagement: schema.Disengagement{
				Manufacturer: mfrs[rng.Intn(len(mfrs))],
				Time:         start.AddDate(0, rng.Intn(27), rng.Intn(28)),
				Modality:     modalities[rng.Intn(len(modalities))],
				Road:         roads[rng.Intn(len(roads))],
				Weather:      weathers[rng.Intn(len(weathers))],
			},
			Tag:      tags[rng.Intn(len(tags))],
			Category: cats[rng.Intn(len(cats))],
		}
	}
	eng, err := New(db)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestIndexScanEquivalence is the property test behind the indexed path:
// for random corpora and random filters, Select (inverted indexes) must
// return exactly what SelectScan (full scan) returns.
func TestIndexScanEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	eng := randomEngine(t, rng, 500)
	maybe := func(opts []string) string {
		if rng.Intn(2) == 0 {
			return ""
		}
		return opts[rng.Intn(len(opts))]
	}
	months := []string{"", "2014-09", "2015-03", "2015-12", "2016-06", "2016-11"}
	for trial := 0; trial < 200; trial++ {
		f := Filter{
			Manufacturer: maybe([]string{"Waymo", "bosch", "DELPHI", "Tesla", "Nissan"}),
			Tag:          maybe([]string{"Software", "sensor", "Planner", "No Such Tag"}),
			Category:     maybe([]string{"System", "ml/design", "Unknown-C"}),
			Road:         maybe([]string{"highway", "rural", "parking lot"}),
			Weather:      maybe([]string{"sunny", "raining"}),
			Modality:     maybe([]string{"Manual", "automatic"}),
			From:         months[rng.Intn(len(months))],
			To:           months[rng.Intn(len(months))],
		}
		indexed, err := eng.Select(f)
		if err != nil {
			t.Fatal(err)
		}
		scanned, err := eng.SelectScan(f)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(indexed, scanned) {
			t.Fatalf("trial %d: filter %+v: indexed %v != scanned %v", trial, f, indexed, scanned)
		}
	}
	checkEmptyFilterPages(t, eng)
}

// checkEmptyFilterPages holds the empty filter's identity-range pages to
// the SelectScan reference: offsets 0, middle, n-1, n and past n, with a
// positive limit and with Limit <= 0 (unlimited).
func checkEmptyFilterPages(t *testing.T, eng *Engine) {
	t.Helper()
	ids, err := eng.SelectScan(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	n := len(ids)
	if n != eng.Len() {
		t.Fatalf("SelectScan(Filter{}) matched %d of %d rows", n, eng.Len())
	}
	for _, offset := range []int{0, n / 2, n - 1, n, n + 50} {
		for _, limit := range []int{50, 0, -1} {
			p := Page{Offset: offset, Limit: limit}
			got, err := eng.Events(Filter{}, p)
			if err != nil {
				t.Fatal(err)
			}
			want := EventPage{Total: n, Offset: offset, Limit: limit, Events: []Event{}}
			end := n
			if limit > 0 {
				end = min(offset+limit, n)
			}
			for k := offset; k < end; k++ {
				want.Events = append(want.Events, eng.event(ids[k]))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Events(Filter{}, %+v): %d events, total %d; want %d events, total %d",
					p, len(got.Events), got.Total, len(want.Events), want.Total)
			}
		}
	}
	count, err := eng.Count(Filter{})
	if err != nil || count != n {
		t.Fatalf("Count(Filter{}) = %d, %v; want %d", count, err, n)
	}
}

// countingSource counts the distinct rows an engine reads through any
// column accessor.
type countingSource struct {
	Source
	seen map[int]bool
}

func (c *countingSource) mark(i int)                { c.seen[i] = true }
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

// TestRowsReadFollowFilter pins what the executor reads: an unknown
// group-by column is rejected before any row is read, and an empty
// filter's page reads exactly the page's rows.
func TestRowsReadFollowFilter(t *testing.T) {
	src := &countingSource{Source: randomEngine(t, rand.New(rand.NewSource(3)), 200).src, seen: map[int]bool{}}
	eng, err := NewFromSource(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.GroupCount(Filter{}, "nope")
	var ce *ColumnError
	if !errors.As(err, &ce) {
		t.Fatalf("GroupCount(Filter{}, \"nope\") error = %v, want *ColumnError", err)
	}
	if len(src.seen) != 0 {
		t.Fatalf("rejecting an unknown column read %d rows, want 0", len(src.seen))
	}
	page, err := eng.Events(Filter{}, Page{Offset: 120, Limit: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Events) != 50 || len(src.seen) != 50 {
		t.Fatalf("empty-filter page returned %d events and read %d rows, want 50 and 50", len(page.Events), len(src.seen))
	}
	for i := range src.seen {
		if i < 120 || i >= 170 {
			t.Fatalf("empty-filter page at offset 120 read row %d", i)
		}
	}
}

func TestPagination(t *testing.T) {
	eng := fixtureEngine(t)
	tests := []struct {
		name       string
		page       Page
		wantLen    int
		wantFirst  string // first event's cause, "" when empty
		wantTotal  int
		wantOffset int
	}{
		{"all with zero limit", Page{}, 5, "a", 5, 0},
		{"first page", Page{Limit: 2}, 2, "a", 5, 0},
		{"middle page", Page{Offset: 2, Limit: 2}, 2, "c", 5, 2},
		{"last partial page", Page{Offset: 4, Limit: 2}, 1, "e", 5, 4},
		{"offset at total", Page{Offset: 5, Limit: 2}, 0, "", 5, 5},
		{"offset past total", Page{Offset: 99, Limit: 2}, 0, "", 5, 99},
		{"negative offset clamps", Page{Offset: -3, Limit: 2}, 2, "a", 5, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			page, err := eng.Events(Filter{}, tc.page)
			if err != nil {
				t.Fatal(err)
			}
			if page.Total != tc.wantTotal || page.Offset != tc.wantOffset {
				t.Errorf("page meta = total %d offset %d, want %d, %d",
					page.Total, page.Offset, tc.wantTotal, tc.wantOffset)
			}
			if page.Events == nil {
				t.Fatal("Events slice is nil; want non-nil for JSON []")
			}
			if len(page.Events) != tc.wantLen {
				t.Fatalf("len(events) = %d, want %d", len(page.Events), tc.wantLen)
			}
			if tc.wantLen > 0 && page.Events[0].Cause != tc.wantFirst {
				t.Errorf("first cause = %q, want %q", page.Events[0].Cause, tc.wantFirst)
			}
		})
	}

	t.Run("empty filter result", func(t *testing.T) {
		page, err := eng.Events(Filter{Manufacturer: "DeLorean"}, Page{Limit: 10})
		if err != nil {
			t.Fatal(err)
		}
		if page.Total != 0 || len(page.Events) != 0 || page.Events == nil {
			t.Errorf("empty result page = %+v", page)
		}
	})
}

func TestGroupCount(t *testing.T) {
	eng := fixtureEngine(t)
	got, err := eng.GroupCount(Filter{}, "tag")
	if err != nil {
		t.Fatal(err)
	}
	want := []GroupCount{{"Software", 3}, {"Planner", 1}, {"Sensor", 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("GroupCount(tag) = %v, want %v", got, want)
	}

	got, err = eng.GroupCount(Filter{Manufacturer: "Waymo"}, "month")
	if err != nil {
		t.Fatal(err)
	}
	want = []GroupCount{{"2015-03", 1}, {"2015-06", 1}, {"2016-11", 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("GroupCount(month) = %v, want %v", got, want)
	}

	// Free-text, time and numeric columns group straight off the Source,
	// in frame.GroupBy's key forms.
	for _, tc := range []struct {
		by   string
		want []GroupCount
	}{
		{"cause", []GroupCount{{"a", 1}, {"c", 1}, {"e", 1}}},
		{"reactionSeconds", []GroupCount{{"-1", 1}, {"0.5", 1}, {"1.25", 1}}},
		{"time", []GroupCount{{"2015-03-10T00:00:00Z", 1}, {"2016-01-10T00:00:00Z", 1}, {"2016-11-30T00:00:00Z", 1}}},
		{"reportYear", []GroupCount{{"2015-2016", 3}}},
		{"vehicle", []GroupCount{{"", 3}}},
	} {
		got, err := eng.GroupCount(Filter{Tag: "Software"}, tc.by)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("GroupCount(%s) = %v, want %v", tc.by, got, tc.want)
		}
	}
	if got, want := len(GroupColumns()), 12; got != want {
		t.Errorf("GroupColumns() has %d columns, want %d", got, want)
	}
	for _, by := range GroupColumns() {
		if !IsGroupColumn(by) {
			t.Errorf("IsGroupColumn(%q) = false for a listed column", by)
		}
	}

	if _, err := eng.GroupCount(Filter{}, "nope"); err == nil {
		t.Error("unknown column: want error")
	}
}

func TestFrameProjection(t *testing.T) {
	eng := fixtureEngine(t)
	fr, err := eng.Frame(Filter{Manufacturer: "Waymo", Tag: "Software"})
	if err != nil {
		t.Fatal(err)
	}
	if fr.NumRows() != 2 {
		t.Errorf("projected rows = %d, want 2", fr.NumRows())
	}
	causes, err := fr.StringsCol("cause")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(causes, []string{"a", "e"}) {
		t.Errorf("projected causes = %v", causes)
	}
}

func TestNewNilInputs(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("New(nil): want error")
	}
	if _, err := NewFromSource(nil, nil); err == nil {
		t.Error("NewFromSource(nil, nil): want error")
	}
}

func TestReliabilityRequiresDB(t *testing.T) {
	eng := hooklessEngine(t)
	if _, err := eng.Reliability(); err == nil {
		t.Error("hookless engine Reliability: want error")
	}
	if _, err := eng.Frame(Filter{}); err == nil {
		t.Error("hookless engine Frame: want error")
	}
}

func BenchmarkSelectIndexed(b *testing.B) { benchmarkSelect(b, true) }
func BenchmarkSelectScan(b *testing.B)    { benchmarkSelect(b, false) }

// benchmarkSelect measures a selective manufacturer+tag query on a 20k-row
// corpus through both paths; the indexed path should win by the corpus /
// posting-list size ratio.
func benchmarkSelect(b *testing.B, indexed bool) {
	rng := rand.New(rand.NewSource(11))
	eng := randomEngine(b, rng, 20000)
	f := Filter{Manufacturer: "Waymo", Tag: "Sensor"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if indexed {
			_, err = eng.Select(f)
		} else {
			_, err = eng.SelectScan(f)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// accidentsEngine builds a small database-backed engine with two accident
// reports for the Accidents listing tests.
func accidentsEngine(t *testing.T) *Engine {
	t.Helper()
	month := func(m int) time.Time { return time.Date(2015, time.Month(m), 4, 0, 0, 0, 0, time.UTC) }
	db := &core.DB{
		Events: []core.Event{
			{Disengagement: schema.Disengagement{
				Manufacturer: schema.Waymo, ReportYear: schema.Report2016,
				Time: month(3), Cause: "software hang",
			}, Tag: ontology.TagSoftware, Category: ontology.CategoryOf(ontology.TagSoftware)},
		},
		Accidents: []schema.Accident{
			{Manufacturer: schema.Waymo, Vehicle: "W1", ReportYear: schema.Report2016,
				Time: month(7), Location: "El Camino Real", AVSpeedMPH: 5, OtherSpeedMPH: 10,
				InAutonomousMode: true},
			{Manufacturer: schema.Bosch, Vehicle: "B1", ReportYear: schema.Report2016,
				Time: month(9), Location: "First St", AVSpeedMPH: 2},
		},
	}
	eng, err := New(db)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestAccidents(t *testing.T) {
	eng := accidentsEngine(t)
	tests := []struct {
		name          string
		filter        Filter
		page          Page
		wantTotal     int
		wantLocations []string
	}{
		{"all", Filter{}, Page{}, 2, []string{"El Camino Real", "First St"}},
		{"manufacturer case-insensitive", Filter{Manufacturer: "bosch"}, Page{}, 1, []string{"First St"}},
		{"month range", Filter{From: "2015-01", To: "2015-08"}, Page{}, 1, []string{"El Camino Real"}},
		{"range excludes all", Filter{From: "2016-01"}, Page{}, 0, nil},
		{"paginated", Filter{}, Page{Limit: 1}, 2, []string{"El Camino Real"}},
		{"second page", Filter{}, Page{Offset: 1, Limit: 1}, 2, []string{"First St"}},
		{"offset past total", Filter{}, Page{Offset: 9, Limit: 1}, 2, nil},
		{"negative offset clamps", Filter{}, Page{Offset: -2, Limit: 1}, 2, []string{"El Camino Real"}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			page, err := eng.Accidents(tc.filter, tc.page)
			if err != nil {
				t.Fatal(err)
			}
			if page.Total != tc.wantTotal {
				t.Errorf("total = %d, want %d", page.Total, tc.wantTotal)
			}
			if page.Accidents == nil {
				t.Fatal("Accidents slice is nil; want non-nil for JSON []")
			}
			var locs []string
			for _, a := range page.Accidents {
				locs = append(locs, a.Location)
			}
			if !reflect.DeepEqual(locs, tc.wantLocations) {
				t.Errorf("locations = %v, want %v", locs, tc.wantLocations)
			}
		})
	}
}

func TestAccidentsErrors(t *testing.T) {
	eng := accidentsEngine(t)
	_, err := eng.Accidents(Filter{From: "bogus"}, Page{})
	var me *MonthError
	if !errors.As(err, &me) {
		t.Errorf("malformed month error = %v, want *MonthError", err)
	}
	if _, err := hooklessEngine(t).Accidents(Filter{}, Page{}); err == nil {
		t.Error("hookless engine Accidents: want error")
	}
}

// TestColumnErrorTyped pins the unknown-column contract: the error is a
// *ColumnError reachable with errors.As (transports classify on the type,
// not the message), and the message still names the column for humans.
func TestColumnErrorTyped(t *testing.T) {
	eng := fixtureEngine(t)
	_, err := eng.GroupCount(Filter{}, "bogus")
	var ce *ColumnError
	if !errors.As(err, &ce) {
		t.Fatalf("GroupCount error = %v, want *ColumnError", err)
	}
	if ce.Column != "bogus" {
		t.Errorf("ColumnError.Column = %q", ce.Column)
	}
	if ce.Unwrap() == nil {
		t.Error("ColumnError.Unwrap() = nil")
	}
	//lint:allow errsubstr this test pins the human-readable rendering of ColumnError.Error itself
	if !strings.Contains(err.Error(), `group by "bogus"`) {
		t.Errorf("error %q does not name the column", err)
	}
	// Wrapping must not break classification.
	wrapped := fmt.Errorf("engine: %w", err)
	if !errors.As(wrapped, &ce) {
		t.Error("wrapped ColumnError not found by errors.As")
	}
}
