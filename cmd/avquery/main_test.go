package main

import (
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"avfda/internal/core"
	"avfda/internal/ontology"
	"avfda/internal/query"
	"avfda/internal/schema"
	"avfda/internal/snapshot2"
)

// fixtureEvent is one disengagement with its tag's category.
func fixtureEvent(m schema.Manufacturer, tag ontology.Tag, road schema.RoadType, mod schema.Modality,
	cause string, ts time.Time) core.Event {
	return core.Event{
		Disengagement: schema.Disengagement{
			Manufacturer: m, ReportYear: schema.Report2016, Time: ts, Cause: cause,
			Modality: mod, Road: road,
		},
		Tag:      tag,
		Category: ontology.CategoryOf(tag),
	}
}

func queryFixture(t *testing.T) *query.Engine {
	t.Helper()
	day := func(y, m, d int) time.Time { return time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC) }
	eng, err := query.New(&core.DB{Events: []core.Event{
		fixtureEvent(schema.Waymo, ontology.TagSoftware, schema.RoadHighway, schema.ModalityManual, "a", day(2015, 3, 10)),
		fixtureEvent(schema.Waymo, ontology.TagSensor, schema.RoadCityStreet, schema.ModalityAutomatic, "b", day(2015, 6, 10)),
		fixtureEvent(schema.Bosch, ontology.TagSoftware, schema.RoadHighway, schema.ModalityPlanned, "c", day(2016, 1, 10)),
	}})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestFilterByField(t *testing.T) {
	eng := queryFixture(t)
	n, err := eng.Count(query.Filter{Manufacturer: "waymo"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("mfr filter rows = %d", n)
	}
	n, err = eng.Count(query.Filter{Tag: "Software", Modality: "planned"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("combined filter rows = %d", n)
	}
}

func TestFilterByMonthRange(t *testing.T) {
	eng := queryFixture(t)
	n, err := eng.Count(query.Filter{From: "2015-04", To: "2015-12"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("range rows = %d", n)
	}
	// Inclusive end month.
	n, err = eng.Count(query.Filter{From: "2015-03", To: "2015-03"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("single-month rows = %d", n)
	}
}

func TestMalformedMonthIsTypedError(t *testing.T) {
	eng := queryFixture(t)
	for _, f := range []query.Filter{{From: "bogus"}, {To: "2015-13-01"}} {
		_, err := eng.Count(f)
		if err == nil {
			t.Fatalf("filter %+v: want error", f)
		}
		var me *query.MonthError
		if !errors.As(err, &me) {
			t.Fatalf("filter %+v: error %v is not a *query.MonthError", f, err)
		}
		if me.Field != "from" && me.Field != "to" {
			t.Errorf("MonthError.Field = %q", me.Field)
		}
		if me.Value == "" {
			t.Errorf("MonthError.Value is empty, want the rejected input")
		}
	}
}

func TestFilterEmptyMatchesAll(t *testing.T) {
	eng := queryFixture(t)
	n, err := eng.Count(query.Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if n != eng.Len() {
		t.Errorf("no-filter rows = %d", n)
	}
}

// TestGoldenListOutput pins the text listing format: the refactor onto
// internal/query must not change what existing flag combinations print.
func TestGoldenListOutput(t *testing.T) {
	eng := queryFixture(t)
	var sb strings.Builder
	if err := printRows(&sb, eng, query.Filter{}, 20); err != nil {
		t.Fatal(err)
	}
	want := "" +
		"2015-03-10  Waymo          Software                 a\n" +
		"2015-06-10  Waymo          Sensor                   b\n" +
		"2016-01-10  Bosch          Software                 c\n"
	if sb.String() != want {
		t.Errorf("listing output:\n%q\nwant:\n%q", sb.String(), want)
	}

	sb.Reset()
	if err := printRows(&sb, eng, query.Filter{}, 2); err != nil {
		t.Fatal(err)
	}
	want = "" +
		"2015-03-10  Waymo          Software                 a\n" +
		"2015-06-10  Waymo          Sensor                   b\n" +
		"... and 1 more (raise -limit or use -csv)\n"
	if sb.String() != want {
		t.Errorf("truncated listing:\n%q\nwant:\n%q", sb.String(), want)
	}
}

func TestGoldenListTruncatesLongCauses(t *testing.T) {
	long := strings.Repeat("x", 70)
	eng, err := query.New(&core.DB{Events: []core.Event{
		fixtureEvent(schema.Waymo, ontology.TagSoftware, schema.RoadUnknown, schema.ModalityUnknown,
			long, time.Date(2015, 3, 10, 0, 0, 0, 0, time.UTC)),
	}})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := printRows(&sb, eng, query.Filter{}, 20); err != nil {
		t.Fatal(err)
	}
	want := "2015-03-10  Waymo          Software                 " +
		strings.Repeat("x", 57) + "...\n"
	if sb.String() != want {
		t.Errorf("long-cause listing:\n%q\nwant:\n%q", sb.String(), want)
	}
}

// TestGoldenGroupOutput pins the group-count format and its descending
// count / ascending key ordering.
func TestGoldenGroupOutput(t *testing.T) {
	eng := queryFixture(t)
	var sb strings.Builder
	if err := printGroups(&sb, eng, query.Filter{}, "tag"); err != nil {
		t.Fatal(err)
	}
	want := "" +
		"     2  Software\n" +
		"     1  Sensor\n"
	if sb.String() != want {
		t.Errorf("group output:\n%q\nwant:\n%q", sb.String(), want)
	}

	sb.Reset()
	if err := printGroups(&sb, eng, query.Filter{}, "month"); err != nil {
		t.Fatal(err)
	}
	want = "" +
		"     1  2015-03\n" +
		"     1  2015-06\n" +
		"     1  2016-01\n"
	if sb.String() != want {
		t.Errorf("month group output:\n%q\nwant:\n%q", sb.String(), want)
	}
}

func TestGroupUnknownColumn(t *testing.T) {
	eng := queryFixture(t)
	var sb strings.Builder
	err := printGroups(&sb, eng, query.Filter{}, "bogus")
	var ce *query.ColumnError
	if !errors.As(err, &ce) {
		t.Fatalf("unknown column error = %v, want *query.ColumnError", err)
	}
	if ce.Column != "bogus" {
		t.Errorf("ColumnError.Column = %q, want %q", ce.Column, "bogus")
	}
}

func TestJSONOutputs(t *testing.T) {
	eng := queryFixture(t)
	var sb strings.Builder
	if err := writeEventsJSON(&sb, eng, query.Filter{Manufacturer: "Waymo"}, 1); err != nil {
		t.Fatal(err)
	}
	var page query.EventPage
	if err := json.Unmarshal([]byte(sb.String()), &page); err != nil {
		t.Fatalf("decode events JSON: %v", err)
	}
	if page.Total != 2 || len(page.Events) != 1 {
		t.Errorf("events JSON total=%d len=%d, want 2, 1", page.Total, len(page.Events))
	}
	if page.Events[0].Cause != "a" {
		t.Errorf("first event cause = %q", page.Events[0].Cause)
	}

	sb.Reset()
	if err := writeGroupsJSON(&sb, eng, query.Filter{}, "manufacturer"); err != nil {
		t.Fatal(err)
	}
	var groups groupsJSON
	if err := json.Unmarshal([]byte(sb.String()), &groups); err != nil {
		t.Fatalf("decode groups JSON: %v", err)
	}
	if groups.By != "manufacturer" || len(groups.Groups) != 2 {
		t.Errorf("groups JSON = %+v", groups)
	}
	if groups.Groups[0].Key != "Waymo" || groups.Groups[0].Count != 2 {
		t.Errorf("top group = %+v", groups.Groups[0])
	}
}

// TestLoadEngineSnapshotTiers pins loadEngine's single-format order: a v2
// snapshot in the directory is mapped, a missing one falls back to the
// pipeline build, and a corrupt one is a hard error rather than a silent
// rebuild.
func TestLoadEngineSnapshotTiers(t *testing.T) {
	dir := t.TempDir()
	db := &core.DB{Events: []core.Event{{
		Disengagement: schema.Disengagement{
			Manufacturer: schema.Waymo, Vehicle: "W1", ReportYear: schema.Report2016,
			Time: time.Date(2015, 3, 10, 0, 0, 0, 0, time.UTC), Cause: "software hang",
		},
		Tag:      ontology.TagSoftware,
		Category: ontology.CategoryOf(ontology.TagSoftware),
	}}}
	if _, err := snapshot2.WriteSeed(dir, 7, db); err != nil {
		t.Fatal(err)
	}

	t.Run("mapped", func(t *testing.T) {
		eng, err := loadEngine(dir, 7)
		if err != nil {
			t.Fatal(err)
		}
		if eng.Len() != 1 {
			t.Errorf("mapped engine has %d events, want the snapshot's 1", eng.Len())
		}
	})

	t.Run("missing", func(t *testing.T) {
		if testing.Short() {
			t.Skip("full pipeline build in -short mode")
		}
		eng, err := loadEngine(dir, 1)
		if err != nil {
			t.Fatal(err)
		}
		if eng.Len() < 1000 {
			t.Errorf("built engine has %d events, want a full study", eng.Len())
		}
	})

	t.Run("corrupt", func(t *testing.T) {
		// A bit-flipped copy under another seed, so the file the mapped
		// case still holds is never rewritten beneath it.
		data, err := os.ReadFile(snapshot2.Path(dir, 7))
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 1
		if err := os.WriteFile(snapshot2.Path(dir, 8), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var ce *snapshot2.ChecksumError
		if _, err := loadEngine(dir, 8); !errors.As(err, &ce) {
			t.Fatalf("corrupt snapshot: got %v, want *snapshot2.ChecksumError", err)
		}
	})
}
