package parse

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"avfda/internal/ocr"
	"avfda/internal/scandoc"
	"avfda/internal/schema"
	"avfda/internal/synth"
)

// renderAndParse runs corpus -> documents -> OCR(cfg) -> parse.
func renderAndParse(t *testing.T, c *schema.Corpus, cfg ocr.Config) (*schema.Corpus, *Report) {
	t.Helper()
	docs := scandoc.Render(c)
	eng, err := ocr.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := eng.DecodeAll(context.Background(), docs, 1)
	if err != nil {
		t.Fatal(err)
	}
	var inputs []Input
	for _, res := range decoded {
		inputs = append(inputs, Input{DocID: res.DocID, Lines: res.Lines})
	}
	out, rep := Parse(inputs, 1)
	return out, rep
}

func TestRoundTripCleanOCRIsExact(t *testing.T) {
	truth, err := synth.Generate(synth.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	got, rep := renderAndParse(t, &truth.Corpus, ocr.Clean())
	if len(rep.Defects) != 0 {
		t.Fatalf("clean OCR produced %d defects, first: %+v", len(rep.Defects), rep.Defects[0])
	}
	if len(got.Disengagements) != len(truth.Corpus.Disengagements) {
		t.Fatalf("disengagements %d, want %d", len(got.Disengagements), len(truth.Corpus.Disengagements))
	}
	if len(got.Accidents) != len(truth.Corpus.Accidents) {
		t.Fatalf("accidents %d, want %d", len(got.Accidents), len(truth.Corpus.Accidents))
	}
	if len(got.Mileage) != len(truth.Corpus.Mileage) {
		t.Fatalf("mileage rows %d, want %d", len(got.Mileage), len(truth.Corpus.Mileage))
	}
	// Field-level spot checks on every disengagement (order is preserved
	// per document; both corpora order by manufacturer-year profile).
	for i := range got.Disengagements {
		a, b := got.Disengagements[i], truth.Corpus.Disengagements[i]
		if a.Manufacturer != b.Manufacturer || a.Vehicle != b.Vehicle ||
			!a.Time.Equal(b.Time) || a.Cause != b.Cause || a.Modality != b.Modality ||
			a.Road != b.Road {
			t.Fatalf("event %d mismatch:\n got %+v\nwant %+v", i, a, b)
		}
		if b.HasReaction() != a.HasReaction() {
			t.Fatalf("event %d reaction presence mismatch", i)
		}
		if b.HasReaction() && math.Abs(a.ReactionSeconds-b.ReactionSeconds) > 0.0005 {
			t.Fatalf("event %d reaction %g vs %g", i, a.ReactionSeconds, b.ReactionSeconds)
		}
	}
	// Miles totals are preserved to rendering precision (2 decimals/row).
	if math.Abs(got.TotalMiles()-truth.Corpus.TotalMiles()) > 0.01*float64(len(got.Mileage)) {
		t.Errorf("total miles %f vs %f", got.TotalMiles(), truth.Corpus.TotalMiles())
	}
}

func TestRoundTripNoisyOCRLowDefectRate(t *testing.T) {
	truth, err := synth.Generate(synth.Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	got, rep := renderAndParse(t, &truth.Corpus, ocr.DefaultConfig())
	rate := rep.DefectRate()
	if rate > 0.05 {
		t.Errorf("defect rate = %.4f, want <= 0.05 at default noise", rate)
	}
	// At least 95% of events survive.
	if float64(len(got.Disengagements)) < 0.95*float64(len(truth.Corpus.Disengagements)) {
		t.Errorf("survived %d of %d events", len(got.Disengagements), len(truth.Corpus.Disengagements))
	}
	if err := got.Validate(); err != nil {
		t.Errorf("noisy parse output invalid: %v", err)
	}
}

func TestParseAccidentFields(t *testing.T) {
	truth, err := synth.Generate(synth.Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := renderAndParse(t, &truth.Corpus, ocr.Clean())
	var redacted, withSpeeds int
	for i := range got.Accidents {
		a, b := got.Accidents[i], truth.Corpus.Accidents[i]
		if a.Manufacturer != b.Manufacturer {
			t.Fatalf("accident %d manufacturer %s vs %s", i, a.Manufacturer, b.Manufacturer)
		}
		if a.Redacted != b.Redacted || a.Vehicle != b.Vehicle {
			t.Fatalf("accident %d redaction mismatch", i)
		}
		if a.InAutonomousMode != b.InAutonomousMode {
			t.Fatalf("accident %d autonomy flag mismatch", i)
		}
		if b.AVSpeedMPH >= 0 && math.Abs(a.AVSpeedMPH-b.AVSpeedMPH) > 0.05 {
			t.Fatalf("accident %d AV speed %g vs %g", i, a.AVSpeedMPH, b.AVSpeedMPH)
		}
		if a.Location != b.Location {
			t.Fatalf("accident %d location %q vs %q", i, a.Location, b.Location)
		}
		if a.Narrative == "" {
			t.Fatalf("accident %d lost narrative", i)
		}
		if a.Redacted {
			redacted++
		}
		if a.RelativeSpeedMPH() >= 0 {
			withSpeeds++
		}
	}
	if redacted == 0 {
		t.Error("no redacted accidents survived parsing")
	}
	if withSpeeds == 0 {
		t.Error("no accident speeds parsed")
	}
}

func TestParseDefectsOnDamage(t *testing.T) {
	// A mileage row with a dropped separator becomes a defect, not a
	// silent drop.
	doc := []string{
		"CALIFORNIA DMV ANNUAL REPORT OF AUTONOMOUS VEHICLE DISENGAGEMENTS",
		"Manufacturer: Nissan",
		"Reporting Period: 2015-2016",
		"Fleet Size: 4",
		"",
		"SECTION 1: AUTONOMOUS MILES BY VEHICLE AND MONTH",
		"VEHICLE | MONTH | MILES",
		"Nissan-1-car01 | 2015-03  120.00", // separator lost
		"Nissan-1-car01 | 2015-04 | 130.00",
		"",
		"SECTION 2: DISENGAGEMENT EVENTS (1 TOTAL)",
		"3/14/15 — 1:25:00 PM — Nissan-1-car01 — Software module froze — highway — sunny — 0.9 s — manual",
	}
	corpus, rep := Parse([]Input{{DocID: "d", Lines: doc}}, 1)
	if len(rep.Defects) != 1 {
		t.Fatalf("defects = %+v, want exactly 1", rep.Defects)
	}
	if len(corpus.Mileage) != 1 || len(corpus.Disengagements) != 1 {
		t.Errorf("parsed %d mileage, %d events", len(corpus.Mileage), len(corpus.Disengagements))
	}
	if rep.DefectRate() <= 0 || rep.DefectRate() >= 1 {
		t.Errorf("defect rate = %g", rep.DefectRate())
	}
}

func TestParseRepairsNumericConfusions(t *testing.T) {
	// OCR substituted O for 0 and l for 1 in numeric fields.
	doc := []string{
		"CALIFORNIA DMV ANNUAL REPORT OF AUTONOMOUS VEHICLE DISENGAGEMENTS",
		"Manufacturer: Nissan",
		"Reporting Period: 2Ol5-2O16",
		"Fleet Size: 4",
		"",
		"SECTION 1: AUTONOMOUS MILES BY VEHICLE AND MONTH",
		"Nissan-x | 2Ol5-O3 | l2O.5O",
		"",
		"SECTION 2: DISENGAGEMENT EVENTS (0 TOTAL)",
	}
	corpus, rep := Parse([]Input{{DocID: "d", Lines: doc}}, 1)
	if len(rep.Defects) != 0 {
		t.Fatalf("defects: %+v", rep.Defects)
	}
	if len(corpus.Mileage) != 1 {
		t.Fatal("mileage row lost")
	}
	if corpus.Mileage[0].Miles != 120.50 {
		t.Errorf("miles = %g, want 120.50", corpus.Mileage[0].Miles)
	}
	if corpus.Mileage[0].Month.Month() != time.March {
		t.Errorf("month = %v", corpus.Mileage[0].Month)
	}
}

func TestParseFuzzyHeaderKeys(t *testing.T) {
	// "Manufacturer" damaged to "Manufocturer" still parses.
	doc := []string{
		"CALIFORNIA DMV ANNUAL REPORT OF AUTONOMOUS VEHICLE DISENGAGEMENTS",
		"Manufocturer: Waymo",
		"Reporting Period: 2015-2016",
		"Fleet Size: 49",
		"SECTION 2: DISENGAGEMENT EVENTS (0 TOTAL)",
	}
	corpus, rep := Parse([]Input{{DocID: "d", Lines: doc}}, 1)
	if rep.SkippedDocs != 0 {
		t.Fatalf("skipped: %+v", rep.Defects)
	}
	if len(corpus.Fleets) != 1 || corpus.Fleets[0].Manufacturer != schema.Waymo {
		t.Errorf("fleets = %+v", corpus.Fleets)
	}
	if corpus.Fleets[0].Cars != 49 {
		t.Errorf("cars = %d", corpus.Fleets[0].Cars)
	}
}

func TestParseMergedManufacturerLine(t *testing.T) {
	// An OCR line merge can glue the reporting-period line onto the
	// manufacturer value; the document must still resolve.
	doc := []string{
		"CALIFORNIA DMV ANNUAL REPORT OF AUTONOMOUS VEHICLE DISENGAGEMENTS",
		"Manufacturer: Delphi Reporting Period: 2015-2016",
		"Fleet Size: 2",
		"SECTION 2: DISENGAGEMENT EVENTS (0 TOTAL)",
	}
	corpus, rep := Parse([]Input{{DocID: "d", Lines: doc}}, 1)
	if rep.SkippedDocs != 0 {
		t.Fatalf("merged header skipped the document: %+v", rep.Defects)
	}
	if len(corpus.Fleets) != 1 || corpus.Fleets[0].Manufacturer != schema.Delphi {
		t.Errorf("fleets = %+v", corpus.Fleets)
	}
	if corpus.Fleets[0].ReportYear != schema.Report2016 {
		t.Errorf("merged period not recovered: %v", corpus.Fleets[0].ReportYear)
	}
}

func TestParseUnknownManufacturerSkips(t *testing.T) {
	doc := []string{
		"CALIFORNIA DMV ANNUAL REPORT OF AUTONOMOUS VEHICLE DISENGAGEMENTS",
		"Manufacturer: Atlantis Motors",
		"Reporting Period: 2015-2016",
	}
	corpus, rep := Parse([]Input{{DocID: "d", Lines: doc}}, 1)
	if rep.SkippedDocs != 1 || len(corpus.Fleets) != 0 {
		t.Errorf("skipped=%d fleets=%d", rep.SkippedDocs, len(corpus.Fleets))
	}
}

func TestParseEmptyAndGarbage(t *testing.T) {
	corpus, rep := Parse([]Input{
		{DocID: "empty"},
		{DocID: "garbage", Lines: []string{"totally unrelated text", "more of it"}},
	}, 1)
	if rep.SkippedDocs != 2 {
		t.Errorf("skipped = %d, want 2", rep.SkippedDocs)
	}
	if len(corpus.Fleets)+len(corpus.Disengagements) != 0 {
		t.Error("garbage produced records")
	}
}

// Property: Parse never panics and never invents records, whatever bytes
// OCR hands it.
func TestParseRobustToGarbageProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nLines := r.Intn(40)
		lines := make([]string, nLines)
		alphabet := []rune("abcZ019|—:-/. SECTIONManufacturer")
		for i := range lines {
			n := r.Intn(60)
			buf := make([]rune, n)
			for j := range buf {
				buf[j] = alphabet[r.Intn(len(alphabet))]
			}
			lines[i] = string(buf)
		}
		// Occasionally prepend a valid-looking title so both document
		// kinds get exercised.
		switch r.Intn(3) {
		case 0:
			lines = append([]string{"CALIFORNIA DMV ANNUAL REPORT OF AUTONOMOUS VEHICLE DISENGAGEMENTS"}, lines...)
		case 1:
			lines = append([]string{"REPORT OF TRAFFIC COLLISION INVOLVING AN AUTONOMOUS VEHICLE (OL 316)"}, lines...)
		}
		corpus, rep := Parse([]Input{{DocID: "fuzz", Lines: lines}}, 1)
		if rep == nil || corpus == nil {
			return false
		}
		// Garbage cannot produce more records than input lines.
		total := len(corpus.Mileage) + len(corpus.Disengagements) + len(corpus.Accidents)
		return total <= len(lines)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}

func TestFuzzyMatching(t *testing.T) {
	if !fuzzyEqual("Manufacturer", "Manufacturer") {
		t.Error("exact match failed")
	}
	if !fuzzyEqual("Manufacturer", "Manufocturer") {
		t.Error("1-edit match failed")
	}
	if fuzzyEqual("Manufacturer", "Location") {
		t.Error("different keys matched")
	}
	if !fuzzyContains("REPORT OF TRAFFIC COLL1SION INVOLVING", "COLLISION") {
		t.Error("fuzzyContains failed on substituted text")
	}
	if fuzzyContains("SHORT", "COMPLETELY DIFFERENT NEEDLE") {
		t.Error("fuzzyContains false positive")
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0}, {"abc", "", 3}, {"", "ab", 2},
		{"kitten", "sitting", 3}, {"flaw", "lawn", 2}, {"same", "same", 0},
	}
	for _, c := range cases {
		if got := levenshtein(c.a, c.b); got != c.want {
			t.Errorf("levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// refIsSectionMarker is isSectionMarker before its ASCII fast path.
func refIsSectionMarker(line, phrase string) bool {
	head := line
	if len(head) > 64 {
		head = head[:64]
	}
	norm := strings.Map(func(r rune) rune {
		switch r {
		case '0':
			return 'O'
		case '1':
			return 'I'
		case '5':
			return 'S'
		case '8':
			return 'B'
		case '2':
			return 'Z'
		case '6':
			return 'G'
		default:
			return r
		}
	}, strings.ToUpper(head))
	return strings.Contains(norm, phrase)
}

// refLevenshtein is levenshtein before its rows moved to the stack.
func refLevenshtein(a, b string) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func TestIsSectionMarkerMatchesReference(t *testing.T) {
	pad := strings.Repeat("x", 60)
	lines := []string{
		"",
		"MILES BY VEHICLE",
		"Miles by Vehicle",
		"miles BY vehicle (autonomous)",
		"MILE5 BY VEHICLE",
		"M1LES 8Y VEH1CLE",
		"DI5ENGAGEMENT EVENT5 2016",
		"dI5eNgAgEmEnT eVeNt5",
		"MILES BY VEHICLEcar01 2016-01 123.4",
		"MILES BY",
		"disengagement events",
		// The marker straddles, ends at and starts past byte 64.
		strings.Repeat(" ", 56) + "MILES BY VEHICLE",
		strings.Repeat(" ", 48) + "MILES BY VEHICLE" + pad,
		strings.Repeat(" ", 64) + "MILES BY VEHICLE",
		"DISENGAGEMENT EVENTS " + pad + pad,
		// Non-ASCII heads: case mapping of ı and ſ yields I and S.
		"DıSENGAGEMENT EVENTſ",
		"MıLES BY VEHıCLE",
		"Überblick MILES BY VEHICLE",
		// A two-byte rune straddling byte 64 is cut by the head.
		strings.Repeat("a", 63) + "é MILES BY VEHICLE",
		"MILES BY VEHICLE" + strings.Repeat("b", 47) + "ı",
		"MILES BY VEHICLE" + strings.Repeat("b", 47) + "é",
		strings.Repeat("1", 63) + "ſ",
		"\xff\xfeMILES BY VEHICLE",
	}
	phrases := []string{"MILES BY VEHICLE", "DISENGAGEMENT EVENTS", "", "S", "EVENTS ZO16"}
	for _, line := range lines {
		for _, phrase := range phrases {
			if got, want := isSectionMarker(line, phrase), refIsSectionMarker(line, phrase); got != want {
				t.Errorf("isSectionMarker(%q, %q) = %t, reference %t", line, phrase, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	alphabet := []rune("MILESBYVEHICLEDISNGAMTV 01258 6abcdıſé")
	for i := 0; i < 2000; i++ {
		r := make([]rune, rng.Intn(80))
		for j := range r {
			r[j] = alphabet[rng.Intn(len(alphabet))]
		}
		line := string(r)
		for _, phrase := range phrases {
			if got, want := isSectionMarker(line, phrase), refIsSectionMarker(line, phrase); got != want {
				t.Fatalf("isSectionMarker(%q, %q) = %t, reference %t", line, phrase, got, want)
			}
		}
	}
}

func TestHasUpperPrefixMatchesReference(t *testing.T) {
	lines := []string{
		"", "VEHICLE", "VEHICLE |", "Vehicle | Month | Miles", "vehicle|",
		"DATE TIME | CAUSE", "date time |", "Date  Time |", "DATE TIME",
		"vehıcle | month", "ıVEHICLE |", "VEHİCLE |", "DATE TIMEé |",
		"éVEHICLE |", "VEHICLE |é", "\xffVEHICLE |",
	}
	for _, line := range lines {
		for _, prefix := range []string{"VEHICLE |", "DATE TIME |", ""} {
			want := strings.HasPrefix(strings.ToUpper(line), prefix)
			if got := hasUpperPrefix(line, prefix); got != want {
				t.Errorf("hasUpperPrefix(%q, %q) = %t, reference %t", line, prefix, got, want)
			}
		}
	}
}

func TestLevenshteinMatchesReference(t *testing.T) {
	words := []string{
		"", "a", "COLLISION", "COLL1SION", "DISENGAGEMENT", "OL 316",
		"report of traffic collision involving an autonomous vehicle",
		strings.Repeat("ab", 15) + "c", strings.Repeat("ab", 16), strings.Repeat("ba", 17),
	}
	for _, a := range words {
		for _, b := range words {
			if got, want := levenshtein(a, b), refLevenshtein(a, b); got != want {
				t.Errorf("levenshtein(%q, %q) = %d, reference %d", a, b, got, want)
			}
		}
	}
}

func TestParseReaction(t *testing.T) {
	if v, err := parseReaction("0.832 s"); err != nil || v != 0.832 {
		t.Errorf("parseReaction = %g, %v", v, err)
	}
	if v, err := parseReaction("-"); err != nil || v != -1 {
		t.Errorf("dash reaction = %g, %v", v, err)
	}
	if _, err := parseReaction("garbage"); err == nil {
		t.Error("garbage reaction: want error")
	}
}

func TestParseConcurrentMatchesSequential(t *testing.T) {
	truth, err := synth.Generate(synth.Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	docs := scandoc.Render(&truth.Corpus)
	eng, err := ocr.NewEngine(ocr.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := eng.DecodeAll(context.Background(), docs, 1)
	if err != nil {
		t.Fatal(err)
	}
	var inputs []Input
	for _, res := range decoded {
		inputs = append(inputs, Input{DocID: res.DocID, Lines: res.Lines})
	}
	wantCorpus, wantRep := Parse(inputs, 1)
	for _, workers := range []int{0, 2, 4, 16, len(inputs) + 1} {
		gotCorpus, gotRep := Parse(inputs, workers)
		if !reflect.DeepEqual(wantCorpus, gotCorpus) {
			t.Errorf("workers=%d: corpus differs from sequential parse", workers)
		}
		if !reflect.DeepEqual(wantRep, gotRep) {
			t.Errorf("workers=%d: report differs from sequential parse", workers)
		}
	}
}

func TestParseConcurrentEmptyInput(t *testing.T) {
	corpus, rep := Parse(nil, 8)
	if rep.Documents != 0 || rep.RowsParsed != 0 || len(rep.Defects) != 0 {
		t.Errorf("empty input report = %+v", rep)
	}
	if len(corpus.Disengagements) != 0 {
		t.Errorf("empty input produced events")
	}
}
