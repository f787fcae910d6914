// Package query is a reusable, typed query engine over the consolidated
// failure database (system #18 in DESIGN.md §2).
//
// The paper's end product is a failure database that analysts interrogate
// (Tables IV-VIII, Figs 4-12). This package extracts the ad-hoc filter and
// group-by logic that used to live inside cmd/avquery into a composable
// engine shared by the CLI and the HTTP serving layer (internal/serve):
// typed predicates (manufacturer, tag, category, road, weather, modality,
// month range), group-by counts, per-manufacturer reliability metrics, and
// pagination.
//
// An Engine is built once per study and is immutable afterwards, so it is
// safe for concurrent use. Construction precomputes inverted indexes
// (manufacturer/tag/category value → row ids) so equality-filtered queries
// walk only the smallest matching posting list instead of scanning every
// row; SelectScan is the full-scan reference implementation the tests hold
// the indexed path equal to. Only the columns a filter sets are read, and
// an empty filter is an identity range: a page reads just its own rows.
package query

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"avfda/internal/core"
	"avfda/internal/frame"
	"avfda/internal/schema"
)

// Filter is one conjunctive query over the failure database: every
// non-empty field must match (string matches are case-insensitive).
type Filter struct {
	// Manufacturer, Tag, and Category are indexed equality predicates.
	Manufacturer string
	Tag          string
	Category     string
	// Road, Weather, and Modality are scan-verified equality predicates.
	Road     string
	Weather  string
	Modality string
	// From and To bound the event month, inclusive on both ends, in
	// "YYYY-MM" form. Empty means unbounded. Malformed values produce a
	// *MonthError.
	From string
	To   string
}

// MonthError reports a malformed From/To month bound.
type MonthError struct {
	// Field is "from" or "to".
	Field string
	// Value is the rejected input.
	Value string
	// Err is the underlying time.Parse error.
	Err error
}

// Error implements the error interface.
func (e *MonthError) Error() string {
	return fmt.Sprintf("bad -%s value %q: want YYYY-MM", e.Field, e.Value)
}

// Unwrap exposes the underlying parse error.
func (e *MonthError) Unwrap() error { return e.Err }

// ColumnError reports a query naming a column the engine does not have
// (a group-by over a column outside GroupColumns). It mirrors
// MonthError so transports can classify it as client input error with
// errors.As instead of matching message text.
type ColumnError struct {
	// Column is the rejected column name.
	Column string
	// Err is the underlying cause.
	Err error
}

// Error implements the error interface.
func (e *ColumnError) Error() string {
	return fmt.Sprintf("group by %q: %v", e.Column, e.Err)
}

// Unwrap exposes the underlying cause.
func (e *ColumnError) Unwrap() error { return e.Err }

// ParseMonthRange parses inclusive "YYYY-MM" month bounds into a concrete
// [start, endExcl) time window. Empty strings leave the corresponding side
// unbounded (zero time); malformed values produce a *MonthError.
func ParseMonthRange(from, to string) (start, endExcl time.Time, err error) {
	if from != "" {
		start, err = time.Parse("2006-01", from)
		if err != nil {
			return time.Time{}, time.Time{}, &MonthError{Field: "from", Value: from, Err: err}
		}
	}
	if to != "" {
		endExcl, err = time.Parse("2006-01", to)
		if err != nil {
			return time.Time{}, time.Time{}, &MonthError{Field: "to", Value: to, Err: err}
		}
		endExcl = endExcl.AddDate(0, 1, 0) // inclusive end month
	}
	return start, endExcl, nil
}

// monthRange parses the filter's month bounds. The returned to is
// exclusive (first month after the To month); zero times mean unbounded.
func (f Filter) monthRange() (from, to time.Time, err error) {
	return ParseMonthRange(f.From, f.To)
}

// Validate checks the filter's month bounds without running a query.
func (f Filter) Validate() error {
	_, _, err := f.monthRange()
	return err
}

// Event is one disengagement in JSON-friendly form.
type Event struct {
	Manufacturer    string    `json:"manufacturer"`
	Vehicle         string    `json:"vehicle,omitempty"`
	ReportYear      string    `json:"reportYear,omitempty"`
	Time            time.Time `json:"time"`
	Cause           string    `json:"cause"`
	Tag             string    `json:"tag"`
	Category        string    `json:"category"`
	Modality        string    `json:"modality"`
	Road            string    `json:"road,omitempty"`
	Weather         string    `json:"weather,omitempty"`
	ReactionSeconds float64   `json:"reactionSeconds"`
}

// Page bounds a result listing. Offset rows are skipped (negative offsets
// are treated as 0); Limit caps the returned rows, with <= 0 meaning
// unlimited.
type Page struct {
	Offset int
	Limit  int
}

// EventPage is one page of matching events plus the match total.
type EventPage struct {
	Total  int     `json:"total"`
	Offset int     `json:"offset"`
	Limit  int     `json:"limit"`
	Events []Event `json:"events"`
}

// GroupCount is one group-by bucket.
type GroupCount struct {
	Key   string `json:"key"`
	Count int    `json:"count"`
}

// Source is the read surface the engine queries: per-row column accessors
// in the exact string forms core.DB.EventsFrame renders (display names for
// enums, "YYYY-YYYY" report years) plus the three inverted-index lookups,
// keyed by lower-cased value with ascending row ids. Implementations must
// be immutable and safe for concurrent use; returned posting lists are
// shared and read-only.
//
// New's in-heap implementation copies each EventsFrame column out of the
// database once and indexes the copies; snapshot2.View implements the same
// surface directly over a memory-mapped study file, which is how an engine
// serves queries with no deserialization at all.
type Source interface {
	// NumRows returns the event count; row indexes run [0, NumRows()).
	NumRows() int

	Manufacturer(i int) string
	Vehicle(i int) string
	ReportYear(i int) string
	Time(i int) time.Time
	Cause(i int) string
	Tag(i int) string
	Category(i int) string
	Modality(i int) string
	Road(i int) string
	Weather(i int) string
	ReactionSeconds(i int) float64

	// ManufacturerIDs, TagIDs, and CategoryIDs return the ascending row
	// ids whose lower-cased column value equals key, or nil when the key
	// has no rows.
	ManufacturerIDs(key string) []int
	TagIDs(key string) []int
	CategoryIDs(key string) []int
}

// Engine answers queries over one study's failure database: every event
// query reads its Source, and the whole-table analyses (accidents,
// reliability, dataframe export) reach the database through one hook.
// Build it once with New or NewFromSource and share it freely: all methods
// are read-only and safe for concurrent use.
type Engine struct {
	src Source

	dbHook func() (*core.DB, error)
	dbOnce sync.Once
	db     *core.DB
	dbErr  error
}

// sliceSource is the in-heap Source: column copies of the database's
// events and eagerly built inverted indexes.
type sliceSource struct {
	mfr      []string
	tag      []string
	category []string
	road     []string
	weather  []string
	modality []string
	vehicle  []string
	year     []string
	cause    []string
	reaction []float64
	times    []time.Time

	// Inverted indexes: lower-cased column value → ascending row ids.
	byMfr      map[string][]int
	byTag      map[string][]int
	byCategory map[string][]int
}

func (s *sliceSource) NumRows() int                     { return len(s.mfr) }
func (s *sliceSource) Manufacturer(i int) string        { return s.mfr[i] }
func (s *sliceSource) Vehicle(i int) string             { return s.vehicle[i] }
func (s *sliceSource) ReportYear(i int) string          { return s.year[i] }
func (s *sliceSource) Time(i int) time.Time             { return s.times[i] }
func (s *sliceSource) Cause(i int) string               { return s.cause[i] }
func (s *sliceSource) Tag(i int) string                 { return s.tag[i] }
func (s *sliceSource) Category(i int) string            { return s.category[i] }
func (s *sliceSource) Modality(i int) string            { return s.modality[i] }
func (s *sliceSource) Road(i int) string                { return s.road[i] }
func (s *sliceSource) Weather(i int) string             { return s.weather[i] }
func (s *sliceSource) ReactionSeconds(i int) float64    { return s.reaction[i] }
func (s *sliceSource) ManufacturerIDs(key string) []int { return s.byMfr[key] }
func (s *sliceSource) TagIDs(key string) []int          { return s.byTag[key] }
func (s *sliceSource) CategoryIDs(key string) []int     { return s.byCategory[key] }

// New builds an engine over the database's events. Its Source holds the
// string forms core.DB.EventsFrame renders, read straight off the events,
// and its database hook returns db itself.
func New(db *core.DB) (*Engine, error) {
	if db == nil {
		return nil, errors.New("query: nil database")
	}
	n := len(db.Events)
	s := &sliceSource{
		mfr:      make([]string, n),
		tag:      make([]string, n),
		category: make([]string, n),
		road:     make([]string, n),
		weather:  make([]string, n),
		modality: make([]string, n),
		vehicle:  make([]string, n),
		year:     make([]string, n),
		cause:    make([]string, n),
		reaction: make([]float64, n),
		times:    make([]time.Time, n),
	}
	for i, ev := range db.Events {
		s.mfr[i] = string(ev.Manufacturer)
		s.tag[i] = ev.Tag.String()
		s.category[i] = ev.Category.String()
		s.road[i] = ev.Road.String()
		s.weather[i] = ev.Weather.String()
		s.modality[i] = ev.Modality.String()
		s.vehicle[i] = string(ev.Vehicle)
		s.year[i] = ev.ReportYear.String()
		s.cause[i] = ev.Cause
		s.reaction[i] = ev.ReactionSeconds
		s.times[i] = ev.Time
	}
	s.byMfr = buildIndex(s.mfr)
	s.byTag = buildIndex(s.tag)
	s.byCategory = buildIndex(s.category)
	return NewFromSource(s, func() (*core.DB, error) { return db, nil })
}

// NewFromSource builds an engine directly over a Source — typically a
// snapshot2.View serving a memory-mapped study with zero deserialization.
// dbHook, when non-nil, returns the full failure database on first need
// (accident listings, reliability metrics, dataframe export); it is
// invoked at most once and must return a database consistent with the
// source's rows. With a nil dbHook those analyses report an error.
func NewFromSource(src Source, dbHook func() (*core.DB, error)) (*Engine, error) {
	if src == nil {
		return nil, errors.New("query: nil source")
	}
	return &Engine{src: src, dbHook: dbHook}, nil
}

// buildIndex maps each distinct lower-cased value to its ascending row ids.
func buildIndex(col []string) map[string][]int {
	idx := make(map[string][]int)
	// Columns hold few distinct values; fold each one once.
	lower := make(map[string]string)
	for i, v := range col {
		k, ok := lower[v]
		if !ok {
			k = strings.ToLower(v)
			lower[v] = k
		}
		idx[k] = append(idx[k], i)
	}
	return idx
}

// Len returns the total number of events in the engine.
func (e *Engine) Len() int { return e.src.NumRows() }

// Database returns the study's failure database from the engine's hook,
// which runs at most once: New's hook hands back its database, a snapshot
// view's decodes its tables here. An engine without a hook has no
// database and returns an error.
func (e *Engine) Database() (*core.DB, error) {
	if e.dbHook == nil {
		return nil, errors.New("query: engine has no database")
	}
	e.dbOnce.Do(func() { e.db, e.dbErr = e.dbHook() })
	return e.db, e.dbErr
}

// eqFold reports whether got matches the predicate want ("" matches all).
func eqFold(got, want string) bool {
	return want == "" || strings.EqualFold(got, want)
}

// matches verifies every predicate of f against row i. from/toExcl are the
// pre-parsed month bounds. Only the columns a set predicate names are
// read, and Time only when a month bound is set, so an unset predicate
// costs nothing per row.
func (e *Engine) matches(i int, f Filter, from, toExcl time.Time) bool {
	s := e.src
	if (f.Manufacturer != "" && !strings.EqualFold(s.Manufacturer(i), f.Manufacturer)) ||
		(f.Tag != "" && !strings.EqualFold(s.Tag(i), f.Tag)) ||
		(f.Category != "" && !strings.EqualFold(s.Category(i), f.Category)) ||
		(f.Road != "" && !strings.EqualFold(s.Road(i), f.Road)) ||
		(f.Weather != "" && !strings.EqualFold(s.Weather(i), f.Weather)) ||
		(f.Modality != "" && !strings.EqualFold(s.Modality(i), f.Modality)) {
		return false
	}
	if from.IsZero() && toExcl.IsZero() {
		return true
	}
	ts := s.Time(i)
	if !from.IsZero() && ts.Before(from) {
		return false
	}
	if !toExcl.IsZero() && !ts.Before(toExcl) {
		return false
	}
	return true
}

// Select returns the ascending row ids matching the filter. When an indexed
// predicate (manufacturer, tag, category) is present, only the smallest
// matching posting list is walked; remaining predicates are verified per
// candidate. Results are identical to SelectScan by construction.
func (e *Engine) Select(f Filter) ([]int, error) {
	from, toExcl, err := f.monthRange()
	if err != nil {
		return nil, err
	}
	candidates := e.candidates(f)
	if candidates == nil {
		return e.scan(f, from, toExcl), nil
	}
	out := make([]int, 0, len(candidates))
	for _, i := range candidates {
		if e.matches(i, f, from, toExcl) {
			out = append(out, i)
		}
	}
	return out, nil
}

// candidates returns the smallest posting list among the filter's indexed
// predicates, or nil when none is set (forcing a scan). A set predicate
// with no posting list returns an empty, non-nil list: nothing matches.
func (e *Engine) candidates(f Filter) []int {
	var best []int
	found := false
	consider := func(lookup func(string) []int, want string) {
		if want == "" {
			return
		}
		list := lookup(strings.ToLower(want))
		if !found || len(list) < len(best) {
			best, found = list, true
		}
	}
	consider(e.src.ManufacturerIDs, f.Manufacturer)
	consider(e.src.TagIDs, f.Tag)
	consider(e.src.CategoryIDs, f.Category)
	if !found {
		return nil
	}
	if best == nil {
		best = []int{}
	}
	return best
}

// scan is the sequential match loop over every row.
func (e *Engine) scan(f Filter, from, toExcl time.Time) []int {
	n := e.src.NumRows()
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if e.matches(i, f, from, toExcl) {
			out = append(out, i)
		}
	}
	return out
}

// SelectScan returns the matching row ids by scanning every row, ignoring
// the inverted indexes. It is the reference implementation that Select is
// tested against; production callers should use Select.
func (e *Engine) SelectScan(f Filter) ([]int, error) {
	from, toExcl, err := f.monthRange()
	if err != nil {
		return nil, err
	}
	return e.scan(f, from, toExcl), nil
}

// selection is a filter's matching rows: every row in [0, n) when the
// filter is empty, an identity range that reads no column and builds no
// id slice, else the ascending ids Select returned.
type selection struct {
	all bool
	n   int
	ids []int
}

// row returns the k-th matching row, k in [0, n).
func (s selection) row(k int) int {
	if s.all {
		return k
	}
	return s.ids[k]
}

// selectRows resolves f to its matching rows.
func (e *Engine) selectRows(f Filter) (selection, error) {
	if f == (Filter{}) {
		return selection{all: true, n: e.src.NumRows()}, nil
	}
	ids, err := e.Select(f)
	return selection{ids: ids, n: len(ids)}, err
}

// Count returns the number of events matching the filter.
func (e *Engine) Count(f Filter) (int, error) {
	sel, err := e.selectRows(f)
	return sel.n, err
}

// event materializes row i.
func (e *Engine) event(i int) Event {
	return Event{
		Manufacturer:    e.src.Manufacturer(i),
		Vehicle:         e.src.Vehicle(i),
		ReportYear:      e.src.ReportYear(i),
		Time:            e.src.Time(i),
		Cause:           e.src.Cause(i),
		Tag:             e.src.Tag(i),
		Category:        e.src.Category(i),
		Modality:        e.src.Modality(i),
		Road:            e.src.Road(i),
		Weather:         e.src.Weather(i),
		ReactionSeconds: e.src.ReactionSeconds(i),
	}
}

// bounds clamps the page to n results: a negative offset counts as 0, and
// [start, end) is the page's window, empty once the offset reaches n.
func (p Page) bounds(n int) (offset, start, end int) {
	offset = max(p.Offset, 0)
	start = min(offset, n)
	end = n
	if p.Limit > 0 && start+p.Limit < end {
		end = start + p.Limit
	}
	return offset, start, end
}

// Events returns one page of matching events plus the match total. An
// offset at or past the total yields an empty (non-nil) page. An empty
// filter reads only the page's rows.
func (e *Engine) Events(f Filter, p Page) (EventPage, error) {
	sel, err := e.selectRows(f)
	if err != nil {
		return EventPage{}, err
	}
	offset, start, end := p.bounds(sel.n)
	page := EventPage{Total: sel.n, Offset: offset, Limit: p.Limit}
	page.Events = make([]Event, 0, end-start)
	for k := start; k < end; k++ {
		page.Events = append(page.Events, e.event(sel.row(k)))
	}
	return page, nil
}

// AccidentPage is one page of matching accident reports plus the match
// total.
type AccidentPage struct {
	Total     int               `json:"total"`
	Offset    int               `json:"offset"`
	Limit     int               `json:"limit"`
	Accidents []schema.Accident `json:"accidents"`
}

// Accidents returns one page of the study's accident reports matching the
// filter. Accident reports carry no tag/category/road/weather/modality
// context, so only the Manufacturer, From, and To predicates apply; the
// other filter fields are ignored. Pagination follows Events: negative
// offsets clamp to 0, Limit <= 0 means unlimited, and an offset at or past
// the total yields an empty (non-nil) page. Requires the engine's database
// hook.
func (e *Engine) Accidents(f Filter, p Page) (AccidentPage, error) {
	db, err := e.Database()
	if err != nil {
		return AccidentPage{}, err
	}
	from, toExcl, err := f.monthRange()
	if err != nil {
		return AccidentPage{}, err
	}
	matched := make([]schema.Accident, 0, len(db.Accidents))
	for _, a := range db.Accidents {
		if !eqFold(string(a.Manufacturer), f.Manufacturer) {
			continue
		}
		if !from.IsZero() && a.Time.Before(from) {
			continue
		}
		if !toExcl.IsZero() && !a.Time.Before(toExcl) {
			continue
		}
		matched = append(matched, a)
	}
	offset, start, end := p.bounds(len(matched))
	return AccidentPage{Total: len(matched), Offset: offset, Limit: p.Limit, Accidents: matched[start:end]}, nil
}

// Frame returns the matching rows as a dataframe (for CSV export and
// frame-level post-processing). Each call renders the database's
// EventsFrame afresh, so it needs the engine's database hook.
func (e *Engine) Frame(f Filter) (*frame.Frame, error) {
	ids, err := e.Select(f)
	if err != nil {
		return nil, err
	}
	db, err := e.Database()
	if err != nil {
		return nil, err
	}
	fr, err := db.EventsFrame()
	if err != nil {
		return nil, err
	}
	return fr.Take(ids)
}

// groupKeys is the ordered table of group-by columns — every EventsFrame
// column plus "month" — each with the key it reads off a Source row. Keys
// take the forms frame.GroupBy renders over EventsFrame (RFC 3339 times,
// %g floats), so no group-by needs the database.
var groupKeys = []struct {
	name string
	key  func(s Source, i int) string
}{
	{"manufacturer", Source.Manufacturer},
	{"tag", Source.Tag},
	{"category", Source.Category},
	{"road", Source.Road},
	{"weather", Source.Weather},
	{"modality", Source.Modality},
	{"month", func(s Source, i int) string { return s.Time(i).Format("2006-01") }},
	{"cause", Source.Cause},
	{"vehicle", Source.Vehicle},
	{"reportYear", Source.ReportYear},
	{"time", func(s Source, i int) string { return s.Time(i).Format(time.RFC3339Nano) }},
	{"reactionSeconds", func(s Source, i int) string { return fmt.Sprintf("%g", s.ReactionSeconds(i)) }},
}

// groupIndex maps each group-by column name to its groupKeys position.
var groupIndex = func() map[string]int {
	m := make(map[string]int, len(groupKeys))
	for i, g := range groupKeys {
		m[g.name] = i
	}
	return m
}()

// errNoColumn is the cause a *ColumnError wraps.
var errNoColumn = errors.New("no such column")

// GroupColumns lists the columns GroupCount accepts, in display order.
func GroupColumns() []string {
	out := make([]string, len(groupKeys))
	for i, g := range groupKeys {
		out[i] = g.name
	}
	return out
}

// IsGroupColumn reports whether by is a column GroupCount can group by.
// Handlers validate request parameters with it before paying for a study
// build: a garbage ?by= must fail in microseconds, not after a full
// pipeline run (the taintflow analyzer enforces this ordering).
func IsGroupColumn(by string) bool {
	_, ok := groupIndex[by]
	return ok
}

// GroupCount counts matching events per value of the named column, most
// frequent first (ties broken by key). "month" groups by the event's
// "YYYY-MM"; an unknown column is a *ColumnError, reported before any row
// is read.
func (e *Engine) GroupCount(f Filter, by string) ([]GroupCount, error) {
	col, ok := groupIndex[by]
	if !ok {
		return nil, &ColumnError{Column: by, Err: errNoColumn}
	}
	sel, err := e.selectRows(f)
	if err != nil {
		return nil, err
	}
	key := groupKeys[col].key
	counts := make(map[string]int)
	for k := 0; k < sel.n; k++ {
		counts[key(e.src, sel.row(k))]++
	}
	return sortedGroups(counts), nil
}

// sortedGroups orders buckets by descending count, then ascending key.
func sortedGroups(counts map[string]int) []GroupCount {
	out := make([]GroupCount, 0, len(counts))
	for k, n := range counts {
		out = append(out, GroupCount{Key: k, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}
