package snapshot2

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"avfda/internal/core"
	"avfda/internal/ontology"
	"avfda/internal/query"
	"avfda/internal/schema"
)

// The whole point of the format: a View is a query.Source, so the engine
// can read the mapped bytes with no deserialization step between.
var _ query.Source = (*View)(nil)

// testDB builds a randomized but deterministic database: every field the
// wire format carries is exercised, including empty strings, duplicate
// strings (interning), negative floats, and all flag combinations.
func testDB(seed int64, nEvents, nAccidents int) *core.DB {
	rng := rand.New(rand.NewSource(seed))
	mfrs := []schema.Manufacturer{"Waymo", "Bosch", "Delphi", "Nissan", ""}
	tags := ontology.AllTags()
	base := time.Date(2014, 9, 1, 0, 0, 0, 0, time.UTC)

	db := &core.DB{}
	for i, m := range mfrs {
		db.Fleets = append(db.Fleets, schema.Fleet{
			Manufacturer: m,
			ReportYear:   schema.ReportYear(1 + i%2),
			Cars:         rng.Intn(60),
		})
		db.Mileage = append(db.Mileage, schema.MonthlyMileage{
			Manufacturer: m,
			Vehicle:      schema.VehicleID(fmt.Sprintf("V%03d", i)),
			ReportYear:   schema.ReportYear(1 + i%2),
			Month:        base.AddDate(0, i, 0),
			Miles:        rng.Float64() * 10000,
		})
	}
	for i := 0; i < nEvents; i++ {
		tag := tags[rng.Intn(len(tags))]
		db.Events = append(db.Events, core.Event{
			Disengagement: schema.Disengagement{
				Manufacturer:    mfrs[rng.Intn(len(mfrs))],
				Vehicle:         schema.VehicleID(fmt.Sprintf("V%03d", rng.Intn(8))),
				ReportYear:      schema.ReportYear(1 + rng.Intn(2)),
				Time:            base.AddDate(0, rng.Intn(27), rng.Intn(28)),
				Cause:           fmt.Sprintf("cause %d: sensor glitch é", i),
				Modality:        schema.Modality(rng.Intn(4)),
				Road:            schema.RoadType(rng.Intn(8)),
				Weather:         schema.Weather(rng.Intn(5)),
				ReactionSeconds: rng.Float64()*3 - 0.5,
			},
			Tag:      tag,
			Category: ontology.CategoryOf(tag),
		})
	}
	for i := 0; i < nAccidents; i++ {
		db.Accidents = append(db.Accidents, schema.Accident{
			Manufacturer:     mfrs[rng.Intn(len(mfrs))],
			Vehicle:          schema.VehicleID(fmt.Sprintf("V%03d", rng.Intn(8))),
			ReportYear:       schema.ReportYear(1 + rng.Intn(2)),
			Time:             base.AddDate(0, rng.Intn(27), rng.Intn(28)),
			Location:         fmt.Sprintf("El Camino Real & %dth", i),
			Narrative:        "",
			AVSpeedMPH:       float64(rng.Intn(40)),
			OtherSpeedMPH:    rng.Float64() * 50,
			InAutonomousMode: rng.Intn(2) == 0,
			Redacted:         rng.Intn(3) == 0,
		})
	}
	return db
}

// typedSnapshotError reports whether err is one of the package's typed
// corruption errors — the contract callers classify on.
func typedSnapshotError(err error) bool {
	var fe *FormatError
	var ve *VersionError
	var ce *ChecksumError
	return errors.As(err, &fe) || errors.As(err, &ve) || errors.As(err, &ce)
}

// TestViewRoundTrip pins the core property: a View over encode(db)
// materializes the database exactly, and re-encoding the materialized
// database is byte-identical — the determinism avlint's byte-identity
// contract (and the write→read→re-write test below) relies on.
func TestViewRoundTrip(t *testing.T) {
	for _, seed := range []int64{1, 2, 42} {
		db := testDB(seed, 200, 30)
		data, err := Encode(db)
		if err != nil {
			t.Fatal(err)
		}
		v, err := NewView(data)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, err := v.Database()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, db) {
			t.Fatalf("seed %d: materialized database differs from original", seed)
		}
		again, err := Encode(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("seed %d: re-encoding the materialized database changed the bytes", seed)
		}
		if v.Size() != len(data) {
			t.Fatalf("seed %d: Size() = %d, want %d", seed, v.Size(), len(data))
		}
	}
}

// TestViewRoundTripEmpty covers the degenerate database: four zero counts
// must map to nil tables, matching pipeline construction.
func TestViewRoundTripEmpty(t *testing.T) {
	data, err := Encode(&core.DB{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(data)
	if err != nil {
		t.Fatal(err)
	}
	if v.NumRows() != 0 {
		t.Fatalf("NumRows = %d for an empty study", v.NumRows())
	}
	db, err := v.Database()
	if err != nil {
		t.Fatal(err)
	}
	if db.Events != nil || db.Mileage != nil || db.Fleets != nil || db.Accidents != nil {
		t.Fatalf("empty database materialized non-nil tables: %+v", db)
	}
}

// TestWriteReadRewrite is the on-disk half of the byte-identity property:
// write → open → materialize → write again produces an identical file, and
// the atomic write leaves no staging files behind.
func TestWriteReadRewrite(t *testing.T) {
	dir := t.TempDir()
	db := testDB(7, 120, 15)
	if _, err := WriteSeed(dir, 7, db); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(Path(dir, 7))
	if err != nil {
		t.Fatal(err)
	}
	v, err := OpenSeed(dir, 7)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := v.Database()
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil { // Close is idempotent
		t.Fatal(err)
	}
	if _, err := WriteSeed(dir, 7, loaded); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(Path(dir, 7))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("rewriting a loaded snapshot changed the file bytes")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != filepath.Base(Path(dir, 7)) {
		t.Fatalf("snapshot dir left extra files: %v", entries)
	}
}

// TestTruncationRejected feeds every prefix of a valid snapshot to NewView;
// all of them must fail with a typed error, never a panic or a silently
// partial view. This is also the SIGBUS guard: Open validates the length
// and checksum before any accessor touches the mapping (DESIGN.md §7).
func TestTruncationRejected(t *testing.T) {
	data, err := Encode(testDB(3, 40, 6))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n++ {
		v, err := NewView(data[:n])
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes opened to %v", n, len(data), v)
		}
		if !typedSnapshotError(err) {
			t.Fatalf("prefix of %d bytes: untyped error %v", n, err)
		}
	}
}

// TestBitFlipRejected flips every byte of a valid snapshot in turn; the
// CRC-32C (or header validation) must catch each one.
func TestBitFlipRejected(t *testing.T) {
	data, err := Encode(testDB(5, 40, 6))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(data); i++ {
		mut := bytes.Clone(data)
		mut[i] ^= 0x40
		v, err := NewView(mut)
		if err == nil {
			t.Fatalf("flip at byte %d opened to %v", i, v)
		}
		if !typedSnapshotError(err) {
			t.Fatalf("flip at byte %d: untyped error %v", i, err)
		}
	}
}

// TestTrailingBytesRejected appends garbage after a valid payload.
func TestTrailingBytesRejected(t *testing.T) {
	data, err := Encode(testDB(9, 10, 2))
	if err != nil {
		t.Fatal(err)
	}
	var fe *FormatError
	if _, err := NewView(append(bytes.Clone(data), 0xFF)); !errors.As(err, &fe) {
		t.Fatalf("trailing byte: got %v, want *FormatError", err)
	}
}

// TestVersionRejected patches the header version; readers must refuse any
// version other than their own, per the compatibility policy.
func TestVersionRejected(t *testing.T) {
	data, err := Encode(testDB(13, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	mut := bytes.Clone(data)
	binary.LittleEndian.PutUint16(mut[len(magic):], Version+1)
	var ve *VersionError
	if _, err := NewView(mut); !errors.As(err, &ve) {
		t.Fatalf("got %v, want *VersionError", err)
	} else if ve.Got != Version+1 || ve.Want != Version {
		t.Fatalf("VersionError = %+v", ve)
	}
}

// TestV1MagicRejected pins the cross-format contract: a v1 snapshot fed to
// the v2 reader fails cleanly on the magic, not deeper in.
func TestV1MagicRejected(t *testing.T) {
	var fe *FormatError
	if _, err := NewView([]byte("AVFDSNAP\x01\x00________padding_to_header_len")); !errors.As(err, &fe) {
		t.Fatalf("v1 magic: got %v, want *FormatError", err)
	}
}

// TestChecksumRejected corrupts a payload byte without touching the header;
// only the checksum can catch it.
func TestChecksumRejected(t *testing.T) {
	data, err := Encode(testDB(17, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	mut := bytes.Clone(data)
	mut[len(mut)-1] ^= 1
	var ce *ChecksumError
	if _, err := NewView(mut); !errors.As(err, &ce) {
		t.Fatalf("got %v, want *ChecksumError", err)
	} else if ce.Got == ce.Want {
		t.Fatalf("ChecksumError checksums match: %+v", ce)
	}
}

// reseal recomputes the payload length and CRC-32C over a mutated payload,
// producing a file that passes the header checks so the structural
// validators must catch the damage themselves.
func reseal(header, payload []byte) []byte {
	out := append([]byte(nil), header[:headerLen]...)
	binary.LittleEndian.PutUint64(out[len(magic)+2:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(out[len(magic)+10:], crc32.Checksum(payload, castagnoli))
	return append(out, payload...)
}

// sectionRange locates a section's [start, end) within the payload via the
// directory, for surgical corruption.
func sectionRange(t *testing.T, payload []byte, id uint32) (int, int) {
	t.Helper()
	ent := payload[4+int(id-1)*20:]
	if got := binary.LittleEndian.Uint32(ent); got != id {
		t.Fatalf("directory entry for section %d carries id %d", id, got)
	}
	start := binary.LittleEndian.Uint64(ent[4:])
	length := binary.LittleEndian.Uint64(ent[12:])
	return int(start), int(start + length)
}

// TestCorruptPayloadBehindValidChecksum re-seals structurally invalid
// payloads with a correct checksum: the directory, column, string-table,
// and posting validators must each reject their own class of damage with a
// *FormatError — corruption can never surface later as a panic or a wrong
// answer from an accessor.
func TestCorruptPayloadBehindValidChecksum(t *testing.T) {
	db := testDB(19, 60, 8)
	data, err := Encode(db)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(t *testing.T, payload []byte)
	}{
		{"section count", func(t *testing.T, p []byte) {
			binary.LittleEndian.PutUint32(p, numSections+1)
		}},
		{"directory id", func(t *testing.T, p []byte) {
			binary.LittleEndian.PutUint32(p[4:], 99)
		}},
		{"section tiling", func(t *testing.T, p []byte) {
			// Shift the second section's declared start: tiling breaks.
			off := binary.LittleEndian.Uint64(p[4+20+4:])
			binary.LittleEndian.PutUint64(p[4+20+4:], off+1)
		}},
		{"meta count out of range", func(t *testing.T, p []byte) {
			start, _ := sectionRange(t, p, secMeta)
			binary.LittleEndian.PutUint64(p[start:], 1<<40)
		}},
		{"meta count vs section size", func(t *testing.T, p []byte) {
			start, _ := sectionRange(t, p, secMeta)
			binary.LittleEndian.PutUint64(p[start:], uint64(len(db.Events)+1))
		}},
		{"string offsets start", func(t *testing.T, p []byte) {
			start, _ := sectionRange(t, p, secStrOffsets)
			binary.LittleEndian.PutUint32(p[start:], 1)
		}},
		{"string offsets monotonic", func(t *testing.T, p []byte) {
			start, _ := sectionRange(t, p, secStrOffsets)
			binary.LittleEndian.PutUint32(p[start+4:], 0xFFFFFFFF)
		}},
		{"string id out of range", func(t *testing.T, p []byte) {
			start, _ := sectionRange(t, p, secEvMfr)
			binary.LittleEndian.PutUint32(p[start:], 0xFFFFFFFF)
		}},
		{"nanoseconds out of range", func(t *testing.T, p []byte) {
			start, _ := sectionRange(t, p, secEvTimeNsec)
			binary.LittleEndian.PutUint64(p[start:], 2_000_000_000)
		}},
		{"undefined flag bits", func(t *testing.T, p []byte) {
			start, _ := sectionRange(t, p, secAcFlags)
			p[start] = 0xFF
		}},
		{"posting count overrun", func(t *testing.T, p []byte) {
			start, _ := sectionRange(t, p, secIdxMfr)
			// First key header: {keyID, count, blobLen}; inflate the count.
			binary.LittleEndian.PutUint32(p[start+4+4:], uint32(len(db.Events)+1))
		}},
		{"posting stream length", func(t *testing.T, p []byte) {
			start, _ := sectionRange(t, p, secIdxMfr)
			// Inflate the first key's declared stream length by one byte: the
			// stream either overruns the section or carries a trailing byte.
			blobLen := binary.LittleEndian.Uint32(p[start+4+8:])
			binary.LittleEndian.PutUint32(p[start+4+8:], blobLen+1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			payload := bytes.Clone(data[headerLen:])
			tc.mutate(t, payload)
			mut := reseal(data, payload)
			v, err := NewView(mut)
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("got view=%v err=%v, want *FormatError", v, err)
			}
		})
	}
}

// TestPostingsMatchHeapIndex cross-checks every stored inverted index
// against an index built the way query.Engine builds its in-heap ones:
// identical keys, identical ascending row ids, nil for unknown keys.
func TestPostingsMatchHeapIndex(t *testing.T) {
	db := testDB(23, 300, 10)
	data, err := Encode(db)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(data)
	if err != nil {
		t.Fatal(err)
	}
	indexes := []struct {
		name   string
		value  func(*core.Event) string
		lookup func(string) []int
	}{
		{"manufacturer", func(e *core.Event) string { return string(e.Manufacturer) }, v.ManufacturerIDs},
		{"tag", func(e *core.Event) string { return e.Tag.String() }, v.TagIDs},
		{"category", func(e *core.Event) string { return e.Category.String() }, v.CategoryIDs},
	}
	for _, idx := range indexes {
		want := make(map[string][]int)
		for i := range db.Events {
			k := strings.ToLower(idx.value(&db.Events[i]))
			want[k] = append(want[k], i)
		}
		keys := make([]string, 0, len(want))
		for k := range want {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if got := idx.lookup(k); !reflect.DeepEqual(got, want[k]) {
				t.Fatalf("%s[%q] = %v, want %v", idx.name, k, got, want[k])
			}
		}
		if got := idx.lookup("no such key"); got != nil {
			t.Fatalf("%s lookup of unknown key returned %v", idx.name, got)
		}
	}
}

// TestOpenMissing maps a nonexistent file to fs.ErrNotExist so cache tiers
// can tell "no snapshot yet" from corruption.
func TestOpenMissing(t *testing.T) {
	if _, err := OpenSeed(t.TempDir(), 404); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("got %v, want fs.ErrNotExist", err)
	}
}

// TestOpenEmptyFile classifies a zero-length file as the truncation it is
// instead of attempting an invalid zero-length mapping.
func TestOpenEmptyFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(Path(dir, 1), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var fe *FormatError
	if _, err := OpenSeed(dir, 1); !errors.As(err, &fe) {
		t.Fatalf("got %v, want *FormatError", err)
	}
}

// TestEncodeNil rejects a nil database instead of writing an empty study.
func TestEncodeNil(t *testing.T) {
	if _, err := Encode(nil); err == nil {
		t.Fatal("want error for nil database")
	}
}

// TestPathShape pins the cross-binary file naming contract: the .avsnap2
// extension keeps it distinct from a retired v1 study-<seed>.avsnap.
func TestPathShape(t *testing.T) {
	if got := Path("snaps", 42); got != filepath.Join("snaps", "study-42.avsnap2") {
		t.Fatalf("Path = %q", got)
	}
}
