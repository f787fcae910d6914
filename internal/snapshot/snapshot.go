// Package snapshot persists a built study — the consolidated failure
// database (core.DB) — as a versioned, checksummed binary file (system #20
// in DESIGN.md §2).
//
// A study is expensive to build (a full Stage I-IV pipeline run), but the
// follow-on workloads consume the consolidated database, not the pipeline:
// recurrent-event reliability modelling and report re-mining both start
// from a persisted failure DB. This package turns a built study into a
// shippable artifact: avpipe exports it once (e.g. in CI), and any number
// of avserve/avquery processes warm-start from it instead of re-paying the
// pipeline on every restart or cache eviction.
//
// File format (all integers little-endian):
//
//	offset  size  field
//	0       8     magic "AVFDSNAP"
//	8       2     format version (currently 1)
//	10      8     payload length in bytes
//	18      32    SHA-256 of the payload
//	50      ...   payload (section-encoded core.DB)
//
// The payload encodes the database's four sections (fleets, mileage,
// events, accidents) as count-prefixed records of fixed-width scalars and
// length-prefixed UTF-8 strings; timestamps are stored as Unix
// seconds + nanoseconds and restored in UTC. Encoding the same database
// always yields the same bytes, so write→read→re-write round-trips are
// byte-identical (property-tested).
//
// Compatibility policy: the version number is bumped on any payload layout
// change, and readers reject every version other than their own — a
// snapshot is a cache artifact, cheap to regenerate, so there is no
// cross-version migration. Truncated or bit-flipped files are rejected
// with typed errors (*FormatError, *ChecksumError, *VersionError) and must
// never be trusted; callers fall back to a pipeline rebuild.
package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"avfda/internal/core"
	"avfda/internal/ontology"
	"avfda/internal/schema"
)

// Version is the current snapshot format version. Readers accept exactly
// this version; see the package comment for the compatibility policy.
const Version uint16 = 1

// magic identifies a snapshot file; it is eight bytes so the header scalars
// that follow stay naturally aligned.
const magic = "AVFDSNAP"

// headerLen is the byte length of the fixed header preceding the payload.
const headerLen = len(magic) + 2 + 8 + sha256.Size

// FormatError reports a structurally invalid snapshot: wrong magic,
// truncation, trailing bytes, or an impossible length field.
type FormatError struct {
	// Reason describes the structural violation.
	Reason string
}

// Error implements the error interface.
func (e *FormatError) Error() string { return "snapshot: " + e.Reason }

// VersionError reports a snapshot written by an incompatible format version.
type VersionError struct {
	Got, Want uint16
}

// Error implements the error interface.
func (e *VersionError) Error() string {
	return fmt.Sprintf("snapshot: format version %d, want %d", e.Got, e.Want)
}

// ChecksumError reports payload corruption: the stored SHA-256 does not
// match the payload bytes.
type ChecksumError struct {
	// Got and Want are hex-encoded SHA-256 digests: the recomputed one and
	// the one stored in the header.
	Got, Want string
}

// Error implements the error interface.
func (e *ChecksumError) Error() string {
	return fmt.Sprintf("snapshot: payload checksum %s, header says %s", e.Got, e.Want)
}

// Path returns the canonical snapshot file name for a study seed inside
// dir. avpipe -snapshot-out writes it and avserve/avquery -snapshot-dir
// look it up, so the three binaries agree without extra configuration.
func Path(dir string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("study-%d.avsnap", seed))
}

// Encode serializes the database into the snapshot wire format.
func Encode(db *core.DB) ([]byte, error) {
	if db == nil {
		return nil, errors.New("snapshot: nil database")
	}
	var e encoder
	e.count(len(db.Fleets))
	for _, f := range db.Fleets {
		e.str(string(f.Manufacturer))
		e.i64(int64(f.ReportYear))
		e.i64(int64(f.Cars))
	}
	e.count(len(db.Mileage))
	for _, m := range db.Mileage {
		e.str(string(m.Manufacturer))
		e.str(string(m.Vehicle))
		e.i64(int64(m.ReportYear))
		e.time(m.Month)
		e.f64(m.Miles)
	}
	e.count(len(db.Events))
	for _, ev := range db.Events {
		e.str(string(ev.Manufacturer))
		e.str(string(ev.Vehicle))
		e.i64(int64(ev.ReportYear))
		e.time(ev.Time)
		e.str(ev.Cause)
		e.i64(int64(ev.Modality))
		e.i64(int64(ev.Road))
		e.i64(int64(ev.Weather))
		e.f64(ev.ReactionSeconds)
		e.i64(int64(ev.Tag))
		e.i64(int64(ev.Category))
	}
	e.count(len(db.Accidents))
	for _, a := range db.Accidents {
		e.str(string(a.Manufacturer))
		e.str(string(a.Vehicle))
		e.i64(int64(a.ReportYear))
		e.time(a.Time)
		e.str(a.Location)
		e.str(a.Narrative)
		e.f64(a.AVSpeedMPH)
		e.f64(a.OtherSpeedMPH)
		e.bool(a.InAutonomousMode)
		e.bool(a.Redacted)
	}
	payload := e.buf.Bytes()

	out := make([]byte, 0, headerLen+len(payload))
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint16(out, Version)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	out = append(out, sum[:]...)
	out = append(out, payload...)
	return out, nil
}

// Decode parses a snapshot produced by Encode, verifying magic, version,
// length, and checksum before trusting a single payload byte.
func Decode(data []byte) (*core.DB, error) {
	if len(data) < headerLen {
		return nil, &FormatError{Reason: fmt.Sprintf("file is %d bytes, shorter than the %d-byte header", len(data), headerLen)}
	}
	if string(data[:len(magic)]) != magic {
		return nil, &FormatError{Reason: "bad magic: not a snapshot file"}
	}
	version := binary.LittleEndian.Uint16(data[len(magic):])
	if version != Version {
		return nil, &VersionError{Got: version, Want: Version}
	}
	plen := binary.LittleEndian.Uint64(data[len(magic)+2:])
	payload := data[headerLen:]
	if uint64(len(payload)) != plen {
		return nil, &FormatError{Reason: fmt.Sprintf("payload is %d bytes, header says %d", len(payload), plen)}
	}
	var want [sha256.Size]byte
	copy(want[:], data[len(magic)+10:headerLen])
	if got := sha256.Sum256(payload); got != want {
		return nil, &ChecksumError{
			Got:  hex.EncodeToString(got[:]),
			Want: hex.EncodeToString(want[:]),
		}
	}

	d := decoder{data: payload, strs: make(map[string]string)}
	db := &core.DB{}
	for i, n := 0, d.count("fleets"); i < n && d.err == nil; i++ {
		db.Fleets = append(db.Fleets, schema.Fleet{
			Manufacturer: schema.Manufacturer(d.str()),
			ReportYear:   schema.ReportYear(d.i64()),
			Cars:         int(d.i64()),
		})
	}
	n := d.count("mileage")
	db.Mileage = preallocate[schema.MonthlyMileage](&d, n, mileageMinBytes)
	for i := 0; i < n && d.err == nil; i++ {
		db.Mileage = append(db.Mileage, schema.MonthlyMileage{
			Manufacturer: schema.Manufacturer(d.str()),
			Vehicle:      schema.VehicleID(d.str()),
			ReportYear:   schema.ReportYear(d.i64()),
			Month:        d.time(),
			Miles:        d.f64(),
		})
	}
	n = d.count("events")
	db.Events = preallocate[core.Event](&d, n, eventMinBytes)
	for i := 0; i < n && d.err == nil; i++ {
		db.Events = append(db.Events, core.Event{
			Disengagement: schema.Disengagement{
				Manufacturer:    schema.Manufacturer(d.str()),
				Vehicle:         schema.VehicleID(d.str()),
				ReportYear:      schema.ReportYear(d.i64()),
				Time:            d.time(),
				Cause:           d.str(),
				Modality:        schema.Modality(d.i64()),
				Road:            schema.RoadType(d.i64()),
				Weather:         schema.Weather(d.i64()),
				ReactionSeconds: d.f64(),
			},
			Tag:      ontology.Tag(d.i64()),
			Category: ontology.Category(d.i64()),
		})
	}
	for i, n := 0, d.count("accidents"); i < n && d.err == nil; i++ {
		db.Accidents = append(db.Accidents, schema.Accident{
			Manufacturer:     schema.Manufacturer(d.str()),
			Vehicle:          schema.VehicleID(d.str()),
			ReportYear:       schema.ReportYear(d.i64()),
			Time:             d.time(),
			Location:         d.str(),
			Narrative:        d.str(),
			AVSpeedMPH:       d.f64(),
			OtherSpeedMPH:    d.f64(),
			InAutonomousMode: d.bool(),
			Redacted:         d.bool(),
		})
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.data) != d.off {
		return nil, &FormatError{Reason: fmt.Sprintf("%d trailing payload bytes", len(d.data)-d.off)}
	}
	return db, nil
}

// Write atomically persists the database to path: the snapshot is staged in
// a temporary file in the same directory and renamed into place, so readers
// never observe a half-written file and a crashed writer leaves any
// existing snapshot untouched.
func Write(path string, db *core.DB) error {
	data, err := Encode(db)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("snapshot: %w", err)
	}
	// CreateTemp opens 0600; a snapshot is a shippable artifact, so widen
	// to the usual umask-style file mode before publishing it.
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// Read loads and verifies the snapshot at path. A missing file is reported
// via fs.ErrNotExist (check with errors.Is); corruption yields the typed
// errors documented on Decode.
func Read(path string) (*core.DB, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// WriteSeed persists the database under dir with the canonical per-seed
// file name.
func WriteSeed(dir string, seed int64, db *core.DB) error {
	return Write(Path(dir, seed), db)
}

// ReadSeed loads the snapshot for seed from dir.
func ReadSeed(dir string, seed int64) (*core.DB, error) {
	return Read(Path(dir, seed))
}

// encoder accumulates the payload. Every scalar is little-endian and
// fixed-width, so identical databases encode to identical bytes.
type encoder struct {
	buf bytes.Buffer
}

// count writes a section's record count.
func (e *encoder) count(n int) { e.i64(int64(n)) }

// i64 writes a fixed-width signed integer.
func (e *encoder) i64(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	e.buf.Write(b[:])
}

// f64 writes a float64 by its IEEE-754 bit pattern.
func (e *encoder) f64(v float64) { e.i64(int64(math.Float64bits(v))) }

// str writes a length-prefixed UTF-8 string.
func (e *encoder) str(s string) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(len(s)))
	e.buf.Write(b[:])
	e.buf.WriteString(s)
}

// bool writes one byte, 0 or 1.
func (e *encoder) bool(v bool) {
	if v {
		e.buf.WriteByte(1)
	} else {
		e.buf.WriteByte(0)
	}
}

// time writes a timestamp as Unix seconds plus in-second nanoseconds; the
// decoder restores it in UTC. Every timestamp in the pipeline is UTC
// already (the study window is UTC-bounded), so the round trip is exact.
func (e *encoder) time(t time.Time) {
	e.i64(t.Unix())
	e.i64(int64(t.Nanosecond()))
}

// decoder walks the payload, latching the first structural error so record
// loops can stay unconditional.
type decoder struct {
	data []byte
	off  int
	err  error
	// strs interns decoded strings: a study repeats a few hundred cause
	// texts and vehicle IDs across thousands of rows.
	strs map[string]string
}

// fail records the first error.
func (d *decoder) fail(reason string) {
	if d.err == nil {
		d.err = &FormatError{Reason: reason}
	}
}

// take consumes n bytes of payload.
func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.data) {
		d.fail(fmt.Sprintf("truncated payload: need %d bytes at offset %d of %d", n, d.off, len(d.data)))
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

// Smallest encoded mileage and event records: every string empty.
const (
	mileageMinBytes = 4 + 4 + 8 + 16 + 8
	eventMinBytes   = 4 + 4 + 8 + 16 + 4 + 3*8 + 8 + 2*8
)

// preallocate returns room for n records of at least minBytes encoded
// bytes each, capped by what the remaining payload can hold so a corrupt
// count cannot force a large allocation. It returns nil for no records,
// as appending to a nil slice would.
func preallocate[T any](d *decoder, n, minBytes int) []T {
	n = min(n, (len(d.data)-d.off)/minBytes)
	if n == 0 {
		return nil
	}
	return make([]T, 0, n)
}

// count reads a section's record count, bounds-checking it against the
// bytes actually remaining so a corrupt length cannot balloon allocation.
func (d *decoder) count(section string) int {
	n := d.i64()
	if d.err != nil {
		return 0
	}
	if n < 0 || n > int64(len(d.data)-d.off) {
		d.fail(fmt.Sprintf("%s count %d exceeds remaining payload", section, n))
		return 0
	}
	return int(n)
}

// i64 reads a fixed-width signed integer.
func (d *decoder) i64() int64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

// f64 reads an IEEE-754 float64.
func (d *decoder) f64() float64 { return math.Float64frombits(uint64(d.i64())) }

// str reads a length-prefixed string, interned.
func (d *decoder) str() string {
	b := d.take(4)
	if b == nil {
		return ""
	}
	n := binary.LittleEndian.Uint32(b)
	if uint64(n) > uint64(len(d.data)-d.off) {
		d.fail(fmt.Sprintf("string length %d exceeds remaining payload", n))
		return ""
	}
	b = d.take(int(n))
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	d.strs[s] = s
	return s
}

// bool reads one byte as a boolean; any value other than 0/1 is corruption.
func (d *decoder) bool() bool {
	b := d.take(1)
	if b == nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(fmt.Sprintf("invalid boolean byte %#x", b[0]))
		return false
	}
}

// time reads a Unix seconds + nanoseconds pair back into a UTC timestamp.
func (d *decoder) time() time.Time {
	sec := d.i64()
	nsec := d.i64()
	if d.err != nil {
		return time.Time{}
	}
	if nsec < 0 || nsec >= int64(time.Second) {
		d.fail(fmt.Sprintf("nanosecond field %d outside [0, 1e9)", nsec))
		return time.Time{}
	}
	return time.Unix(sec, nsec).UTC()
}
