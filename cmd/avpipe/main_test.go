package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"avfda/internal/core"
	"avfda/internal/ontology"
	"avfda/internal/scandoc"
	"avfda/internal/schema"
	"avfda/internal/snapshot2"
	"avfda/internal/synth"
)

func smallDB(t *testing.T) *core.DB {
	t.Helper()
	corpus := &schema.Corpus{
		Mileage: []schema.MonthlyMileage{{
			Manufacturer: schema.Nissan, Vehicle: "n1",
			ReportYear: schema.Report2016, Month: schema.StudyStart, Miles: 120,
		}},
		Disengagements: []schema.Disengagement{{
			Manufacturer: schema.Nissan, Vehicle: "n1",
			ReportYear: schema.Report2016, Time: schema.StudyStart.Add(7200e9),
			Cause: "Software module froze", Modality: schema.ModalityManual,
			ReactionSeconds: 0.8,
		}},
	}
	db, err := core.BuildWithTags(corpus, []ontology.Tag{ontology.TagSoftware})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestWriteCSVs(t *testing.T) {
	db := smallDB(t)
	dir := t.TempDir()
	if err := writeCSVs(io.Discard, db, dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"events.csv", "mileage.csv", "dpm.csv"} {
		blob, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(string(blob), "Nissan") {
			t.Errorf("%s missing data rows", name)
		}
	}
	// Empty dir means no-op, no error.
	if err := writeCSVs(io.Discard, db, ""); err != nil {
		t.Errorf("empty dir: %v", err)
	}
}

// TestRunFromDocuments drives avpipe -in over avgen-style documents, the
// path that enters the pipeline after OCR: the consolidated database must
// hold every generated disengagement and the paper's 42 accidents, and the
// exported snapshot must not depend on the worker count.
func TestRunFromDocuments(t *testing.T) {
	truth, err := synth.Generate(synth.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	docsDir := t.TempDir()
	for _, d := range scandoc.Render(&truth.Corpus) {
		blob := []byte(strings.Join(d.Lines(), "\n") + "\n")
		if err := os.WriteFile(filepath.Join(docsDir, d.ID+".txt"), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var snapshots [][]byte
	for _, workers := range []string{"1", "2"} {
		out := t.TempDir()
		var stdout bytes.Buffer
		err := run([]string{"-in", docsDir, "-workers", workers, "-seed", "1",
			"-csv", out, "-snapshot-out", out}, &stdout)
		if err != nil {
			t.Fatalf("workers=%s: %v", workers, err)
		}
		want := fmt.Sprintf("%d disengagements, 42 accidents", len(truth.Corpus.Disengagements))
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("workers=%s: output lacks %q:\n%s", workers, want, stdout.String())
		}
		if !strings.Contains(stdout.String(), "stage timings: parse=") {
			t.Errorf("workers=%s: output lacks stage timings:\n%s", workers, stdout.String())
		}
		if _, err := os.Stat(filepath.Join(out, "events.csv")); err != nil {
			t.Errorf("workers=%s: %v", workers, err)
		}
		snap, err := os.ReadFile(snapshot2.Path(out, 1))
		if err != nil {
			t.Fatal(err)
		}
		snapshots = append(snapshots, snap)
	}
	if !bytes.Equal(snapshots[0], snapshots[1]) {
		t.Error("snapshot differs between -workers 1 and -workers 2")
	}
}
