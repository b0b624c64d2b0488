package iochar

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"iochar/internal/bench"
	"iochar/internal/core"
)

// The golden files pin the simulated outcome of the HDD-only path: the full
// -all byte stream and the per-workload bench fingerprints at goldenOpts.
// Any change to device timing, scheduling, merging, or accounting that
// alters simulated results on the default (untiered) configuration fails
// these tests. Regenerate deliberately with:
//
//	IOCHAR_UPDATE_GOLDEN=1 go test -run TestGolden ./...
const (
	goldenAllFile          = "testdata/golden_all.txt"
	goldenFingerprintsFile = "testdata/golden_fingerprints.txt"
)

// TestGoldenAllOutput pins the -all output byte stream at goldenOpts. With
// tiering disabled nothing in the device-model extraction may shift a single
// byte of any figure or table.
func TestGoldenAllOutput(t *testing.T) {
	got := renderAll(t, NewSuite(goldenOpts))
	if os.Getenv("IOCHAR_UPDATE_GOLDEN") != "" {
		writeGolden(t, goldenAllFile, got)
		return
	}
	want, err := os.ReadFile(goldenAllFile)
	if err != nil {
		t.Fatalf("missing golden (regenerate with IOCHAR_UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-all output diverged from golden (%d bytes, want %d)\n%s",
			len(got), len(want), firstDiff(got, want))
	}
}

// TestGoldenBenchFingerprints pins the bench outcome fingerprint of every
// workload on the untiered path. The fingerprint hashes virtual wall time,
// the kernel event count, HDFS/MR byte and request totals, and the job
// counters — so even an event-count-neutral timing change is caught.
func TestGoldenBenchFingerprints(t *testing.T) {
	var buf bytes.Buffer
	for _, w := range append(core.PaperWorkloads(), core.Join) {
		rep, err := core.RunOne(w, core.SlotsRuns[0], core.Options{Testbed: goldenOpts.Testbed})
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		fmt.Fprintf(&buf, "%s %s\n", w, bench.Fingerprint(rep))
	}
	got := buf.Bytes()
	if os.Getenv("IOCHAR_UPDATE_GOLDEN") != "" {
		writeGolden(t, goldenFingerprintsFile, got)
		return
	}
	want, err := os.ReadFile(goldenFingerprintsFile)
	if err != nil {
		t.Fatalf("missing golden (regenerate with IOCHAR_UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("bench fingerprints diverged from golden:\ngot:\n%swant:\n%s", got, want)
	}
}

func writeGolden(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d bytes)", path, len(data))
}
