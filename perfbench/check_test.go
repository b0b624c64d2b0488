package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"iochar/internal/bench"
	"iochar/internal/chaos"
	"iochar/internal/core"
	"iochar/internal/mapred"
)

// tiny is a TeraSort cell on a testbed small enough for unit tests.
var tiny = workload{
	name:    "tiny",
	testbed: bench.Config{Scale: 1 << 20, Slaves: 3, MapTaskTarget: 8},
	cell:    core.SlotsRuns[0],
}

func TestVerifyPassesAndPinsOutput(t *testing.T) {
	o, bad := tiny.verify(context.Background(), 3, nil)
	if len(bad) > 0 {
		t.Fatalf("reference-free verification failed: %v", bad)
	}
	ref := &pin{Outputs: map[string]string{o.cells[0]: sumsHash(o.reps[0].Audit.OutputSums)}}
	if _, bad := tiny.verify(context.Background(), 3, ref); len(bad) > 0 {
		t.Fatalf("verification against its own pin failed: %v", bad)
	}
}

func TestWrongOutputReferenceFailsExecution(t *testing.T) {
	ref := &pin{Outputs: map[string]string{cellKey(core.TS, tiny.cell): strings.Repeat("0", 64)}}
	_, bad := tiny.verify(context.Background(), 3, ref)
	var tl tally
	tl.record("verification", bad)
	if tl.attempted != 1 || tl.failed != 1 || len(tl.problems) == 0 {
		t.Fatalf("wrong reference: attempted %d failed %d problems %v", tl.attempted, tl.failed, tl.problems)
	}
	if tl.failFrac() != 1 {
		t.Fatalf("fail_frac = %v", tl.failFrac())
	}
}

func TestNondeterministicFingerprintFailsExecution(t *testing.T) {
	var tl tally
	for _, fp := range []string{"aaaa", "aaaa", "bbbb", "aaaa"} {
		o := &outcome{fingerprint: fp}
		tl.record("timed", tl.judgeTimed(o))
	}
	if tl.attempted != 4 || tl.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 4 and 1 (%v)", tl.attempted, tl.failed, tl.problems)
	}
	if tl.failFrac() != 0.25 {
		t.Fatalf("fail_frac = %v", tl.failFrac())
	}
}

func TestFingerprintsAreComparedPerInputSeed(t *testing.T) {
	var tl tally
	for _, o := range []outcome{
		{seed: 1, fingerprint: "aaaa"}, {seed: 2, fingerprint: "bbbb"},
		{seed: 1, fingerprint: "aaaa"}, {seed: 2, fingerprint: "cccc"},
	} {
		tl.record("timed", tl.judgeTimed(&o))
	}
	if tl.failed != 1 || !strings.Contains(tl.problems[0], "seed 2") {
		t.Fatalf("failed %d, want 1 for seed 2 (%v)", tl.failed, tl.problems)
	}
}

func TestSuiteOutputMustMatchVerifiedOutput(t *testing.T) {
	tl := tally{firstSHA: "verified"}
	tl.record("timed", tl.judgeTimed(&outcome{fingerprint: "f", outputSHA: "verified"}))
	tl.record("timed", tl.judgeTimed(&outcome{fingerprint: "f", outputSHA: "other"}))
	if tl.failed != 1 {
		t.Fatalf("failed %d, want 1 (%v)", tl.failed, tl.problems)
	}
}

func TestCellsOfOneWorkloadMustAgree(t *testing.T) {
	f1, f2 := core.SlotsRuns[0], core.SlotsRuns[1]
	cell := func(w core.Workload, f core.Factors, path, value string) (*core.RunReport, *capture) {
		raw := mapred.AppendKV(nil, []byte("k"), []byte(value))
		sum := sha256.Sum256(raw)
		rep := &core.RunReport{Workload: w, Factors: f, Audit: &core.AuditReport{
			OutputSums: map[string]string{path: hex.EncodeToString(sum[:])}}}
		c := &capture{raw: map[string][]byte{}}
		if chaos.FloatTolerant(path) {
			c.raw[path] = raw
		}
		return rep, c
	}
	o := &outcome{}
	caps := map[string]*capture{}
	for _, x := range []struct {
		w     core.Workload
		f     core.Factors
		path  string
		value string
	}{
		// Aggregation totals must match exactly across factor cells.
		{core.AGG, f1, "/bench/AGG/out/part-r-00000", "42"},
		{core.AGG, f2, "/bench/AGG/out/part-r-00000", "43"},
		// PageRank state may differ in the last bits of a float sum ...
		{core.PR, f1, "/bench/PR/out-state1/part-r-00000", "0.25000000000000006|a,b"},
		{core.PR, f2, "/bench/PR/out-state1/part-r-00000", "0.25|a,b"},
		// ... but not beyond the tolerance.
		{core.KM, f1, "/bench/KM/out-iter0/part-r-00000", "3;1.5;2.5"},
		{core.KM, f2, "/bench/KM/out-iter0/part-r-00000", "3;1.5;2.6"},
	} {
		rep, c := cell(x.w, x.f, x.path, x.value)
		key := cellKey(x.w, x.f)
		o.reps, o.cells = append(o.reps, rep), append(o.cells, key)
		caps[key] = c
	}
	bad := judgeVerify(o, nil, caps)
	if len(bad) != 2 || !strings.HasPrefix(bad[0], "AGG/2_16") || !strings.HasPrefix(bad[1], "KM/2_16") {
		t.Fatalf("problems %q, want one each for AGG/2_16 and KM/2_16", bad)
	}
}

func TestUninspectedCellFails(t *testing.T) {
	rep := &core.RunReport{Workload: core.TS, Factors: tiny.cell, Audit: &core.AuditReport{
		OutputSums: map[string]string{"/bench/TS/out/part-r-00000": "x"}}}
	o := &outcome{reps: []*core.RunReport{rep}, cells: []string{"TS/1_8/m16/ctrue"}}
	if bad := judgeVerify(o, nil, map[string]*capture{}); len(bad) != 1 {
		t.Fatalf("problems %q, want one", bad)
	}
	caps := map[string]*capture{"TS/1_8/m16/ctrue": {raw: map[string][]byte{}}}
	if bad := judgeVerify(o, nil, caps); len(bad) != 1 || !strings.Contains(bad[0], "TeraValidate") {
		t.Fatalf("problems %q, want TeraValidate not run", bad)
	}
}
