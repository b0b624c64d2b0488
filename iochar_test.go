package iochar

import (
	"bytes"
	"strings"
	"testing"
)

// facadeOpts keeps facade tests fast; the heavyweight shape assertions live
// in internal/core's tests.
var facadeOpts = Options{Testbed: Testbed{Scale: 65536, Slaves: 4, MapTaskTarget: 24}}

func TestRunFacade(t *testing.T) {
	rep, err := Run(AGG, Factors{Slots: Slots1x8, MemoryGB: 32}, facadeOpts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workload != AGG || rep.Wall <= 0 {
		t.Errorf("unexpected report: %s %v", rep.Workload, rep.Wall)
	}
	var buf bytes.Buffer
	Summarize(&buf, rep)
	if !strings.Contains(buf.String(), "workload AGG") {
		t.Errorf("summary missing workload line:\n%s", buf.String())
	}
}

func TestRunFacadeInvalidWorkload(t *testing.T) {
	if _, err := Run(Workload(0), Factors{Slots: Slots1x8, MemoryGB: 16}, facadeOpts); err == nil {
		t.Error("want error")
	}
	if _, err := ParseWorkload("XX"); err == nil {
		t.Error("want error from ParseWorkload")
	}
}

func TestFiguresAndTablesLists(t *testing.T) {
	if got := Figures(); len(got) != 12 || got[0] != 1 || got[11] != 12 {
		t.Errorf("Figures() = %v", got)
	}
	if got := Tables(); len(got) != 3 || got[0] != 5 {
		t.Errorf("Tables() = %v", got)
	}
}

func TestRenderFigureAndCSV(t *testing.T) {
	s := NewSuite(facadeOpts)
	var buf bytes.Buffer
	if err := RenderFigure(&buf, s, 12); err != nil { // compression family: 4 cells... wait, fig 12 is MR-only, compress family
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 12") || !strings.Contains(out, "TS_on") {
		t.Errorf("figure rendering incomplete:\n%s", out)
	}
	buf.Reset()
	if err := RenderFigureCSV(&buf, s, 12); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "figure,panel,label") {
		t.Error("CSV header missing")
	}
	// Cells must be shared: figure 12 and figure 3 use the same runs.
	n := s.CachedRuns()
	buf.Reset()
	if err := RenderFigure(&buf, s, 3); err != nil {
		t.Fatal(err)
	}
	if s.CachedRuns() != n {
		t.Errorf("figure 3 re-ran cells: %d -> %d", n, s.CachedRuns())
	}
}

func TestRenderTableAndCSV(t *testing.T) {
	s := NewSuite(facadeOpts)
	var buf bytes.Buffer
	if err := RenderTable(&buf, s, 5); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Peak HDFS Disk Read Bandwidth") {
		t.Errorf("table rendering incomplete:\n%s", buf.String())
	}
	buf.Reset()
	if err := RenderTableCSV(&buf, s, 5); err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(strings.TrimSpace(buf.String()), "\n")) != 5 {
		t.Errorf("table CSV rows:\n%s", buf.String())
	}
}

func TestRenderErrors(t *testing.T) {
	s := NewSuite(facadeOpts)
	var buf bytes.Buffer
	if err := RenderFigure(&buf, s, 99); err == nil {
		t.Error("want error for figure 99")
	}
	if err := RenderTable(&buf, s, 1); err == nil {
		t.Error("want error for table 1 (configuration table)")
	}
}
