package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"iochar/internal/bench"
	"iochar/internal/core"
	"iochar/internal/report"
)

// workload is one input set the benchmark drives through the public API.
// README.md records why each was chosen.
type workload struct {
	name string
	// testbed is the simulated cluster (bench.Default or bench.Quick).
	testbed bench.Config
	// suite selects the cold -all matrix; otherwise the TeraSort cell.
	suite bool
	cell  core.Factors
	// inputs is how many input seeds one run covers (0 means 1). A run
	// whose simulated work varies with the seed spans several inputs, so
	// that its per-execution figures describe a mix, not one draw.
	inputs int
}

var workloads = []workload{
	// TeraSort with intermediate compression: the codec does most work.
	{name: "ts-codec", testbed: bench.Default(), cell: core.SlotsRuns[0]},
	// The same input with compression off: sort, merge and storage work.
	// Without the codec, how much merging and re-reading a run does
	// depends on the seed (up to a fifth more events and allocation), so
	// a run spans six inputs.
	{name: "ts-raw", testbed: bench.Default(), cell: core.MemoryRuns[0], inputs: 6},
	// The cold sequential -all matrix, figures and tables rendered.
	{name: "suite-quick", testbed: bench.Quick(), suite: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want ts-codec, ts-raw or suite-quick)", name)
}

// seeds are the input seeds of the run given --seed n: the n-th block of
// w.inputs consecutive seeds, so n itself when a run has one input, and
// disjoint sets for distinct n.
func (w workload) seeds(n int64) []int64 {
	k := int64(max(w.inputs, 1))
	s := make([]int64, k)
	for i := range s {
		s[i] = (n-1)*k + 1 + int64(i)
	}
	return s
}

// options is the workload's testbed at the given input seed.
func (w workload) options(seed int64) core.Options {
	c := w.testbed
	return core.NewOptions(
		core.WithScale(c.Scale),
		core.WithSlaves(c.Slaves),
		core.WithMapTaskTarget(c.MapTaskTarget),
		core.WithSeed(seed),
	)
}

// outcome is what one execution produced.
type outcome struct {
	seed   int64 // input seed
	err    error
	wall   time.Duration // host time of the whole execution
	events uint64
	// virtual is simulated time, summed over cells.
	virtual     time.Duration
	fingerprint string
	outputSHA   string // suite only: SHA-256 of the rendered -all output
	reps        []*core.RunReport
	cells       []string // cellKey of each report
}

// execute runs the workload once. A non-nil tracer times the calls into
// core and report and must already have installed its hooks in opts; a
// non-nil verifier, whose Inspect hook opts carries, learns which cell each
// capture belongs to.
func (w workload) execute(ctx context.Context, opts core.Options, tr *tracer, v *verifier) *outcome {
	start := time.Now()
	o := &outcome{seed: opts.Seed}
	if w.suite {
		w.executeSuite(ctx, opts, tr, v, o)
	} else {
		var id int
		if tr != nil {
			id = tr.beginRoot(spanRunOne)
		}
		rep, err := core.RunOneContext(ctx, core.TS, w.cell, opts)
		if tr != nil {
			tr.end(id)
		}
		key := cellKey(core.TS, w.cell)
		if v != nil {
			v.assign(key)
		}
		if err != nil {
			o.err = err
		} else {
			o.reps, o.cells = []*core.RunReport{rep}, []string{key}
			o.fingerprint = bench.Fingerprint(rep)
		}
	}
	o.wall = time.Since(start)
	for _, rep := range o.reps {
		o.events += rep.Events
		o.virtual += rep.Wall
	}
	return o
}

func (w workload) executeSuite(ctx context.Context, opts core.Options, tr *tracer, v *verifier, o *outcome) {
	var sopts []core.SuiteOption
	if v != nil {
		// The suite runs one cell at a time (parallelism 1) and reports
		// each right after its Inspect hook ran.
		sopts = append(sopts, core.WithProgress(func(ev core.ProgressEvent) {
			if ev.Source == core.SourceExecuted {
				v.assign(cellKey(ev.Workload, ev.Factors))
			}
		}))
	}
	s := core.NewSuite(opts, sopts...)
	var id int
	if tr != nil {
		id = tr.beginRoot(spanRunAll)
	}
	err := s.RunAll(ctx)
	if tr != nil {
		tr.end(id)
	}
	if err != nil {
		o.err = err
		return
	}
	if tr != nil {
		id = tr.begin(spanRender, 0)
	}
	h := sha256.New()
	for _, n := range core.Figures() {
		fd, err := s.Figure(n)
		if err != nil {
			o.err = err
			return
		}
		report.WriteFigure(h, fd)
	}
	for _, n := range core.Tables() {
		td, err := s.Table(n)
		if err != nil {
			o.err = err
			return
		}
		report.WriteTable(h, td)
	}
	if tr != nil {
		tr.end(id)
	}
	o.outputSHA = hex.EncodeToString(h.Sum(nil))
	fp := sha256.New()
	for _, c := range core.MatrixCells() {
		rep, err := s.RunContext(ctx, c.Workload, c.Factors) // resolved by RunAll
		if err != nil {
			o.err = err
			return
		}
		key := cellKey(c.Workload, c.Factors)
		o.reps = append(o.reps, rep)
		o.cells = append(o.cells, key)
		fmt.Fprintf(fp, "%s %s\n", key, bench.Fingerprint(rep))
	}
	o.fingerprint = hex.EncodeToString(fp.Sum(nil))[:16]
}

// verify runs the untimed audited execution of one input seed and judges
// it. For a run's first input it doubles as the warm-up: set-up time is
// process start until it returns.
func (w workload) verify(ctx context.Context, seed int64, ref *pin) (*outcome, []string) {
	v := newVerifier()
	opts := w.options(seed).With(core.WithAudit(), core.WithInspect(v.inspect))
	o := w.execute(ctx, opts, nil, v)
	return o, judgeVerify(o, ref, v.caps)
}
