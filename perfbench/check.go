package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"
	"sync"

	"iochar/internal/chaos"
	"iochar/internal/cluster"
	"iochar/internal/core"
	"iochar/internal/datagen"
	"iochar/internal/hdfs"
	"iochar/internal/mapred"
	"iochar/internal/sim"
)

// Correctness has three parts, none of which reads intermediate byte
// counts, so a lossless codec change passes all of them:
//
//   - the untimed verification execution runs with the post-run audit and
//     is judged on its invariants and on the canonical job-output sums
//     (AuditReport.OutputSums), against the values pinned for the seed
//     where a pin exists, and always against reference-free rules
//     (TeraValidate, and agreement between cells of one workload);
//   - every timed execution must reproduce the simulated fingerprint of
//     the run's first timed execution of the same input seed, and a suite
//     execution must render the same -all output as the verification
//     execution;
//   - the fingerprint and -all output are also compared with the pinned
//     values, as a report of simulated identity that fails nothing.

//go:embed pins.json
var pinsJSON []byte

// pin is what the benchmark recorded for one workload at one seed.
type pin struct {
	// Fingerprint is the simulated fingerprint of an untraced execution
	// (bench.Fingerprint; for the suite, a hash over its cells').
	Fingerprint string `json:"fingerprint"`
	// OutputSHA256 hashes the suite's rendered -all output.
	OutputSHA256 string `json:"output_sha256,omitempty"`
	// Outputs maps each cell to the hash of its audited output sums.
	Outputs map[string]string `json:"outputs"`
}

// pins maps seed -> workload -> pin.
type pins map[string]map[string]pin

func loadPins() (pins, error) {
	var p pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

func (p pins) lookup(seed int64, workload string) (pin, bool) {
	pn, ok := p[fmt.Sprint(seed)][workload]
	return pn, ok
}

// ref is the pin to verify against, or nil for an unpinned seed.
func (p pins) ref(seed int64, workload string) *pin {
	if pn, ok := p.lookup(seed, workload); ok {
		return &pn
	}
	return nil
}

// cellKey names an experiment cell, e.g. "TS/1_8/m16/ctrue".
func cellKey(w core.Workload, f core.Factors) string {
	return fmt.Sprintf("%s/%s/m%d/c%v", w, f.Slots.Name, f.MemoryGB, f.Compress)
}

// sumsHash folds a run's per-file output sums into one hash.
func sumsHash(sums map[string]string) string {
	paths := make([]string, 0, len(sums))
	for p := range sums {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		fmt.Fprintf(h, "%s %s\n", p, sums[p])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// tally counts executions and failures over one benchmark run.
type tally struct {
	attempted, failed int
	problems          []string
	// firstFP maps each input seed to the fingerprint of the run's first
	// timed execution of it; firstSHA is the verified -all output of a
	// suite run.
	firstFP  map[int64]string
	firstSHA string
}

// record counts one execution, failed if it has any problem.
func (t *tally) record(what string, problems []string) {
	t.attempted++
	if len(problems) == 0 {
		return
	}
	t.failed++
	for _, p := range problems {
		t.problems = append(t.problems, what+": "+p)
	}
}

// failFrac is failed executions over attempted executions.
func (t *tally) failFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// judgeTimed lists what is wrong with a timed (or traced) execution.
func (t *tally) judgeTimed(o *outcome) []string {
	if o.err != nil {
		return []string{o.err.Error()}
	}
	var bad []string
	if t.firstFP == nil {
		t.firstFP = map[int64]string{}
	}
	if first, ok := t.firstFP[o.seed]; !ok {
		t.firstFP[o.seed] = o.fingerprint
	} else if o.fingerprint != first {
		bad = append(bad, fmt.Sprintf("simulated fingerprint %s differs from the run's first execution of seed %d (%s)", o.fingerprint, o.seed, first))
	}
	if t.firstSHA != "" && o.outputSHA != t.firstSHA {
		bad = append(bad, fmt.Sprintf("-all output %.16s differs from the verified execution's (%.16s)", o.outputSHA, t.firstSHA))
	}
	return bad
}

// judgeVerify lists what is wrong with the audited verification execution:
// audit violations, output sums that differ from the pin (when ref has
// one), failed TeraValidate checks, and cells of one workload whose outputs
// disagree.
func judgeVerify(o *outcome, ref *pin, caps map[string]*capture) []string {
	if o.err != nil {
		return []string{o.err.Error()}
	}
	var bad []string
	type first struct {
		key  string
		sums map[string]string
		raw  map[string][]byte
	}
	firsts := map[core.Workload]first{}
	for i, rep := range o.reps {
		key := o.cells[i]
		if rep.Audit == nil {
			bad = append(bad, key+": no audit report")
			continue
		}
		for _, v := range rep.Audit.Violations() {
			bad = append(bad, key+": "+v)
		}
		sums := rep.Audit.OutputSums
		if len(sums) == 0 {
			bad = append(bad, key+": no job output")
			continue
		}
		if ref != nil {
			if got, want := sumsHash(sums), ref.Outputs[key]; got != want {
				bad = append(bad, fmt.Sprintf("%s: output sums %.16s differ from the pinned %.16s", key, got, want))
			}
		}
		c := caps[key]
		if c == nil {
			bad = append(bad, key+": output was not inspected")
			continue
		}
		for _, e := range c.errs {
			bad = append(bad, key+": "+e)
		}
		if rep.Workload == core.TS && !c.teraValidated {
			bad = append(bad, key+": TeraValidate did not run")
		}
		// The paper's factors change how a job runs, never what it
		// computes: every cell of a workload must match its first cell,
		// exactly or, for floating-point iteration state, within the
		// chaos oracle's tolerance.
		f, ok := firsts[rep.Workload]
		if !ok {
			firsts[rep.Workload] = first{key, sums, c.raw}
			continue
		}
		for _, d := range chaos.CompareOutputs(f.sums, sums, f.raw, c.raw) {
			bad = append(bad, fmt.Sprintf("%s: against %s: %s", key, f.key, d))
		}
	}
	return bad
}

// capture is what the verification's Inspect hook read back from one
// cell's cluster: raw float-carrying outputs and the TeraValidate verdict.
type capture struct {
	teraValidated bool
	raw           map[string][]byte
	errs          []string
}

// verifier runs the Inspect hook of a verification execution. Cells run
// one at a time, so the capture of the cell that just ran is pending until
// the caller names that cell.
type verifier struct {
	mu      sync.Mutex
	pending *capture
	caps    map[string]*capture
}

func newVerifier() *verifier { return &verifier{caps: map[string]*capture{}} }

func (v *verifier) inspect(p *sim.Proc, fs *hdfs.FS, cl *cluster.Cluster) {
	c := &capture{raw: map[string][]byte{}}
	if len(fs.List(teraIn)) > 0 {
		c.teraValidated = true
		if err := teraValidate(p, fs, cl.Master.Name); err != nil {
			c.errs = append(c.errs, err.Error())
		}
	}
	for _, path := range fs.List("/bench/") {
		if !chaos.FloatTolerant(path) {
			continue
		}
		r, err := fs.Open(path, cl.Master.Name)
		if err == nil {
			c.raw[path], err = r.ReadAt(p, 0, r.Size())
		}
		if err != nil {
			c.errs = append(c.errs, err.Error())
		}
	}
	v.mu.Lock()
	v.pending = c
	v.mu.Unlock()
}

// assign files the pending capture under the cell that produced it.
func (v *verifier) assign(key string) {
	v.mu.Lock()
	v.caps[key] = v.pending
	v.pending = nil
	v.mu.Unlock()
}

const (
	teraIn  = "/bench/TS/in/"
	teraOut = "/bench/TS/out/"
)

// teraValidate is the TeraSort benchmark's reference-free output check:
// the concatenated reduce outputs are globally sorted by key and hold
// exactly the input's records (same count, same order-independent sum of
// per-record CRC32s).
func teraValidate(p *sim.Proc, fs *hdfs.FS, client string) error {
	read := func(path string) ([]byte, error) {
		r, err := fs.Open(path, client)
		if err != nil {
			return nil, err
		}
		return r.ReadAt(p, 0, r.Size())
	}
	var inN, inSum uint64
	for _, path := range fs.List(teraIn) {
		data, err := read(path)
		if err != nil {
			return fmt.Errorf("teravalidate: %w", err)
		}
		if len(data)%datagen.RecordSize != 0 {
			return fmt.Errorf("teravalidate: %s holds a partial record", path)
		}
		for off := 0; off < len(data); off += datagen.RecordSize {
			inN++
			inSum += uint64(crc32.ChecksumIEEE(data[off : off+datagen.RecordSize]))
		}
	}
	outs := fs.List(teraOut)
	sort.Strings(outs)
	var outN, outSum uint64
	var last []byte
	for _, path := range outs {
		data, err := read(path)
		if err != nil {
			return fmt.Errorf("teravalidate: %w", err)
		}
		for len(data) > 0 {
			k, v, rest := mapred.NextKV(data)
			if len(rest) >= len(data) {
				return fmt.Errorf("teravalidate: %s: malformed record framing", path)
			}
			data = rest
			if last != nil && bytes.Compare(k, last) < 0 {
				return fmt.Errorf("teravalidate: %s: key %x sorts before its predecessor %x", path, k, last)
			}
			last = k
			outN++
			outSum += uint64(crc32.Update(crc32.ChecksumIEEE(k), crc32.IEEETable, v))
		}
	}
	if inN == 0 {
		return fmt.Errorf("teravalidate: no input records")
	}
	if outN != inN || outSum != inSum {
		return fmt.Errorf("teravalidate: output holds %d records (checksum %x), input %d (checksum %x)", outN, outSum, inN, inSum)
	}
	return nil
}

// identity reports whether a pinned value matches: "true", "false", or
// "unpinned" for a seed without a pin.
func identity(got, pinned string, ok bool) string {
	if !ok || pinned == "" {
		return "unpinned"
	}
	return fmt.Sprint(got == pinned)
}

// shortList joins problems for a one-line summary.
func shortList(p []string, max int) string {
	if len(p) > max {
		return strings.Join(p[:max], "; ") + fmt.Sprintf("; and %d more", len(p)-max)
	}
	return strings.Join(p, "; ")
}
