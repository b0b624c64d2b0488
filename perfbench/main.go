// Command perfbench is the simulator's benchmark. It drives one workload
// through the public API in a closed loop (one process, one execution at a
// time), checks every execution's output, and prints each metric by name
// with its unit; the last line of standard output is a JSON summary.
//
// Usage (from the repository root; perfbench/run.py builds and runs it):
//
//	perfbench --workload ts-codec|ts-raw|suite-quick --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it runs
// a separate traced phase (spans around calls into the layers, a CPU
// profile attributed to layers, counters read through the testbed's
// observer hooks) and reports the per-layer metrics. See README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"iochar/internal/core"
)

type config struct {
	workload  workload
	seed      int64
	seconds   time.Duration
	trace     bool
	start     time.Time // process start, as seen by the launcher
	setupOnly bool
}

// setups is how many set-ups setup_s is the median of, each in a fresh
// process.
const setups = 2

func main() {
	var (
		name      = flag.String("workload", "", "workload: ts-codec, ts-raw or suite-quick")
		seed      = flag.Int64("seed", 1, "workload seed")
		seconds   = flag.Float64("seconds", 12, "measured seconds per phase")
		trace     = flag.Int("trace", 0, "1 runs the traced phase and reports per-layer metrics")
		startNS   = flag.Int64("start-ns", 0, "launch time of this process in Unix nanoseconds (default: now)")
		setupOnly = flag.Bool("setup-only", false, "run the set-up (verification execution) only and report its time")
		pinSeeds  = flag.String("pin", "", "print pins.json for a seed range such as 1-20, then exit")
	)
	flag.Parse()
	start := time.Now()
	if *startNS > 0 {
		start = time.Unix(0, *startNS)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *pinSeeds != "" {
		if err := writePins(ctx, os.Stdout, *pinSeeds); err != nil {
			fatal(err)
		}
		return
	}
	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(errors.New("--seconds must be positive and --trace 0 or 1"))
	}
	cfg := config{
		workload: w, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, start: start, setupOnly: *setupOnly,
	}
	if err := run(ctx, cfg); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupReport is the last line a --setup-only child prints.
type setupReport struct {
	SetupS    float64  `json:"setup_s"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
}

func run(ctx context.Context, cfg config) error {
	ps, err := loadPins()
	if err != nil {
		return err
	}
	w := cfg.workload
	seeds := w.seeds(cfg.seed)
	t := &tally{}

	// The further set-ups of an end-to-end run go first, each in a fresh
	// process, while this one is still small and its heap cold; their time
	// is not part of this process's set-up.
	var setupTimes []float64
	var others time.Duration
	if !cfg.setupOnly && !cfg.trace {
		began := time.Now()
		for i := 1; i < setups; i++ {
			r, err := setupChild(ctx, cfg)
			if err != nil {
				return err
			}
			setupTimes = append(setupTimes, r.SetupS)
			t.attempted += r.Attempted
			t.failed += r.Failed
			for _, p := range r.Problems {
				t.problems = append(t.problems, fmt.Sprintf("set-up process %d %s", i, p))
			}
		}
		others = time.Since(began)
	}

	// Set-up: the untimed warm-up, which is also the audited verification
	// execution of the first input (the audit changes event counts, so it
	// stays untimed).
	vo, bad := w.verify(ctx, seeds[0], ps.ref(seeds[0], w.name))
	setup := time.Since(cfg.start) - others
	setupTimes = append(setupTimes, setup.Seconds())
	t.record(fmt.Sprintf("verification of seed %d", seeds[0]), bad)
	if w.suite && vo.err == nil {
		t.firstSHA = vo.outputSHA
	}
	if cfg.setupOnly {
		return printJSON(setupReport{SetupS: setup.Seconds(), Attempted: t.attempted, Failed: t.failed, Problems: t.problems})
	}
	fmt.Printf("perfbench: workload=%s seed=%d input seeds=%v seconds=%g trace=%v\n",
		w.name, cfg.seed, seeds, cfg.seconds.Seconds(), cfg.trace)

	var ms *metricSet
	if cfg.trace {
		ms, err = traced(ctx, cfg, t, ps)
	} else {
		ms, err = untraced(ctx, cfg, t, setupTimes, ps)
	}
	if err != nil {
		return err
	}
	// The other inputs are verified after the measurement, so that the
	// set-up stays one verification however many inputs a run covers.
	for _, seed := range seeds[1:] {
		_, bad := w.verify(ctx, seed, ps.ref(seed, w.name))
		t.record(fmt.Sprintf("verification of seed %d", seed), bad)
	}
	for _, p := range t.problems {
		fmt.Println("FAILED", p)
	}
	fmt.Printf("fail_frac %g (%d of %d executions failed)\n", t.failFrac(), t.failed, t.attempted)
	ms.print()
	return printJSON(summary{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: ms.values})
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

// sample is the host cost of one timed execution.
type sample struct {
	seed                  int64 // input seed
	wall                  time.Duration
	events                uint64
	alloc, mallocs, numGC uint64
	pause                 time.Duration
}

// loop executes the workload in a closed loop, in whole rounds over the
// run's input seeds, until the phase has lasted cfg.seconds (at least one
// round), judging every execution. It also returns the outcomes of the
// first round and the process's peak RSS in MB as of its end: a fixed
// amount of work (the set-up plus one execution of each input), so the
// figure does not grow with the number of executions a run happens to fit.
func loop(ctx context.Context, cfg config, t *tally, tr *tracer, label string) ([]sample, []*outcome, float64) {
	var opts []core.Options
	for _, seed := range cfg.workload.seeds(cfg.seed) {
		o := cfg.workload.options(seed)
		if tr != nil {
			o = o.With(tr.options()...)
		}
		opts = append(opts, o)
	}
	var (
		samples []sample
		round   []*outcome
		rss     float64
		before  runtime.MemStats
		after   runtime.MemStats
	)
	phase := time.Now()
	for i := 0; i == 0 || i%len(opts) != 0 || time.Since(phase) < cfg.seconds; i++ {
		if ctx.Err() != nil {
			break
		}
		runtime.GC() // each execution starts from a collected heap
		runtime.ReadMemStats(&before)
		o := cfg.workload.execute(ctx, opts[i%len(opts)], tr, nil)
		runtime.ReadMemStats(&after)
		t.record(fmt.Sprintf("%s execution %d (seed %d)", label, i+1, o.seed), t.judgeTimed(o))
		if i < len(opts) {
			round = append(round, o)
			if i == len(opts)-1 {
				rss = peakRSS()
			}
		}
		samples = append(samples, sample{
			seed:    o.seed,
			wall:    o.wall,
			events:  o.events,
			alloc:   after.TotalAlloc - before.TotalAlloc,
			mallocs: after.Mallocs - before.Mallocs,
			numGC:   uint64(after.NumGC - before.NumGC),
			pause:   time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		})
	}
	return samples, round, rss
}

// untraced measures the end-to-end metrics.
func untraced(ctx context.Context, cfg config, t *tally, setupTimes []float64, ps pins) (*metricSet, error) {
	samples, round, rss := loop(ctx, cfg, t, nil, "timed")
	if rss == 0 {
		return nil, errors.New("peak RSS: no VmHWM in /proc/self/status")
	}
	ws := walls(samples)
	rates := make([]float64, len(samples))
	for i, s := range samples {
		rates[i] = div(float64(s.events), s.wall.Seconds())
	}
	wall := median(ws)
	ms := newMetricSet(endToEnd)
	ms.set("wall_s", wall)
	ms.set("events_per_s", median(rates))
	ms.set("alloc_mb", perInputMean(samples, func(s sample) float64 { return float64(s.alloc) / 1e6 }))
	ms.set("peak_rss_mb", rss)
	ms.set("setup_s", median(setupTimes))
	fmt.Printf("wall_s over %d executions: median %.4f, p25 %.4f, p75 %.4f, all %s\n",
		len(ws), wall, quantile(ws, 0.25), quantile(ws, 0.75), fmtList(ws))
	fmt.Printf("setup_s over %d set-ups: %s\n", len(setupTimes), fmtList(setupTimes))
	printIdentity(cfg.workload, round, ps)
	return ms, ms.complete()
}

// perInputMean is the mean over input seeds of each seed's median of f,
// so every input weighs the same.
func perInputMean(samples []sample, f func(sample) float64) float64 {
	var seeds []int64
	by := map[int64][]float64{}
	for _, s := range samples {
		if _, ok := by[s.seed]; !ok {
			seeds = append(seeds, s.seed)
		}
		by[s.seed] = append(by[s.seed], f(s))
	}
	var sum float64
	for _, seed := range seeds {
		sum += median(by[seed])
	}
	return div(sum, float64(len(seeds)))
}

// setupChild measures one more set-up in a fresh process, so that work an
// earlier set-up cached in memory cannot hide in the median.
func setupChild(ctx context.Context, cfg config) (setupReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return setupReport{}, err
	}
	launch := time.Now()
	cmd := exec.CommandContext(ctx, exe, "--setup-only", "--workload", cfg.workload.name,
		"--seed", strconv.FormatInt(cfg.seed, 10), "--start-ns", strconv.FormatInt(launch.UnixNano(), 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return setupReport{}, fmt.Errorf("set-up process: %w", err)
	}
	var r setupReport
	if err := json.Unmarshal(lastLine(out), &r); err != nil {
		return setupReport{}, fmt.Errorf("set-up process output: %w", err)
	}
	return r, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// printIdentity reports, for each input of a round, whether the simulated
// outcome equals the values pinned for its seed. A mismatch fails nothing:
// a change to the simulation's semantics is expected to move it, a pure
// speed-up is not.
func printIdentity(w workload, round []*outcome, ps pins) {
	for _, o := range round {
		if o.err != nil {
			continue
		}
		ref, pinned := ps.lookup(o.seed, w.name)
		line := fmt.Sprintf("identity %s seed %d: fingerprint %s pinned-equal=%s", w.name, o.seed, o.fingerprint,
			identity(o.fingerprint, ref.Fingerprint, pinned))
		if w.suite {
			line += fmt.Sprintf(" -all sha256 %.16s pinned-equal=%s", o.outputSHA,
				identity(o.outputSHA, ref.OutputSHA256, pinned))
		}
		fmt.Printf("%s sim.virtual_s=%.6f sim.events=%d\n", line, o.virtual.Seconds(), o.events)
	}
}

// traced measures the per-layer metrics: an untraced phase as the overhead
// baseline, then a traced phase under the CPU profiler with every hook on.
func traced(ctx context.Context, cfg config, t *tally, ps pins) (*metricSet, error) {
	plain, round, _ := loop(ctx, cfg, t, nil, "untraced")
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	tsamples, tround, _ := loop(ctx, cfg, t, tr, "traced")
	pprof.StopCPUProfile()

	stacks, weights, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	a := attribute(stacks, weights)
	// Spans and the profile go next to the binary, inside the build
	// directory.
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	base := filepath.Join(filepath.Dir(exe), fmt.Sprintf("%s-seed%d", cfg.workload.name, cfg.seed))
	if err := tr.write(base + ".spans.jsonl"); err != nil {
		return nil, err
	}
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return nil, fmt.Errorf("write profile: %w", err)
	}
	printIdentity(cfg.workload, round, ps)
	printIdentity(cfg.workload, tround, ps)
	ms := layerMetrics(a, plain, tsamples, round, tround, tr)
	fmt.Printf("profile: %d samples, coverage %.4f (%.4f in iochar/internal layers), traced wall %s vs untraced %s\n",
		len(weights), a.coverage(), a.share(a.total-a.layers[layerUnattributed]-a.layers[layerRuntime]-a.layers[layerTrace]),
		fmtList(walls(tsamples)), fmtList(walls(plain)))
	return ms, ms.complete()
}

func walls(s []sample) []float64 {
	w := make([]float64, len(s))
	for i := range s {
		w[i] = s[i].wall.Seconds()
	}
	return w
}

// peakRSS reads the process's peak resident set size (VmHWM) in MB, or 0
// where /proc does not report it.
func peakRSS() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// median is the 0.5 quantile.
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func fmtList(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
