// Command bench measures the simulator itself: host wall-clock, kernel
// events/sec, allocation volume and heap footprint for each workload at a
// fixed seed and scale, plus the cold full -all experiment matrix, emitted
// as a schema-versioned BENCH_<rev>.json comparable across commits.
//
// Usage:
//
//	bench                          # default config -> BENCH_<rev>.json
//	bench -quick                   # smoke-test config (sub-minute)
//	bench -baseline results/BENCH_seed.json   # embed + compare
//	bench -profile-dir prof/       # capture cpu.pprof and heap.pprof
//	bench -check BENCH_abc123.json # validate an existing result and exit
//
// The tool prints a comparison table when -baseline is given and exits
// nonzero if fingerprints diverge (an "optimization" that changed simulated
// results) or the suite output hash moved — speed numbers are only
// comparable between revisions that compute identical results.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"

	"iochar/internal/bench"
	"iochar/internal/cliutil"
	"iochar/internal/core"
)

func main() {
	var (
		quick      = flag.Bool("quick", false, "smoke-test configuration (small inputs, one iteration); testbed flags left unset take its values")
		seed       = flag.Int64("seed", 0, "override simulation seed")
		iters      = flag.Int("iterations", 0, "override timed iterations per workload")
		workloads  = flag.String("workloads", "", "comma-separated workload subset (default TS,AGG,KM,PR,JOIN)")
		noSuite    = flag.Bool("no-suite", false, "skip the cold -all matrix measurement")
		out        = flag.String("out", "", "output path (default BENCH_<rev>.json)")
		baseline   = flag.String("baseline", "", "prior BENCH_*.json to embed and compare against")
		profileDir = flag.String("profile-dir", "", "capture cpu.pprof and heap.pprof under this directory")
		check      = flag.String("check", "", "validate an existing result JSON against the schema and exit")
		rev        = flag.String("rev", "", "revision label for the output name (default: git short rev)")
	)
	// The tier applies to the workload measurements only: the suite
	// measurement always runs untiered, so its output hash stays comparable.
	def := bench.Default()
	testbed := cliutil.BindTestbed(flag.CommandLine, core.Testbed{Scale: def.Scale, Slaves: def.Slaves, Racks: 1})
	flag.Parse()

	tb, err := testbed()
	if err == nil && *iters < 0 {
		// 0 keeps the config default, so only a negative value is nonsense.
		err = fmt.Errorf("-iterations must be positive (0 = config default), got %d", *iters)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}

	if *check != "" {
		if _, err := bench.LoadFile(*check); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid (schema %d)\n", *check, bench.SchemaVersion)
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := def
	if *quick {
		cfg = bench.Quick()
	}
	// Testbed flags the user set override the configuration; the rest keep
	// its values, so -quick still takes Quick()'s scale and slave count.
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "scale":
			cfg.Scale = tb.Scale
		case "slaves":
			cfg.Slaves = tb.Slaves
		case "racks":
			cfg.Racks = tb.Racks
		case "uplink":
			cfg.UplinkBPS = tb.UplinkBPS
		case "tier":
			cfg.Tier = tb.IntermediateTier
		}
	})
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *iters > 0 {
		cfg.Iterations = *iters
	}
	if *noSuite {
		cfg.Suite = false
	}
	cfg.ProfileDir = *profileDir
	if *workloads != "" {
		cfg.Workloads = nil
		for _, name := range strings.Split(*workloads, ",") {
			w, err := core.ParseWorkload(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(2)
			}
			cfg.Workloads = append(cfg.Workloads, w)
		}
	}

	var base *bench.Result
	if *baseline != "" {
		b, err := bench.LoadFile(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		base = b
	}

	res, err := bench.Run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	res.Rev = *rev
	if res.Rev == "" {
		res.Rev = gitRev()
	}
	res.Baseline = base

	path := *out
	if path == "" {
		path = bench.FileName(res.Rev)
	}
	if err := bench.WriteFile(path, res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s\n", path)

	printResult(res)
	if base != nil {
		ok := printComparison(base, res)
		if !ok {
			os.Exit(1)
		}
	}
}

// gitRev returns the short HEAD revision, or "dev" outside a git checkout.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "dev"
	}
	return strings.TrimSpace(string(out))
}

func printResult(r *bench.Result) {
	fmt.Printf("%-9s %12s %14s %14s %12s %12s  %s\n",
		"workload", "wall", "events/sec", "allocs", "alloc-MB", "virtual", "fingerprint")
	for _, w := range r.Workloads {
		fmt.Printf("%-9s %12s %14.0f %14d %12.1f %12s  %s\n",
			w.Workload, fmtNS(w.WallNS), w.EventsPerSec, w.AllocObjects,
			float64(w.AllocBytes)/(1<<20), fmtNS(w.VirtualNS), w.Fingerprint)
	}
	if s := r.Suite; s != nil {
		fmt.Printf("%-9s %12s %14s %14d %12.1f %12s  sha=%s\n",
			"suite", fmtNS(s.WallNS), fmt.Sprintf("%d cells", s.Cells), s.AllocObjects,
			float64(s.AllocBytes)/(1<<20), "-", s.OutputSHA256[:16])
	}
}

// printComparison renders the delta table against the baseline and reports
// whether the two results are comparable. Same-tier results must agree on
// every workload fingerprint and the suite output hash. When the tiers
// differ, per-workload fingerprints diverge by design (the device model
// under the intermediate volumes changed), so the table reports the
// simulated await and virtual-wall deltas instead, and only the untiered
// suite hash gates comparability.
func printComparison(base, cur *bench.Result) bool {
	ok := true
	fmt.Printf("\nvs baseline %s:\n", base.Rev)
	byName := map[string]bench.WorkloadResult{}
	for _, w := range base.Workloads {
		byName[w.Workload] = w
	}
	if base.Config.Tier != cur.Config.Tier {
		fmt.Printf("intermediate tier %s -> %s: comparing simulated effect, not host speed\n",
			base.Config.Tier, cur.Config.Tier)
		fmt.Printf("%-9s %12s %12s %9s   %10s %10s %9s\n",
			"workload", "mr-await-old", "mr-await-new", "Δawait", "vwall-old", "vwall-new", "Δvwall")
		for _, w := range cur.Workloads {
			b, found := byName[w.Workload]
			if !found {
				continue
			}
			fmt.Printf("%-9s %10.3fms %10.3fms %8.1f%%   %10s %10s %8.1f%%\n",
				w.Workload, b.MRAwaitMs, w.MRAwaitMs,
				pctF(b.MRAwaitMs, w.MRAwaitMs),
				fmtNS(b.VirtualNS), fmtNS(w.VirtualNS), pct(b.VirtualNS, w.VirtualNS))
		}
	} else {
		fmt.Printf("%-9s %10s %10s %8s   %10s %8s\n", "workload", "wall-old", "wall-new", "Δwall", "allocs", "Δallocs")
		for _, w := range cur.Workloads {
			b, found := byName[w.Workload]
			if !found {
				continue
			}
			if b.Fingerprint != w.Fingerprint {
				fmt.Printf("%-9s FINGERPRINT DIVERGED (%s -> %s): results not comparable\n",
					w.Workload, b.Fingerprint, w.Fingerprint)
				ok = false
				continue
			}
			fmt.Printf("%-9s %10s %10s %7.1f%%   %10d %7.1f%%\n",
				w.Workload, fmtNS(b.WallNS), fmtNS(w.WallNS), pct(b.WallNS, w.WallNS),
				w.AllocObjects, pct(int64(b.AllocObjects), int64(w.AllocObjects)))
		}
	}
	if base.Suite != nil && cur.Suite != nil {
		switch {
		case base.Suite.OutputSHA256 != cur.Suite.OutputSHA256:
			fmt.Printf("suite     OUTPUT HASH DIVERGED: -all output is no longer byte-identical\n")
			ok = false
		case base.Config.Tier != cur.Config.Tier:
			// The suite always runs untiered, so its hash must agree even
			// across tiers; speed rows would compare different columns here.
			fmt.Printf("suite     output hash identical (%s)\n", cur.Suite.OutputSHA256[:16])
		default:
			fmt.Printf("%-9s %10s %10s %7.1f%%   %10d %7.1f%%\n",
				"suite", fmtNS(base.Suite.WallNS), fmtNS(cur.Suite.WallNS),
				pct(base.Suite.WallNS, cur.Suite.WallNS),
				cur.Suite.AllocObjects, pct(int64(base.Suite.AllocObjects), int64(cur.Suite.AllocObjects)))
		}
	}
	return ok
}

// pct returns the signed percent change from old to new (negative = faster).
func pct(old, new int64) float64 {
	if old == 0 {
		return 0
	}
	return (float64(new) - float64(old)) / float64(old) * 100
}

func pctF(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old * 100
}

func fmtNS(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
