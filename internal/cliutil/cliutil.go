// Package cliutil holds the small pieces the command-line front ends
// (cmd/iochar, cmd/mrrun, cmd/chaos, cmd/bench) share: the testbed-shape
// flags and their validation, validation of the other numeric run flags,
// and stderr reporting of capacity-clamp warnings raised during
// provisioning.
//
// Validation exists because the library's withDefaults policy — reset any
// nonsense value to the documented default — is right for programmatic use
// but wrong at the CLI: `-scale -4096` silently running the (enormous)
// default-scale experiment looks exactly like a hang.
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"sync"
	"time"

	"iochar/internal/core"
	"iochar/internal/disk"
)

// BindTestbed registers the testbed-shape flags on fs, with defaults' values
// as flag defaults: -scale, -slaves, -racks, -uplink (MB/s) and -tier. Call
// the returned function after fs.Parse; it yields defaults overwritten by
// the flags, or an error naming the first invalid one. Seed and
// MapTaskTarget pass through from defaults: each CLI binds its own -seed
// and -map-tasks, since chaos -seed is the chaos seed, not the testbed's.
//
// The racks-vs-slaves bound (every rack must hold a slave) is enforced at
// provisioning time, like every other cross-field constraint.
func BindTestbed(fs *flag.FlagSet, defaults core.Testbed) func() (core.Testbed, error) {
	tb := defaults
	fs.Int64Var(&tb.Scale, "scale", defaults.Scale, "capacity divisor vs the paper's testbed")
	fs.IntVar(&tb.Slaves, "slaves", defaults.Slaves, "number of slave nodes")
	fs.IntVar(&tb.Racks, "racks", defaults.Racks, "rack count: slave i lands in rack i%racks behind a ToR switch (1 = flat network)")
	uplinkMB := fs.Int64("uplink", defaults.UplinkBPS>>20, "per-rack ToR uplink bandwidth in MB/s (0 = NIC rate; only meaningful with -racks > 1)")
	fs.TextVar(&tb.IntermediateTier, "tier", defaults.IntermediateTier, "device class for intermediate-data volumes: hdd | ssd (HDFS data disks stay mechanical; ssd constrains -scale)")
	return func() (core.Testbed, error) {
		switch {
		case tb.Scale <= 0:
			return core.Testbed{}, fmt.Errorf("-scale must be positive, got %d", tb.Scale)
		case tb.Slaves <= 0:
			return core.Testbed{}, fmt.Errorf("-slaves must be positive, got %d", tb.Slaves)
		case tb.Racks < 1:
			// 1 is the flat single-rack network, byte-identical to the
			// pre-rack behaviour.
			return core.Testbed{}, fmt.Errorf("-racks must be positive, got %d", tb.Racks)
		case *uplinkMB < 0:
			return core.Testbed{}, fmt.Errorf("-uplink must be non-negative MB/s (0 = NIC rate), got %d", *uplinkMB)
		case *uplinkMB > 0 && tb.Racks == 1:
			return core.Testbed{}, fmt.Errorf("-uplink is meaningful only with -racks > 1 (a single rack has no uplinks)")
		}
		out := tb
		out.UplinkBPS = *uplinkMB << 20
		return out, nil
	}
}

// ValidateRunFlags checks the remaining numeric knobs of the runner CLIs:
// frac must lie in (0, 1]; interval must be non-negative (0 selects the
// documented auto default); parallel must be non-negative (0 selects
// GOMAXPROCS).
func ValidateRunFlags(frac float64, interval time.Duration, parallel int) error {
	if frac <= 0 || frac > 1 {
		return fmt.Errorf("-input-fraction must be in (0,1], got %v", frac)
	}
	if interval < 0 {
		return fmt.Errorf("-sample-interval must be non-negative (0 = auto), got %v", interval)
	}
	if parallel < 0 {
		return fmt.Errorf("-parallel must be non-negative (0 = GOMAXPROCS), got %d", parallel)
	}
	return nil
}

// WarnClamps subscribes to the disk package's capacity-clamp bus and prints
// each distinct warning once to w, prefixed with the tool name — the CLI
// surface for "your -scale is so large that capacity ratios no longer
// hold". It returns the unsubscribe function. Safe for concurrent
// notification (parallel suite cells provision concurrently).
func WarnClamps(w io.Writer, tool string) (unsubscribe func()) {
	var mu sync.Mutex
	seen := map[string]bool{}
	return disk.SubscribeScaleClamps(func(cw disk.ClampWarning) {
		msg := cw.String()
		mu.Lock()
		dup := seen[msg]
		seen[msg] = true
		mu.Unlock()
		if !dup {
			fmt.Fprintf(w, "%s: warning: %s\n", tool, msg)
		}
	})
}
