package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// writePins measures the pinned values for every workload at each seed of
// a range such as "1-20" and writes them as pins.json. A seed is pinned
// only when its verification execution passes every reference-free check
// and an untraced execution renders the verified -all output.
func writePins(ctx context.Context, out io.Writer, seeds string) error {
	lo, hi, err := seedRange(seeds)
	if err != nil {
		return err
	}
	all := pins{}
	for seed := lo; seed <= hi; seed++ {
		key := strconv.FormatInt(seed, 10)
		all[key] = map[string]pin{}
		for _, w := range workloads {
			vo, bad := w.verify(ctx, seed, nil)
			if len(bad) > 0 {
				return fmt.Errorf("seed %d %s: %s", seed, w.name, shortList(bad, 5))
			}
			p := pin{Outputs: map[string]string{}}
			for i, rep := range vo.reps {
				p.Outputs[vo.cells[i]] = sumsHash(rep.Audit.OutputSums)
			}
			t := &tally{firstSHA: vo.outputSHA}
			o := w.execute(ctx, w.options(seed), nil, nil)
			if bad := t.judgeTimed(o); len(bad) > 0 {
				return fmt.Errorf("seed %d %s: %s", seed, w.name, shortList(bad, 5))
			}
			p.Fingerprint, p.OutputSHA256 = o.fingerprint, o.outputSHA
			all[key][w.name] = p
			fmt.Fprintf(os.Stderr, "pinned seed %d %s: fingerprint %s\n", seed, w.name, p.Fingerprint)
		}
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

func seedRange(s string) (lo, hi int64, err error) {
	a, b, ok := strings.Cut(s, "-")
	if !ok {
		b = a
	}
	if lo, err = strconv.ParseInt(a, 10, 64); err == nil {
		hi, err = strconv.ParseInt(b, 10, 64)
	}
	if err != nil || hi < lo {
		return 0, 0, fmt.Errorf("seed range %q: want N or N-M", s)
	}
	return lo, hi, nil
}
