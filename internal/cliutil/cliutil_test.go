package cliutil

import (
	"bytes"
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"iochar/internal/core"
	"iochar/internal/disk"
)

// Regression: non-positive -scale (and friends) used to fall through to the
// library's silent-default policy, so `mrrun -scale -4096` (or `chaos -scale
// 0`) ran the default-scale experiment — indistinguishable from a hang. The
// CLIs now validate and exit with a clear message instead.
func TestBindTestbed(t *testing.T) {
	defaults := core.Testbed{Scale: 4096, Slaves: 10, Seed: 7, MapTaskTarget: 24, Racks: 1}
	cases := []struct {
		args []string
		want core.Testbed
		err  string // substring of the parse or validation error; "" = valid
	}{
		{args: nil, want: defaults},
		{
			args: []string{"-scale", "8192", "-slaves", "4", "-racks", "2", "-uplink", "40", "-tier", "ssd"},
			want: core.Testbed{Scale: 8192, Slaves: 4, Seed: 7, MapTaskTarget: 24, Racks: 2, UplinkBPS: 40 << 20, IntermediateTier: disk.ClassSSD},
		},
		{args: []string{"-scale", "0"}, err: "-scale"},
		{args: []string{"-scale", "-4096"}, err: "-scale"},
		{args: []string{"-slaves", "0"}, err: "-slaves"},
		{args: []string{"-slaves", "-1"}, err: "-slaves"},
		{args: []string{"-racks", "0"}, err: "-racks"},
		{args: []string{"-racks", "2", "-uplink", "-1"}, err: "-uplink must be non-negative"},
		{args: []string{"-uplink", "40"}, err: "-uplink is meaningful only with -racks > 1"},
		{args: []string{"-tier", "nvme"}, err: "-tier"},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		testbed := BindTestbed(fs, defaults)
		err := fs.Parse(c.args)
		var got core.Testbed
		if err == nil {
			got, err = testbed()
		}
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%v: unexpected error %v", c.args, err)
		case c.err == "" && got != c.want:
			t.Errorf("%v: got %+v, want %+v", c.args, got, c.want)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("%v: error %v, want one mentioning %q", c.args, err, c.err)
		}
	}
}

func TestValidateRunFlags(t *testing.T) {
	ok := func(frac float64, interval time.Duration, parallel int) {
		t.Helper()
		if err := ValidateRunFlags(frac, interval, parallel); err != nil {
			t.Errorf("ValidateRunFlags(%v,%v,%d) = %v, want nil", frac, interval, parallel, err)
		}
	}
	bad := func(want string, frac float64, interval time.Duration, parallel int) {
		t.Helper()
		err := ValidateRunFlags(frac, interval, parallel)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ValidateRunFlags(%v,%v,%d) = %v, want error mentioning %q", frac, interval, parallel, err, want)
		}
	}
	ok(1, 0, 0)
	ok(0.25, time.Millisecond, 8)
	bad("-input-fraction", 0, 0, 0)
	bad("-input-fraction", 1.5, 0, 0)
	bad("-sample-interval", 1, -time.Second, 0)
	bad("-parallel", 1, 0, -1)
}

func TestWarnClampsPrintsEachDistinctWarningOnce(t *testing.T) {
	var buf bytes.Buffer
	unsub := WarnClamps(&buf, "testtool")
	defer unsub()

	p := disk.SeagateST1000NM0011()
	p.Scaled(1 << 20)
	p.Scaled(1 << 20) // identical clamp: deduplicated
	p.Scaled(1 << 21) // different factor: its own line

	out := buf.String()
	if got := strings.Count(out, "testtool: warning:"); got != 2 {
		t.Errorf("got %d warning lines, want 2:\n%s", got, out)
	}
	if !strings.Contains(out, p.Name) {
		t.Errorf("warning should name the device:\n%s", out)
	}

	unsub()
	before := buf.Len()
	p.Scaled(1 << 22)
	if buf.Len() != before {
		t.Error("unsubscribed WarnClamps still printed")
	}
}
