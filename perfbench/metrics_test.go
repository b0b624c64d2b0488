package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if !metricName.MatchString(s.name) {
			t.Errorf("metric name %q does not match %s", s.name, metricName)
		}
		if seen[s.name] {
			t.Errorf("metric %q is listed twice", s.name)
		}
		seen[s.name] = true
		if s.unit == "" {
			t.Errorf("metric %q has no unit", s.name)
		}
	}
}

// TestBenchmarkJSONMatchesSpecs holds BENCHMARK.json, at the repository
// root, to the metrics the program prints.
func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		var g, w [][2]string
		for _, m := range got {
			g = append(g, [2]string{m.Name, m.Unit})
		}
		for _, m := range want {
			w = append(w, [2]string{m.name, m.unit})
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s in BENCHMARK.json:\n%v\nprogram prints:\n%v", kind, g, w)
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads in BENCHMARK.json %v, program runs %v", names, want)
	}
}

func TestMetricSetRejectsMissingValues(t *testing.T) {
	ms := newMetricSet(endToEnd)
	for _, s := range endToEnd[1:] {
		ms.set(s.name, 1)
	}
	if ms.complete() == nil {
		t.Fatal("complete() accepted a set without wall_s")
	}
	ms.set("wall_s", 1)
	if err := ms.complete(); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	if got := median(v); got != 2.5 {
		t.Fatalf("median = %v", got)
	}
	if got := quantile(v, 0.25); got != 1.75 {
		t.Fatalf("p25 = %v", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Fatalf("median of one = %v", got)
	}
}

func TestSeedsAreDisjointBlocks(t *testing.T) {
	one := workload{}
	if got := one.seeds(7); !reflect.DeepEqual(got, []int64{7}) {
		t.Fatalf("one input: seeds(7) = %v", got)
	}
	six := workload{inputs: 6}
	if got := six.seeds(1); !reflect.DeepEqual(got, []int64{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("six inputs: seeds(1) = %v", got)
	}
	if got := six.seeds(3); !reflect.DeepEqual(got, []int64{13, 14, 15, 16, 17, 18}) {
		t.Fatalf("six inputs: seeds(3) = %v", got)
	}
}

func TestPerInputMeanWeighsInputsEqually(t *testing.T) {
	// Seed 1 ran three times, seed 2 once: each seed's median counts once.
	s := []sample{{seed: 1, alloc: 10}, {seed: 1, alloc: 12}, {seed: 1, alloc: 11}, {seed: 2, alloc: 31}}
	if got := perInputMean(s, func(s sample) float64 { return float64(s.alloc) }); got != 21 {
		t.Fatalf("perInputMean = %v, want 21", got)
	}
}
