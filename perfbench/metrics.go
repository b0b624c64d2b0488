package main

import (
	"fmt"

	"iochar/internal/core"
	"iochar/internal/disk"
)

// metricSpec names one reported metric and its unit. The lists below must
// match BENCHMARK.json's end_to_end and per_layer lists, in order
// (metrics_test.go checks it).
type metricSpec struct{ name, unit string }

// endToEnd are measured with tracing off. Failures are reported as the
// summary's attempted and failed counts (and fail_frac on its own line).
var endToEnd = []metricSpec{
	{"wall_s", "s"},
	{"events_per_s", "1/s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are measured by the traced run. Times are host seconds per
// execution, counts and sizes are per execution (means over the run's
// input seeds), and disk.await_ms is simulated.
var perLayer = []metricSpec{
	{"compress.self_s", "s"},
	{"compress.compress_s", "s"},
	{"compress.decompress_s", "s"},
	{"compress.calls", "count"},
	{"compress.in_mb", "MB"},
	{"compress.ratio", "ratio"},
	{"mapred.self_s", "s"},
	{"mapred.sort_s", "s"},
	{"mapred.merge_s", "s"},
	{"mapred.spills", "count"},
	{"mapred.map_output_mb", "MB"},
	{"mapred.spill_mb", "MB"},
	{"mapred.shuffle_mb", "MB"},
	{"workloads.self_s", "s"},
	{"workloads.map_input_records", "count"},
	{"datagen.self_s", "s"},
	{"datagen.input_mb", "MB"},
	{"hdfs.self_s", "s"},
	{"hdfs.read_mb", "MB"},
	{"hdfs.write_mb", "MB"},
	{"localfs.self_s", "s"},
	{"localfs.read_mb", "MB"},
	{"localfs.write_mb", "MB"},
	{"pagecache.self_s", "s"},
	{"pagecache.hit_ratio", "ratio"},
	{"pagecache.readahead_pages", "count"},
	{"pagecache.flushed_pages", "count"},
	{"pagecache.evicted_dirty", "count"},
	{"pagecache.throttle_stalls", "count"},
	{"disk.self_s", "s"},
	{"disk.requests", "count"},
	{"disk.requests.hdfs", "count"},
	{"disk.requests.spill", "count"},
	{"disk.requests.merge", "count"},
	{"disk.requests.shuffle", "count"},
	{"disk.mb", "MB"},
	{"disk.await_ms", "ms"},
	{"netsim.self_s", "s"},
	{"netsim.mb", "MB"},
	{"netsim.failed_transfers", "count"},
	{"sim.self_s", "s"},
	{"sim.events", "count"},
	{"sim.host_ns_per_event", "ns"},
	{"sim.virtual_s", "s"},
	{"iostat.self_s", "s"},
	{"other.self_s", "s"},
	{"core.run_all_s", "s"},
	{"report.render_s", "s"},
	{"runtime.gc_s", "s"},
	{"runtime.unattributed_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"runtime.alloc_objects", "count"},
	{"trace.self_s", "s"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_s", "s"},
	{"trace.compress_xcheck_s", "s"},
}

// metricSet collects the values of one spec list.
type metricSet struct {
	specs  []metricSpec
	values map[string]metric
}

func newMetricSet(specs []metricSpec) *metricSet {
	return &metricSet{specs: specs, values: map[string]metric{}}
}

// set records a value; a name outside the spec list is a bug.
func (ms *metricSet) set(name string, v float64) {
	for _, s := range ms.specs {
		if s.name == name {
			ms.values[name] = metric{Value: v, Unit: s.unit}
			return
		}
	}
	panic("perfbench: metric " + name + " is not in the spec list")
}

// complete reports a spec'd metric that was never set.
func (ms *metricSet) complete() error {
	for _, s := range ms.specs {
		if _, ok := ms.values[s.name]; !ok {
			return fmt.Errorf("metric %s was not measured", s.name)
		}
	}
	return nil
}

func (ms *metricSet) print() {
	for _, s := range ms.specs {
		if m, ok := ms.values[s.name]; ok {
			fmt.Printf("metric %-28s %16.6f %s\n", s.name, m.Value, m.Unit)
		}
	}
}

// layerMetrics turns the traced phase into the per-layer metrics. plain
// and traced are the two phases' samples, round and tround their first
// rounds (one execution of each input seed).
func layerMetrics(a attribution, plain, traced []sample, round, tround []*outcome, tr *tracer) *metricSet {
	ms := newMetricSet(perLayer)
	twall := median(walls(traced))
	pwall := median(walls(plain))
	n := float64(len(traced))
	self := func(w int64) float64 { return a.share(w) * twall }
	for _, l := range tableLayers {
		ms.set(l+".self_s", self(a.layers[l]))
	}
	ms.set("other.self_s", self(a.layers[layerOther]))
	ms.set("trace.self_s", self(a.layers[layerTrace]))
	ms.set("runtime.gc_s", self(a.layers[layerRuntime]))
	ms.set("runtime.unattributed_s", self(a.layers[layerUnattributed]))
	ms.set("mapred.sort_s", self(a.marks[markSort]))
	ms.set("mapred.merge_s", self(a.marks[markMerge]))
	ms.set("trace.coverage", a.coverage())
	ms.set("trace.overhead_s", twall-pwall)

	// Spans, and the counters recorded at the same boundaries.
	cs, ds := tr.total(spanCompress).Seconds()/n, tr.total(spanDecompress).Seconds()/n
	ms.set("compress.compress_s", cs)
	ms.set("compress.decompress_s", ds)
	ms.set("trace.compress_xcheck_s", self(a.layers["compress"])-(cs+ds))
	ms.set("core.run_all_s", tr.total(spanRunAll).Seconds()/n)
	ms.set("report.render_s", tr.total(spanRender).Seconds()/n)
	tr.mu.Lock()
	ms.set("compress.calls", float64(tr.codecCalls)/n)
	ms.set("compress.in_mb", float64(tr.codecIn)/n/1e6)
	ms.set("compress.ratio", div(float64(tr.codecOut), float64(tr.codecIn)))
	d, f := tr.disk, tr.fs
	tr.mu.Unlock()
	ms.set("disk.requests", float64(d.requests)/n)
	for name, st := range map[string]disk.Stage{
		"hdfs": disk.StageHDFS, "spill": disk.StageSpill, "merge": disk.StageMerge, "shuffle": disk.StageShuffle,
	} {
		ms.set("disk.requests."+name, float64(d.byStage[st])/n)
	}
	ms.set("disk.mb", float64(d.bytes)/n/1e6)
	ms.set("disk.await_ms", div(float64(d.await.Microseconds())/1e3, float64(d.requests)))
	ms.set("localfs.read_mb", float64(f.read)/n/1e6)
	ms.set("localfs.write_mb", float64(f.written)/n/1e6)
	ms.set("pagecache.hit_ratio", div(float64(f.hits), float64(f.hits+f.misses)))
	ms.set("pagecache.readahead_pages", float64(f.readahead)/n)
	ms.set("pagecache.flushed_pages", float64(f.flushed)/n)
	ms.set("pagecache.evicted_dirty", float64(f.evictedDirty)/n)
	ms.set("pagecache.throttle_stalls", float64(f.throttleStalls)/n)

	// Counters the reports carry (deterministic per input seed), averaged
	// over the inputs.
	var spills, mapOut, spill, shuffle, records, input, hdfsR, hdfsW, net, failedXfers float64
	var reps []*core.RunReport
	for _, o := range tround {
		reps = append(reps, o.reps...)
	}
	for _, rep := range reps {
		for _, j := range rep.Jobs {
			spills += float64(j.Spills + j.ReduceSpills)
			mapOut += float64(j.MapOutputBytes)
			spill += float64(j.MapSpillBytes)
			shuffle += float64(j.ShuffleBytes)
			records += float64(j.MapInputRecords)
			input += float64(j.MapInputBytes)
		}
		hdfsR += float64(rep.HDFS.TotalReadBytes)
		hdfsW += float64(rep.HDFS.TotalWrittenBytes)
		for _, nic := range rep.Network.NICs {
			net += float64(nic.BytesSent)
		}
		failedXfers += float64(rep.Network.FailedTransfers)
	}
	k := float64(len(tround))
	ms.set("mapred.spills", spills/k)
	ms.set("mapred.map_output_mb", mapOut/k/1e6)
	ms.set("mapred.spill_mb", spill/k/1e6)
	ms.set("mapred.shuffle_mb", shuffle/k/1e6)
	ms.set("workloads.map_input_records", records/k)
	ms.set("datagen.input_mb", input/k/1e6)
	ms.set("hdfs.read_mb", hdfsR/k/1e6)
	ms.set("hdfs.write_mb", hdfsW/k/1e6)
	ms.set("netsim.mb", net/k/1e6)
	ms.set("netsim.failed_transfers", failedXfers/k)
	var events, virtual float64
	for _, o := range round {
		events += float64(o.events)
		virtual += o.virtual.Seconds()
	}
	ms.set("sim.events", events/float64(len(round)))
	ms.set("sim.virtual_s", virtual/float64(len(round)))
	ms.set("sim.host_ns_per_event", perInputMean(plain, func(s sample) float64 {
		return div(float64(s.wall.Nanoseconds()), float64(s.events))
	}))

	// Go runtime, from the untraced phase.
	gcs, pauses, objs := make([]float64, len(plain)), make([]float64, len(plain)), make([]float64, len(plain))
	for i, s := range plain {
		gcs[i], pauses[i], objs[i] = float64(s.numGC), s.pause.Seconds(), float64(s.mallocs)
	}
	ms.set("runtime.gc_cycles", median(gcs))
	ms.set("runtime.gc_pause_s", median(pauses))
	ms.set("runtime.alloc_objects", median(objs))
	return ms
}

// div is a/b, or 0 when b is 0 (a ratio over no work, such as the codec
// ratio of a run that never compresses).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
