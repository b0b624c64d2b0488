package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"reflect"
	"testing"
)

func TestBucketInnermostLayerFrame(t *testing.T) {
	cases := []struct {
		stack []string // leaf first
		want  string
	}{
		// Standard-library callees are charged to the layer that called them.
		{[]string{"compress/flate.(*compressor).deflate", "compress/flate.(*Writer).Write",
			"iochar/internal/compress.Deflate.Compress", "iochar/internal/mapred.(*mapTask).spill",
			"iochar/internal/sim.(*Env).Go.func1", "runtime.goexit"}, "compress"},
		{[]string{"slices.pdqsortCmpFunc[...]", "iochar/internal/mapred.sortKVEntries",
			"iochar/internal/mapred.(*mapTask).spill"}, "mapred"},
		{[]string{"strconv.ParseFloat", "iochar/internal/workloads.(*KMeans).Run.func1",
			"iochar/internal/mapred.(*mapTask).run"}, "workloads"},
		// Helper packages fold into the layer they serve.
		{[]string{"iochar/internal/stats.(*Series).Add", "iochar/internal/cpustat.(*Monitor).sample"}, "iostat"},
		// Internal packages outside the table are "other".
		{[]string{"iochar/internal/cluster.(*Node).Compute"}, layerOther},
		// The benchmark's own code is tracing overhead, even when a layer
		// called it (the codec decorator).
		{[]string{"time.now", "main.spanCodec.Compress", "iochar/internal/mapred.(*mapTask).spill"}, layerTrace},
		{[]string{"runtime/pprof.(*profileBuilder).addCPUData", "runtime/pprof.profileWriter"}, layerTrace},
		// GC workers name no layer but are the runtime's.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2",
			"runtime.systemstack", "runtime.gcBgMarkWorker", "runtime.goexit"}, layerRuntime},
		// Scheduler samples name nothing.
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.mcall"}, layerUnattributed},
		{nil, layerUnattributed},
	}
	for _, c := range cases {
		if got := bucket(c.stack); got != c.want {
			t.Errorf("bucket(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestAttributeSharesAndMarks(t *testing.T) {
	stacks := [][]string{
		{"iochar/internal/mapred.sortKVEntries.func1", "slices.SortFunc", "iochar/internal/mapred.sortKVEntries"},
		{"runtime.memmove", "iochar/internal/mapred.mergeRuns"},
		{"iochar/internal/compress.Deflate.Decompress"},
		{"runtime.mcall"},
	}
	a := attribute(stacks, []int64{30, 20, 40, 10})
	if a.total != 100 || a.layers["mapred"] != 50 || a.layers["compress"] != 40 || a.layers[layerUnattributed] != 10 {
		t.Fatalf("layers = %v (total %d)", a.layers, a.total)
	}
	if a.marks[markSort] != 30 || a.marks[markMerge] != 20 {
		t.Fatalf("marks = %v", a.marks)
	}
	if got := a.coverage(); got != 0.9 {
		t.Fatalf("coverage = %v, want 0.9", got)
	}
	if got := (attribution{}).coverage(); got != 0 {
		t.Fatalf("empty coverage = %v", got)
	}
}

// pb is a minimal protobuf encoder for building synthetic profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(field int, v uint64) *pb {
	b.Write(binary.AppendUvarint(nil, uint64(field)<<3))
	b.Write(binary.AppendUvarint(nil, v))
	return b
}

func (b *pb) bytes(field int, v []byte) *pb {
	b.Write(binary.AppendUvarint(nil, uint64(field)<<3|2))
	b.Write(binary.AppendUvarint(nil, uint64(len(v))))
	b.Write(v)
	return b
}

func packed(vs ...uint64) []byte {
	var out []byte
	for _, v := range vs {
		out = binary.AppendUvarint(out, v)
	}
	return out
}

func TestParseProfile(t *testing.T) {
	var p pb
	for _, s := range []string{"", "samples", "count", "cpu", "nanoseconds",
		"iochar/internal/mapred.sortKVEntries", "slices.SortFunc", "iochar/internal/mapred.spill"} {
		p.bytes(6, []byte(s))
	}
	// Functions 1..3 name string-table entries 5..7.
	for id := uint64(1); id <= 3; id++ {
		var f pb
		p.bytes(5, f.varint(1, id).varint(2, id+4).Bytes())
	}
	// Location 1 has slices.SortFunc inlined into sortKVEntries (innermost
	// line first); location 2 is the spill caller.
	var l1, l2, line pb
	l1.varint(1, 1)
	l1.bytes(4, line.varint(1, 2).Bytes())
	line.Reset()
	l1.bytes(4, line.varint(1, 1).Bytes())
	l2.varint(1, 2)
	line.Reset()
	l2.bytes(4, line.varint(1, 3).Bytes())
	p.bytes(4, l1.Bytes()).bytes(4, l2.Bytes())
	// One packed sample and one with unpacked repeated fields.
	var s1, s2 pb
	s1.bytes(1, packed(1, 2)).bytes(2, packed(3, 30000000))
	s2.varint(1, 2).varint(2, 1).varint(2, 10000000)
	p.bytes(2, s1.Bytes()).bytes(2, s2.Bytes())
	// A fixed-width field the decoder skips.
	p.Write([]byte{9<<3 | 1, 0, 0, 0, 0, 0, 0, 0, 0})

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.Bytes())
	zw.Close()
	for _, data := range [][]byte{p.Bytes(), gz.Bytes()} {
		stacks, weights, err := parseProfile(data)
		if err != nil {
			t.Fatal(err)
		}
		want := [][]string{
			{"slices.SortFunc", "iochar/internal/mapred.sortKVEntries", "iochar/internal/mapred.spill"},
			{"iochar/internal/mapred.spill"},
		}
		if !reflect.DeepEqual(stacks, want) || !reflect.DeepEqual(weights, []int64{30000000, 10000000}) {
			t.Fatalf("stacks %v weights %v", stacks, weights)
		}
	}
	if _, _, err := parseProfile(p.Bytes()[:len(p.Bytes())-3]); err == nil {
		t.Fatal("truncated profile parsed without error")
	}
}
