package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"iochar/internal/cluster"
	"iochar/internal/compress"
	"iochar/internal/core"
	"iochar/internal/disk"
	"iochar/internal/hdfs"
	"iochar/internal/localfs"
	"iochar/internal/mapred"
	"iochar/internal/sim"
)

// Span names recorded around calls into layer public functions.
const (
	spanRunOne     = "core.RunOneContext"
	spanRunAll     = "core.Suite.RunAll"
	spanRender     = "report.render"
	spanCompress   = "compress.Compress"
	spanDecompress = "compress.Decompress"
)

// span is one timed call. Start and End are offsets from the tracer's
// creation; Parent is 0 for a root span; Exec numbers the traced execution.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Exec   int           `json:"exec"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the benchmark ends, together with
// the counters recorded at the same boundaries. A nil *tracer is off: an
// untraced execution installs no hooks at all.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	exec  int
	root  int // open execution-level span: parent of codec spans

	codecIn, codecOut int64 // bytes into and out of Compress calls
	codecCalls        int64 // Compress plus Decompress calls
	disk              diskCounts
	fs                fsCounts
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.open(name, parent, now)
}

// beginRoot opens the span of a new traced execution.
func (t *tracer) beginRoot(name string) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.exec++
	t.root = t.open(name, 0, now)
	return t.root
}

// beginChild opens a span under the open execution span.
func (t *tracer) beginChild(name string) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.open(name, t.root, now)
}

func (t *tracer) open(name string, parent int, now time.Duration) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Exec: t.exec, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// endCodec closes a codec span and counts the call and its bytes.
func (t *tracer) endCodec(id, in, out int) {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.codecCalls++
	t.codecIn += int64(in)
	t.codecOut += int64(out)
	t.mu.Unlock()
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return d
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// options returns the testbed hooks of a traced execution: the codec
// decorator, the disk observers and the post-run inspection. None of them
// issues simulated work, so the simulated outcome stays unchanged.
func (t *tracer) options() []core.Option {
	return []core.Option{
		core.WithTuneMapred(func(cfg *mapred.Config) {
			// The identity codec is a pass-through, not work of the
			// compress layer; only a real codec is timed.
			if _, ok := cfg.Codec.(compress.Identity); !ok && cfg.Codec != nil {
				cfg.Codec = spanCodec{Codec: cfg.Codec, t: t}
			}
		}),
		core.WithTraceAttach(func(_ string, d *disk.Disk) {
			d.Subscribe(t.observe)
		}),
		core.WithInspect(func(_ *sim.Proc, _ *hdfs.FS, cl *cluster.Cluster) {
			t.inspect(cl)
		}),
	}
}

// spanCodec times every call into the codec it wraps.
type spanCodec struct {
	compress.Codec
	t *tracer
}

func (c spanCodec) Compress(src []byte) []byte {
	id := c.t.beginChild(spanCompress)
	out := c.Codec.Compress(src)
	c.t.endCodec(id, len(src), len(out))
	return out
}

func (c spanCodec) Decompress(enc []byte) []byte {
	id := c.t.beginChild(spanDecompress)
	out := c.Codec.Decompress(enc)
	c.t.endCodec(id, 0, 0)
	return out
}

// diskCounts are the block-device counters the disk observers collect.
type diskCounts struct {
	requests int64
	byStage  [disk.NumStages]int64
	bytes    int64
	await    time.Duration // simulated, summed over requests
}

func (t *tracer) observe(c disk.Completion) {
	t.mu.Lock()
	t.disk.requests++
	t.disk.byStage[c.Stage]++
	t.disk.bytes += int64(c.Count) * 512
	t.disk.await += c.Done - c.Arrived
	t.mu.Unlock()
}

// fsCounts are the local-filesystem and page-cache counters read back from
// every data volume after the run.
type fsCounts struct {
	read, written                    uint64
	hits, misses                     uint64
	readahead, flushed, evictedDirty uint64
	throttleStalls                   uint64
}

func (t *tracer) inspect(cl *cluster.Cluster) {
	seen := map[*localfs.FS]bool{}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range cl.Slaves {
		for _, v := range append(append([]*localfs.FS{}, s.HDFSVols...), s.MRVols...) {
			if seen[v] {
				continue
			}
			seen[v] = true
			st, cs := v.Stats(), v.Cache().Stats()
			t.fs.read += st.BytesRead
			t.fs.written += st.BytesWritten
			t.fs.hits += cs.Hits
			t.fs.misses += cs.Misses
			t.fs.readahead += cs.ReadaheadPages
			t.fs.flushed += cs.FlushedPages
			t.fs.evictedDirty += cs.EvictedDirty
			t.fs.throttleStalls += cs.ThrottleStalls
		}
	}
}
