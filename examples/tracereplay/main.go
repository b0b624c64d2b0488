// Trace replay: block-level what-if analysis on a captured workload.
//
// The paper characterizes workloads through aggregate iostat statistics;
// the natural next step (and the methodology of the storage papers it
// cites) is block-level tracing. This example captures the complete
// request stream of a TeraSort run — every (time, disk, op, sector, size)
// — and replays one intermediate-data disk's stream through alternative
// block-layer configurations, answering "how much is the elevator worth on
// MapReduce's small random I/O" with the workload's own trace.
//
//	go run ./examples/tracereplay
package main

import (
	"fmt"
	"log"

	"iochar"
	"iochar/internal/disk"
	"iochar/internal/trace"
)

func main() {
	collector := trace.NewCollector()
	opts := iochar.NewOptions(
		iochar.WithScale(16384),
		iochar.WithTraceAttach(func(dev string, d *disk.Disk) { collector.Attach(d, dev) }),
	)
	fmt.Println("running TeraSort (1_8, 16G, compression off) with block tracing...")
	rep, err := iochar.Run(iochar.TS, iochar.Factors{
		Slots: iochar.Slots1x8, MemoryGB: 16, Compress: false,
	}, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("captured %d requests across %d devices in %v of virtual time\n\n",
		collector.Len(), len(trace.Devices(collector.Records())), rep.Wall)

	// Pick the busiest intermediate-data disk.
	counts := map[string]int{}
	for _, r := range collector.Records() {
		counts[r.Dev]++
	}
	busiest, best := "", 0
	for _, dev := range trace.Devices(collector.Records()) {
		if len(dev) > 4 && dev[len(dev)-3:len(dev)-1] == "mr" && counts[dev] > best {
			busiest, best = dev, counts[dev]
		}
	}
	if busiest == "" {
		log.Fatal("no intermediate-disk records in trace")
	}
	fmt.Printf("replaying %s (%d requests) through block-layer variants:\n", busiest, best)
	fmt.Printf("%-28s %14s %14s\n", "configuration", "device busy", "mean await")

	variants := []struct {
		name string
		mut  func(*disk.Params)
	}{
		{"LOOK + merging (baseline)", func(p *disk.Params) {}},
		{"FIFO + merging", func(p *disk.Params) { p.Scheduler = disk.SchedFIFO }},
		{"LOOK, no merging", func(p *disk.Params) { p.NoMerge = true }},
		{"FIFO, no merging", func(p *disk.Params) { p.Scheduler = disk.SchedFIFO; p.NoMerge = true }},
	}
	for _, v := range variants {
		p := disk.SeagateST1000NM0011()
		v.mut(&p)
		res, err := trace.Replay(collector.Records(), busiest, p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s %14v %14v\n", v.name, res.TotalBusy.Round(1e6), res.MeanAwait.Round(1e4))
	}
	fmt.Println("\nThe block layer's two tricks — elevator ordering and request")
	fmt.Println("merging — are what stand between MapReduce's intermediate I/O")
	fmt.Println("pattern and far worse service times.")
}
