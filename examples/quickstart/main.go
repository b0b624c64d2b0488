// Quickstart: run one paper experiment cell end to end.
//
// This runs TeraSort on the simulated 1+10-node testbed (scaled 1/8192 so
// it finishes in seconds), with 32 GB nodes, 8 map + 1 reduce slots, and
// compressed intermediate data, then prints the job counters and the
// iostat view of the two disk groups — the paper's basic measurement.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"iochar"
)

func main() {
	rep, err := iochar.Run(iochar.TS, iochar.Factors{
		Slots:    iochar.Slots1x8,
		MemoryGB: 16,
		Compress: true,
	}, iochar.NewOptions(iochar.WithScale(8192)))
	if err != nil {
		log.Fatal(err)
	}

	iochar.Summarize(os.Stdout, rep)

	fmt.Println()
	fmt.Println("The paper's headline contrast, visible in one run:")
	fmt.Printf("  HDFS      avgrq-sz %6.0f sectors (large sequential)\n", rep.HDFS.AvgrqSz.MeanNonzero())
	fmt.Printf("  MapReduce avgrq-sz %6.0f sectors (small random)\n", rep.MR.AvgrqSz.MeanNonzero())
	fmt.Printf("  HDFS      wait %6.2f ms\n", rep.HDFS.WaitMs.MeanNonzero())
	fmt.Printf("  MapReduce wait %6.2f ms (queueing on the intermediate disks)\n", rep.MR.WaitMs.MeanNonzero())
}
