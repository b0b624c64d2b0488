// Memory sweep: extend the paper's two-point memory experiment to a curve.
//
// The paper compares 16 GB and 32 GB nodes (Figures 2, 5, 8, 11) and
// concludes that more memory reduces I/O requests and relieves disk
// pressure. This example sweeps node memory across 8-48 GB for TeraSort —
// the workload with the heaviest intermediate traffic — and prints how the
// intermediate-disk request count, utilization and job runtime respond,
// exposing the saturation point the paper's two samples bracket.
//
//	go run ./examples/memorysweep
package main

import (
	"fmt"
	"log"

	"iochar"
)

func main() {
	fmt.Println("TeraSort vs node memory (slots 1_8, compression off, scale 1/8192):")
	fmt.Printf("%8s %12s %12s %12s %12s\n", "mem(GB)", "MR requests", "MR %util", "HDFS rMB/s", "runtime")
	for _, gb := range []int{8, 16, 24, 32, 48} {
		rep, err := iochar.Run(iochar.TS, iochar.Factors{
			Slots:    iochar.Slots1x8,
			MemoryGB: gb,
			Compress: false,
		}, iochar.NewOptions(iochar.WithScale(8192)))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%8d %12d %12.1f %12.1f %12v\n",
			gb,
			rep.MR.TotalReads+rep.MR.TotalWrites,
			rep.MR.Util.Mean(),
			rep.HDFS.RMBs.Mean(),
			rep.Wall.Round(1e6))
	}
	fmt.Println("\nExpected shape (paper observation 2): request count and MR pressure")
	fmt.Println("fall as memory grows, and the job speeds up until the intermediate")
	fmt.Println("data fits in buffers and the curve flattens.")
}
