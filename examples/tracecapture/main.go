// Trace capture and replay: record a workload's fetch-event stream to a
// compact binary trace file, then replay it through the simulator —
// decoupling (expensive) query execution from (cheap) parameter sweeps,
// the way trace-driven simulators are used in practice.
//
//	go run ./examples/tracecapture [-trace /tmp/wisc.cgptrc]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"cgp/internal/cpu"
	"cgp/internal/prefetch"
	"cgp/internal/program"
	"cgp/internal/trace"
	"cgp/internal/workload"
)

func main() {
	path := flag.String("trace", "/tmp/wisc-prof.cgptrc", "trace file path")
	flag.Parse()

	// Capture: run wisc-prof once on the O5 image, teeing events into a
	// trace file and a stats counter.
	w := workload.WiscProf(workload.DBOptions{WiscN: 1000})
	img := program.LayoutO5(w.NewRegistry())

	f, err := os.Create(*path)
	if err != nil {
		log.Fatal(err)
	}
	tw := trace.NewWriter(f)
	var st trace.Stats
	if err := w.Run(img, trace.Tee(&st, tw)); err != nil {
		log.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	info, _ := os.Stat(*path)
	fmt.Printf("captured %d events (%d instructions) to %s (%d bytes, %.2f bytes/instr)\n",
		st.Events, st.Instructions, *path, info.Size(),
		float64(info.Size())/float64(st.Instructions))

	// Replay: load the file once into a sealed recording, then sweep
	// prefetchers over it without re-executing a single query. The CPU
	// model takes the decoded events a batch at a time.
	rf, err := os.Open(*path)
	if err != nil {
		log.Fatal(err)
	}
	rec, err := trace.Load(rf)
	rf.Close()
	if err != nil {
		log.Fatal(err)
	}
	for _, pf := range []prefetch.Prefetcher{
		prefetch.None{},
		prefetch.NewNL(4),
		prefetch.NewRunAheadNL(4, 4),
	} {
		c := cpu.New(cpu.DefaultConfig(), pf)
		if err := rec.Replay(c); err != nil {
			log.Fatal(err)
		}
		s := c.Finish()
		fmt.Printf("replay %-8s cycles=%-9d I-misses=%d\n", pf.Name(), s.Cycles, s.ICacheMisses)
	}
}
