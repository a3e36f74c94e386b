// Command cgptrace records, inspects and replays binary trace files —
// the capture/replay workflow of trace-driven simulation.
//
//	cgptrace record -workload wisc-prof -o wisc.cgptrc
//	cgptrace info wisc.cgptrc
//	cgptrace dump -n 40 wisc.cgptrc
//	cgptrace replay -prefetch cgp -n 4 wisc.cgptrc
//	cgptrace replay -prefetch cgp -n 4 -attr 10 wisc.cgptrc
//	cgptrace replay -prefetch nl -sample wisc.cgptrc
//
// replay -attr N appends a per-function attribution subreport: the N
// functions with the most prefetch-relevant demand fetches, with each
// function's coverage, accuracy and mean prefetch timeliness. Raw
// traces carry no symbol registry, so functions are identified by
// start address.
//
// replay -sample runs a sampled replay: the trace is loaded into a
// sealed in-memory recording (skipping needs its event index), most of
// the stream is skipped undecoded or functionally warmed, and only
// periodic windows are simulated in detail. The report shows estimated
// cycles/misses ±95% CI plus the per-tier event accounting (skipped /
// fast-forwarded / detailed).
//
// Probe-level captures (live traffic sealed by cgpserve -capture) are
// detected automatically: info and dump show the probe events as-is,
// and replay synthesizes the address-level stream over the database
// system's O5 layout (seeded by -seed) before simulating it.
//
// replay -by-query joins the simulation back to the serving layer: a
// capture of trace-tagged traffic (cgpserve drive -traced) carries
// each query's trace ID, and -by-query prints per-trace-ID CGP
// attribution (fetches, misses, coverage, accuracy, timeliness).
// Adding -querylog slow.jsonl joins in the server's wall-clock stage
// latencies for the same IDs, so one table links what a query cost on
// the wire to what it cost in the simulated memory hierarchy:
//
//	cgptrace replay -prefetch cgp -by-query -querylog slow.jsonl live.cgptrc
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"

	"cgp/internal/core"
	"cgp/internal/cpu"
	"cgp/internal/db"
	"cgp/internal/obs"
	"cgp/internal/prefetch"
	"cgp/internal/program"
	"cgp/internal/sample"
	"cgp/internal/trace"
	"cgp/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = record(os.Args[2:])
	case "info":
		err = info(os.Args[2:])
	case "dump":
		err = dump(os.Args[2:])
	case "replay":
		err = replay(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cgptrace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: cgptrace {record|info|dump|replay} [flags] [file]")
	os.Exit(2)
}

func findWorkload(name string, wiscN int, seed int64) (*workload.Workload, error) {
	opts := workload.DBOptions{WiscN: wiscN, Seed: seed}
	for _, w := range workload.DBWorkloads(opts) {
		if w.Name == name {
			return w, nil
		}
	}
	if spec, err := workload.CPU2000ByName(name); err == nil {
		return workload.NewCPU2000(spec, seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func record(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	name := fs.String("workload", "wisc-prof", "workload to record")
	layout := fs.String("layout", "o5", "binary layout: o5 (om requires a profile run and is produced by the library API)")
	out := fs.String("o", "trace.cgptrc", "output file")
	wiscN := fs.Int("wisc-n", 1000, "Wisconsin cardinality")
	seed := fs.Int64("seed", 42, "seed")
	fs.Parse(args)
	if *layout != "o5" {
		return fmt.Errorf("record supports -layout o5 (use the library for OM traces)")
	}
	w, err := findWorkload(*name, *wiscN, *seed)
	if err != nil {
		return err
	}
	img := program.LayoutO5(w.NewRegistry())
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	tw := trace.NewWriter(f)
	var st trace.Stats
	if err := w.Run(img, trace.Tee(&st, tw)); err != nil {
		return err
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Printf("recorded %s: %d events, %d instructions -> %s\n", w.Name, st.Events, st.Instructions, *out)
	return nil
}

// openTrace loads a trace file into a sealed recording: one decode
// pass rebuilds its Stats and skip index, and every subcommand then
// replays it through the batch decoder.
func openTrace(path string) (*trace.Recording, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Load(f)
}

func info(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("info needs a trace file")
	}
	rec, err := openTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	st := rec.Stats
	fmt.Printf("events          %d\n", st.Events)
	fmt.Printf("instructions    %d\n", st.Instructions)
	fmt.Printf("calls/returns   %d / %d\n", st.Calls, st.Returns)
	fmt.Printf("branches        %d (taken %d)\n", st.Branches, st.TakenBrs)
	fmt.Printf("loops           %d\n", st.Loops)
	fmt.Printf("data refs       %d (%d bytes)\n", st.DataRefs, st.DataBytes)
	fmt.Printf("ctx switches    %d\n", st.Switches)
	if st.QueryTags > 0 {
		fmt.Printf("query tags      %d (trace-tagged queries; replay -by-query joins attribution)\n", st.QueryTags)
	}
	if st.ProbeOps > 0 {
		fmt.Printf("probe ops       %d (probe-level capture; replay synthesizes addresses)\n", st.ProbeOps)
		return nil
	}
	fmt.Printf("instr/call      %.1f\n", st.InstructionsPerCall())
	fmt.Printf("events/kinst    %.1f\n", st.EventsPerKInstr())
	return nil
}

func dump(args []string) error {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	n := fs.Int("n", 20, "events to print")
	skip := fs.Int("skip", 0, "events to skip first")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("dump needs a trace file")
	}
	rec, err := openTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	seen, end := 0, *skip+*n
	err = rec.ReplayBatch(func(evs []trace.Event) error {
		for i := range evs {
			if seen == end {
				return errDumped
			}
			if seen++; seen > *skip {
				dumpEvent(&evs[i])
			}
		}
		return nil
	})
	if err == errDumped {
		return nil
	}
	return err
}

// errDumped stops a dump's replay once enough events are printed.
var errDumped = errors.New("dump complete")

// dumpEvent prints one event in dump's line format.
func dumpEvent(ev *trace.Event) {
	switch ev.Kind {
	case trace.KindRun:
		fmt.Printf("%-6s %#x +%d\n", ev.Kind, ev.Addr, ev.N)
	case trace.KindLoop:
		fmt.Printf("%-6s %#x body=%d iters=%d\n", ev.Kind, ev.Addr, ev.N, ev.Iters)
	case trace.KindBranch:
		fmt.Printf("%-6s %#x taken=%v -> %#x\n", ev.Kind, ev.Addr, ev.Taken, ev.Target)
	case trace.KindCall:
		fmt.Printf("%-6s %#x -> fn%d@%#x (from fn%d)\n", ev.Kind, ev.Addr, ev.Fn, ev.Target, ev.Caller)
	case trace.KindReturn:
		fmt.Printf("%-6s fn%d -> %#x\n", ev.Kind, ev.Fn, ev.Target)
	case trace.KindData:
		rw := "r"
		if ev.Taken {
			rw = "w"
		}
		fmt.Printf("%-6s %#x %dB %s\n", ev.Kind, ev.Addr, ev.N, rw)
	case trace.KindSwitch:
		fmt.Printf("%-6s thread %d\n", ev.Kind, ev.N)
	case trace.KindProbeEnter:
		fmt.Printf("%-6s fn%d\n", ev.Kind, ev.Fn)
	case trace.KindProbeExit:
		fmt.Printf("%-6s\n", ev.Kind)
	case trace.KindProbeWork:
		fmt.Printf("%-6s +%d\n", ev.Kind, ev.N)
	case trace.KindProbeData:
		rw := "r"
		if ev.Taken {
			rw = "w"
		}
		fmt.Printf("%-6s %#x %dB %s\n", ev.Kind, ev.Addr, ev.N, rw)
	case trace.KindQueryTag:
		fmt.Printf("%-6s %016x\n", ev.Kind, uint64(ev.Addr))
	}
}

func replay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	pref := fs.String("prefetch", "none", "none, nl, ranl, cgp")
	degree := fs.Int("n", 4, "prefetch degree")
	perfect := fs.Bool("perfect", false, "perfect I-cache")
	attrTop := fs.Int("attr", 0, "print per-function attribution for the top N functions (0 = off)")
	byQuery := fs.Bool("by-query", false, "print per-trace-ID attribution for trace-tagged captures")
	querylog := fs.String("querylog", "", "join the server's slow-query log (JSONL) into the -by-query table")
	sampled := fs.Bool("sample", false, "sampled replay: estimate whole-run cycles/misses from periodic detailed windows")
	samplePeriod := fs.Int64("sample-period", sample.Default().PeriodEvents, "events per sampling period")
	sampleFWarm := fs.Int64("sample-fwarm", sample.Default().FunctionalWarmEvents, "functionally warmed events before each window")
	sampleWarm := fs.Int64("sample-warmup", sample.Default().DetailWarmEvents, "detailed warm-up events before each window")
	sampleWin := fs.Int64("sample-window", sample.Default().WindowEvents, "measured events per window")
	sampleRand := fs.Bool("sample-random-offset", false, "place each period's window at a seeded random offset")
	sampleSeed := fs.Int64("sample-seed", 42, "seed for -sample-random-offset")
	seed := fs.Int64("seed", 42, "synthesis seed for probe-level captures")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("replay needs a trace file")
	}
	var pf prefetch.Prefetcher
	switch *pref {
	case "none", "":
		pf = prefetch.None{}
	case "nl":
		pf = prefetch.NewNL(*degree)
	case "ranl":
		pf = prefetch.NewRunAheadNL(*degree, *degree)
	case "cgp":
		pf = core.New(core.Config{Lines: *degree, L1Bytes: 2048, L2Bytes: 32 * 1024})
	default:
		return fmt.Errorf("unknown prefetcher %q", *pref)
	}
	cfg := cpu.DefaultConfig()
	cfg.PerfectICache = *perfect
	c := cpu.New(cfg, pf)
	if *attrTop > 0 || *byQuery {
		c.EnableAttribution()
	}
	rec, err := openTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	probe := trace.IsProbeRecording(rec)
	if *sampled {
		if probe {
			return fmt.Errorf("-sample needs an address-level trace; %s is a probe-level capture (replay it unsampled, or record the synthesized stream first)", fs.Arg(0))
		}
		scfg := sample.Config{
			PeriodEvents:         *samplePeriod,
			FunctionalWarmEvents: *sampleFWarm,
			DetailWarmEvents:     *sampleWarm,
			WindowEvents:         *sampleWin,
			RandomOffset:         *sampleRand,
			Seed:                 uint64(*sampleSeed),
		}.WithDefaults()
		return replaySampled(rec, c, pf, scfg)
	}
	if probe {
		// Probe captures carry the engine's own function IDs, so the
		// engine's registry is the only one that resolves them.
		reg, _ := db.BuildRegistry()
		err = trace.ReplayProbe(rec, program.LayoutO5(reg), c, *seed)
	} else {
		err = rec.Replay(c)
	}
	if err != nil {
		return err
	}
	s := c.Finish()
	fmt.Printf("prefetcher      %s\n", pf.Name())
	fmt.Printf("cycles          %d (IPC %.3f)\n", s.Cycles, s.IPC())
	fmt.Printf("I-cache misses  %d (%.2f/kinst)\n", s.ICacheMisses, s.IMissPerKInstr())
	tp := s.TotalPrefetch()
	if tp.Issued > 0 {
		fmt.Printf("prefetches      issued=%d hits=%d delayed=%d useless=%d\n",
			tp.Issued, tp.PrefHits, tp.DelayedHits, tp.Useless)
	}
	if *attrTop > 0 {
		printAttribution(s.Attribution, *attrTop)
	}
	if *byQuery {
		if err := printByQuery(s.QueryAttr, *querylog); err != nil {
			return err
		}
	}
	return nil
}

// printByQuery renders the per-trace-ID attribution table, optionally
// joined with the serving layer's slow-query log: for each trace ID
// the capture carried, the simulated CGP picture (fetches, misses,
// coverage, accuracy, timeliness) and — when the log has the same ID —
// the wall-clock total and per-stage latencies the server measured.
// Rows sort by trace ID, so reruns over the same capture print
// byte-identical tables.
func printByQuery(rows []cpu.QueryAttribution, querylog string) error {
	if len(rows) == 0 {
		return fmt.Errorf("-by-query: capture carries no query tags (drive the server with -traced clients)")
	}
	byID := map[uint64]obs.QueryLogEntry{}
	if querylog != "" {
		f, err := os.Open(querylog)
		if err != nil {
			return err
		}
		entries, err := obs.ValidateQueryLog(f)
		f.Close()
		if err != nil {
			return err
		}
		for _, e := range entries {
			byID[e.ID()] = e
		}
	}
	fmt.Printf("\nper-query attribution (%d trace-tagged queries):\n", len(rows))
	fmt.Printf("%-16s %8s %8s %8s %8s %6s %6s %10s", "trace_id", "fetches", "misses", "prfhits", "delayed", "cover", "accur", "timeliness")
	if querylog != "" {
		fmt.Printf("  %8s %10s %s", "status", "wall_ns", "stages")
	}
	fmt.Println()
	for i := range rows {
		r := &rows[i]
		fmt.Printf("%016x %8d %8d %8d %8d %6.2f %6.2f %10.1f",
			r.Query, r.LineFetches, r.Misses, r.PrefHits, r.DelayedHits,
			r.Coverage(), r.Accuracy(), r.MeanTimeliness())
		if querylog != "" {
			if e, ok := byID[r.Query]; ok {
				fmt.Printf("  %8s %10d %s", e.Status, e.TotalNs, stageSummary(e.Stages))
			} else {
				fmt.Printf("  %8s %10s -", "-", "-")
			}
		}
		fmt.Println()
	}
	return nil
}

// stageSummary renders a log entry's stage map in fixed stage order.
func stageSummary(stages map[string]int64) string {
	out := ""
	for st := obs.QueryStage(0); st < obs.NumQueryStages; st++ {
		if ns, ok := stages[st.String()]; ok {
			if out != "" {
				out += " "
			}
			out += fmt.Sprintf("%s=%d", st, ns)
		}
	}
	if out == "" {
		return "-"
	}
	return out
}

// replaySampled drives the CPU through the three-tier sampled replay of
// a loaded trace (the skip tier jumps via the recording's event index).
func replaySampled(rec *trace.Recording, c *cpu.CPU, pf prefetch.Prefetcher, scfg sample.Config) error {
	c.EnableSampling()
	if err := rec.ReplaySampledInto(scfg.Plan(rec.Events()), c); err != nil {
		return err
	}
	s := c.Finish()
	sm := s.Sample
	fmt.Printf("prefetcher      %s\n", pf.Name())
	fmt.Printf("sampling        %s\n", scfg)
	fmt.Printf("est cycles      ~%d ±%.1f%% (95%% CI, %d windows)\n",
		int64(sm.EstCycles), 100*sm.CycleRelCI, sm.Windows)
	fmt.Printf("est I-misses    ~%d ±%.1f%%\n", sm.EstIMisses, 100*sm.MissRelCI)
	fmt.Printf("est IPC         %.3f\n", sm.EstIPC(s.Instructions))
	if sm.Degenerate {
		fmt.Printf("                (degenerate: <2 windows, no confidence interval)\n")
	}
	fmt.Printf("events          skipped=%d fast-forwarded=%d detailed=%d (%d warm-up + %d measured)\n",
		sm.SkippedEvents, sm.FastForwardedEvents, sm.DetailedEvents(),
		sm.WarmupEvents, sm.MeasuredEvents)
	fmt.Printf("instructions    %d (exact; %d skipped undecoded)\n", s.Instructions, sm.SkippedInstrs)
	fmt.Printf("events/kinst    %.1f\n", rec.Stats.EventsPerKInstr())
	return nil
}

// printAttribution renders the top-n per-function rows, ranked by the
// demand fetches a prefetcher could have served (misses + prefetch
// hits + delayed hits).
func printAttribution(rows []cpu.FuncAttribution, n int) {
	demand := func(f *cpu.FuncAttribution) int64 {
		return f.Misses + f.PrefHits + f.DelayedHits
	}
	sorted := append([]cpu.FuncAttribution(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool {
		di, dj := demand(&sorted[i]), demand(&sorted[j])
		if di != dj {
			return di > dj
		}
		return sorted[i].Func < sorted[j].Func
	})
	if n < len(sorted) {
		sorted = sorted[:n]
	}
	fmt.Printf("\nper-function attribution (top %d of %d by prefetch-relevant demand):\n", len(sorted), len(rows))
	fmt.Printf("%-12s %10s %8s %8s %8s %6s %8s %6s %10s\n",
		"function", "fetches", "misses", "prfhits", "delayed", "cover", "issued", "accur", "timeliness")
	for i := range sorted {
		r := &sorted[i]
		fmt.Printf("%#-12x %10d %8d %8d %8d %6.2f %8d %6.2f %10.1f\n",
			uint64(r.Func), r.LineFetches, r.Misses, r.PrefHits, r.DelayedHits,
			r.Coverage(), r.Issued, r.Accuracy(), r.MeanTimeliness())
	}
}
