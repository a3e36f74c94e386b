package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// This file is the benchmark's definition: workloads, metrics, seeds,
// the committed reference digests, and the prediction of which
// end-to-end metric each layer metric should move. BENCHMARK.json and
// perfbench/spec.json are generated from it (-write-spec) and a test
// keeps the committed copies in step.

const (
	// defaultSeed is the seed the committed digests were taken at.
	defaultSeed = 42
	// heldOutSeed is kept out of tuning, for later claims to be
	// checked on inputs nobody optimised against.
	heldOutSeed = 20261
	// runSeconds is how long one run measures.
	runSeconds = 30
)

// Reference values at defaultSeed. Any other seed falls back to the
// structural checks (no failures, identical results across rounds).
const (
	// figuresReportSHA256 is the SHA-256 of the concatenated Markdown
	// of Runner.AllFigures at the figures workload's settings.
	figuresReportSHA256 = "8974fbee4b7cca6c0bacbfc531653f2919d06bdcc1eb226c199a5a1955a3deed"
	// captureSHA256 is the SHA-256 of the sealed capture container.
	captureSHA256 = "0b7121c672939f3f79baa3d561f9b37201103950b94d069a61bcda5bfbaca170"
)

// captureModel holds the capture-replay model counters at defaultSeed
// on the captured O5+OM+CGP_4 cell.
var captureModel = modelCounters{Cycles: 24131131, Instructions: 54112163, L1IMisses: 164460, CGPUsefulFrac: 0.703434099506444}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Round is the fixed work one round of the workload does; wall_s
	// is its median time.
	Round string `json:"round"`
	// Mix states where the workload's query mix comes from and the
	// per-class shares of client time measured on it.
	Mix string `json:"mix,omitempty"`
}

type metricSpec struct {
	Name       string  `json:"name"`
	Unit       string  `json:"unit"`
	Better     string  `json:"better"`
	Bound      float64 `json:"bound,omitempty"`
	Definition string  `json:"definition"`
}

// layerSpec is one row of the prediction table: a layer, how it is
// timed from outside, and which end-to-end metrics on which workloads
// its metrics should move.
type layerSpec struct {
	Layer   string       `json:"layer"`
	Modules string       `json:"modules"`
	Call    string       `json:"timed_call"`
	Moves   string       `json:"should_move"`
	Metrics []metricSpec `json:"metrics"`
}

// Every workload reports every end-to-end metric in an untraced run
// and every per-layer metric in a traced one.
var workloads = []workloadSpec{
	{
		Name:  "figures",
		Why:   "The paper-scale sampled figure campaign reproduction users run: synthesis, record, replay hubs, sampling tiers and the cpu model do the work; the server does none.",
		Round: "NewRunner + Runner.DBProfile (set-up), then Runner.AllFigures at WiscN 10000 with sample.Default() and Workers = nproc.",
	},
	{
		Name:  "serve",
		Why:   "A fixed script over 2 synchronous loopback TCP clients, capture detached: frame codec, admission, prep cache, SQL, executor and exec operators do the work; the simulator does none.",
		Round: fmt.Sprintf("A fresh engine, server and %d connections (set-up), then %d statements per connection in a closed loop; server and clients run with GOMAXPROCS %d.", serveClients, serveScript, serveProcs),
		Mix: "Each connection sends cgpserve -drive's five statements in its order, prepared, each followed by 3 ad-hoc lookups of seeded unique2 keys. " +
			"A drive statement's mean round trip measured 2.3 lookups' (0.22 ms and 0.094 ms), so 3 lookups per statement give the prepared and the ad-hoc path about equal shares of client time. " +
			"Measured shares (mix.*.time_frac, seed 42, 2-vCPU x86-64 VM): adhoc 0.57, groupby 0.17, agg 0.10, range 0.08, small 0.05, point 0.03.",
	},
	{
		Name:  "capture-replay",
		Why:   "One client's seeded OLTP script under full live capture, sealed, then replayed as the captured workload on full-detail configs: probe sink, ring, drain, probe replay and cpu model do the work.",
		Round: fmt.Sprintf("%d captures of the %d-query script, each on a fresh engine and server (set-up) and clocked from the first request until LiveCapture.Seal returns, then one replay of the last capture on O5 and O5+OM+CGP_4.", capturesPerRound, captureQueries),
		Mix: "5000 queries, each drawn 9:6:5 from point lookups, 10-row unique2 ranges and scans of small below a seeded bound. " +
			"Only these cheap classes are used so one capture replays in seconds (a big1 aggregate records 24-30k probe events). " +
			"The weights are inverse to each class's measured capture round trip (1 : 1.55 : 1.8), so each class gets about a third of the capture phase's client time. " +
			"Measured shares (capture.*.time_frac, seed 42, 2-vCPU x86-64 VM): lookup 0.35, range 0.34, small 0.31.",
	},
}

// The end-to-end metrics are the ones every workload has: its set-up,
// its round and its memory. Each workload's own user-facing rates
// (qps, p50_ms, p99_ms, sim_mips) are printed beside them in the
// run's table, not gated: a rate defined on one workload only cannot
// be reported by every workload without restating wall_s.
//
// The bounds are as wide as the contract allows: on the 2-core shared
// host the benchmark was sized on, identical runs a few minutes apart
// differ by 10-20% in every wall-clock figure (vCPU wake-up latency
// for the serving loop, memory interference for the simulator).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25, "Median set-up before each round's timed work; what a set-up is, per workload, is that workload's round."},
	{"wall_s", "s", "lower", 0.25, "Median time of one round's timed work, per workload as its round states."},
	{"peak_heap_mb", "MB", "lower", 0.25, "Median over the run's rounds of each round's peak Go heap (heap objects, garbage included), sampled from runtime/metrics every 2 ms."},
}

// stageMetrics lists the server-stage per-layer metric names.
func stageMetrics() []string {
	var out []string
	for _, st := range []string{"decode", "admission", "prep", "execute", "drain", "capture"} {
		out = append(out, "stage."+st+".p50_us", "stage."+st+".p99_us")
	}
	return append(out, "stage.unstaged.p50_us", "net.p50_us")
}

// mixMetrics lists the serve mix's per-class time-share metric names.
func mixMetrics() []string {
	var out []string
	for _, c := range serveClasses {
		out = append(out, "mix."+c+".time_frac")
	}
	return out
}

func lower(name, unit, def string) metricSpec  { return metricSpec{name, unit, "lower", 0, def} }
func higher(name, unit, def string) metricSpec { return metricSpec{name, unit, "higher", 0, def} }

var layers = []layerSpec{
	{"round-trip tail", "internal/server client and server together", "Client round trips of the traced run's untraced reference phase",
		"the tail users feel; demoted from end-to-end because it does not repeat within a tenth between identical runs on a 2-core host", []metricSpec{
			lower("rtt.p99_ms", "ms", "99th-percentile client round trip, failures counted as over any limit"),
		}},
	{"synthesis", "internal/workload, internal/db, trace.Tracer", "Workload.Run into a discarding consumer",
		"figures/setup_s, figures/wall_s", []metricSpec{
			lower("synth.events", "count", "Events one run of wisc-large-1 at O5 emits"),
			lower("synth.ns_per_event", "ns", "Host time per synthesized event"),
		}},
	{"record", "internal/trace", "The same run into trace.Recorder + Finish, minus synthesis",
		"figures/wall_s, figures/peak_heap_mb", []metricSpec{
			lower("record.ns_per_event", "ns", "Encode time per event"),
			lower("record.bytes_per_event", "B", "Encoded bytes per event"),
		}},
	{"verify/decode", "internal/trace", "Recording.Verify; Recording.ReplayBatch into a no-op",
		"figures/wall_s, capture-replay/wall_s", []metricSpec{
			lower("verify.ns_per_event", "ns", "CRC verification time per event"),
			lower("decode.ns_per_event", "ns", "Verify + decode time per event"),
		}},
	{"cpu model", "internal/cpu, cache, core, prefetch, branch", "cpu.New + EventBatch over pre-decoded batches",
		"mostly capture-replay/wall_s, some figures/wall_s; serve not at all", []metricSpec{
			lower("cpu.none.ns_per_event", "ns", "Per-event time with no prefetcher"),
			lower("cpu.nl4.ns_per_event", "ns", "Per-event time with NL_4"),
			lower("cpu.cgp4.ns_per_event", "ns", "Per-event time with CGP_4 (minus none: prefetcher and CGHC cost)"),
		}},
	{"sampling", "internal/sample, ReplaySampledInto, cpu functional warm", "Recording.ReplaySampledInto with a sampling cpu on a figures recording",
		"figures/wall_s only; capture-replay does not sample", []metricSpec{
			lower("sampled.ns_per_event", "ns", "Host time per recorded event under the default schedule"),
			higher("sampled.skipped_events", "count", "Events skipped without decoding"),
			lower("sampled.warmed_events", "count", "Events functionally warmed"),
			lower("sampled.detailed_events", "count", "Events simulated in detail"),
		}},
	{"probe replay", "trace.ReplayProbe", "ReplayProbe into a discarding consumer",
		"capture-replay/wall_s", []metricSpec{
			lower("probe_replay.ns_per_event", "ns", "Host time per synthesized event"),
			lower("probe_replay.events_out", "count", "Events synthesized from the capture at O5"),
		}},
	{"runner", "root cgp", "Counted from figure results and the Runner's Obs harness spans",
		"figures/wall_s", []metricSpec{
			higher("runner.cells", "count", "Figure rows the campaign produced"),
			lower("runner.simulated", "count", "Distinct cells actually simulated"),
			higher("runner.coalesced", "count", "Simulated cells served by a shared replay-hub pass"),
			lower("runner.remainder_s", "s", "AllFigures time no Runner span covers"),
		}},
	{"modelled design", "exact simulator counts", "Result.CPU on one named cell per simulator workload",
		"none: a simulator-only change must leave them identical", []metricSpec{
			lower("model.cycles", "count", "Cycles of the named cell"),
			lower("model.instructions", "count", "Instructions of the named cell"),
			lower("model.l1i_misses", "count", "L1I demand misses of the named cell"),
			higher("model.cgp_useful_frac", "ratio", "Useful fraction of CGHC-issued prefetches"),
		}},
	{"sql", "internal/db/sql", "sql.Parse, sql.Plan on the serve statements",
		"serve/wall_s", []metricSpec{
			lower("sql.parse_us", "us", "Median parse time over the serve statements"),
			lower("sql.plan_us", "us", "Median plan time over the serve statements"),
		}},
	{"exec", "internal/db/exec, heap, index, buffer pool", "Engine.RunQuery per query class, with no server",
		"serve/wall_s", []metricSpec{
			lower("exec.point_us", "us", "Point lookup on unique2"),
			lower("exec.range_us", "us", "100-row unique2 range"),
			lower("exec.agg_us", "us", "COUNT(*) with a filter over big1"),
			lower("exec.groupby_us", "us", "GROUP BY two over big1"),
		}},
	{"serve mix", "internal/server, internal/db/sql, internal/db/exec", "Client round trips per query class in the traced run's untraced reference phase",
		"serve/wall_s: a class's share bounds how much of serve's time its layers can move", mixSpecs()},
	{"server stages", "internal/server", "obs.QueryTracer via server.Options.Trace, traced run only",
		"serve rtt.p99_ms (unstaged), serve/wall_s (net, prep)", stageSpecs()},
	{"prep cache", "internal/server", "server.Options.Wall counters prep_cache_hits and prep_cache_misses",
		"serve/wall_s", []metricSpec{
			higher("prep.hit_frac", "ratio", "Prep-cache hits over lookups"),
		}},
	{"capture", "server.LiveCapture", "Committed/Drops/Overflows, Seal timing, Recording.Events/Bytes",
		"capture-replay/wall_s, capture-replay/peak_heap_mb; serve must not move", []metricSpec{
			lower("capture.events_per_query", "count", "Probe events recorded per query"),
			lower("capture.bytes_per_event", "B", "Sealed bytes per probe event"),
			lower("capture.drops", "count", "Batches lost to ring backpressure"),
			lower("capture.overflows", "count", "Batches dropped as over the event cap"),
			lower("capture.seal_s", "s", "LiveCapture.Seal time"),
			lower("capture.lookup.time_frac", "ratio", "Share of a capture's summed client round-trip time spent on point lookups"),
			lower("capture.range.time_frac", "ratio", "Share of a capture's summed client round-trip time spent on 10-row index ranges"),
			lower("capture.small.time_frac", "ratio", "Share of a capture's summed client round-trip time spent on short scans of small"),
		}},
	{"Go runtime", "runtime/metrics", "Deltas over the traced round",
		"rtt.p99_ms, peak_heap_mb", []metricSpec{
			lower("gc.cycles", "count", "GC cycles"),
			lower("gc.pause_ms", "ms", "Total stop-the-world pause"),
			lower("alloc_mb", "MB", "Bytes allocated"),
		}},
}

// tracedRun says how a traced run gives every workload every layer.
const tracedRun = "--trace 1 runs the named workload's traced phase, then every other workload's, in one process. " +
	"A metric more than one phase reports (rtt, stages, cpu model, modelled design, Go runtime) comes from the named workload's phase; " +
	"the rest come from the phase of the workload that exercises that layer. " +
	"Each phase prints one reconciliation row; end-to-end metrics always come from untraced runs."

func mixSpecs() []metricSpec {
	var out []metricSpec
	for i, n := range mixMetrics() {
		what := "the prepared drive statement " + driveStatements[min(i, len(driveStatements)-1)]
		if i == adhocClass {
			what = "ad-hoc point lookups (parse, plan and prep-cache insert each)"
		}
		out = append(out, lower(n, "ratio", "Share of serve's summed client round-trip time spent on "+what))
	}
	return out
}

func stageSpecs() []metricSpec {
	var out []metricSpec
	for _, n := range stageMetrics() {
		out = append(out, lower(n, "us", "Per-query stage time from the server's query tracer"))
	}
	out[len(out)-2].Definition = "Span total minus its stages: executor-mutex wait plus response write"
	out[len(out)-1].Definition = "Client round trip minus the server span"
	return out
}

// benchmarkFile is BENCHMARK.json's schema; its field order is the
// file's key order.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []nameWhy     `json:"workloads"`
	EndToEnd   []boundMetric `json:"end_to_end"`
	PerLayer   []plainMetric `json:"per_layer"`
}

type nameWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type boundMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type plainMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// fullSpec is perfbench/spec.json: everything BENCHMARK.json's fixed
// schema has no room for.
type fullSpec struct {
	DefaultSeed int            `json:"default_seed"`
	HeldOutSeed int            `json:"held_out_seed"`
	TracedRun   string         `json:"traced_run"`
	Workloads   []workloadSpec `json:"workloads"`
	EndToEnd    []metricSpec   `json:"end_to_end"`
	Layers      []layerSpec    `json:"layers"`
}

// specFiles renders BENCHMARK.json and spec.json.
func specFiles() (bench, full []byte, err error) {
	b := benchmarkFile{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, nameWhy{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, boundMetric{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, l := range layers {
		for _, m := range l.Metrics {
			b.PerLayer = append(b.PerLayer, plainMetric{m.Name, m.Unit, m.Better})
		}
	}
	if bench, err = marshal(b); err != nil {
		return nil, nil, err
	}
	full, err = marshal(fullSpec{defaultSeed, heldOutSeed, tracedRun, workloads, endToEnd, layers})
	return bench, full, err
}

func marshal(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeSpec writes BENCHMARK.json and perfbench/spec.json under root.
func writeSpec(root string) error {
	bench, full, err := specFiles()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(root, "BENCHMARK.json"), bench, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "perfbench", "spec.json"), full, 0o644)
}

// reported lists the metrics every workload reports: the end-to-end
// ones in an untraced run, the per-layer ones in a traced run.
func reported(traced bool) []string {
	var out []string
	if !traced {
		for _, m := range endToEnd {
			out = append(out, m.Name)
		}
		return out
	}
	for _, l := range layers {
		for _, m := range l.Metrics {
			out = append(out, m.Name)
		}
	}
	return out
}

// unitOf returns the declared unit of a metric of either kind.
func unitOf(name string) (string, bool) {
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Unit, true
		}
	}
	for _, l := range layers {
		for _, m := range l.Metrics {
			if m.Name == name {
				return m.Unit, true
			}
		}
	}
	return "", false
}
