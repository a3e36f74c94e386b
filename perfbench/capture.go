package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"time"

	"cgp"
	"cgp/internal/db/sql"
	"cgp/internal/obs"
	"cgp/internal/server"
	"cgp/internal/trace"
	"cgp/internal/workload"
)

// captureQueries is the length of the capture script: a few thousand
// round trips per capture, few enough that its full-detail replay
// stays a few seconds.
const captureQueries = 5000

// captureConfigs are the full-detail configs the sealed capture is
// replayed on: the O5 baseline and the paper's O5+OM+CGP_4, last.
var captureConfigs = []cgp.Config{
	{Layout: cgp.LayoutO5},
	{Layout: cgp.LayoutOM, Prefetcher: cgp.PrefCGP, Degree: 4},
}

// captureClasses names the capture script's query classes: point
// lookups, 10-row index ranges and short scans of the small relation.
var captureClasses = [...]string{"lookup", "range", "small"}

// captureWeights is how many of every captureWeightSum script queries
// fall in each class. The classes stay OLTP-leaning so that one
// capture replays in seconds; the weights give each class about an
// equal share of the capture phase's client time, measured as
// capture.*.time_frac in the traced run.
var captureWeights = [len(captureClasses)]int{9, 6, 5}

const captureWeightSum = 20

// captureScript is the seeded script: each query's class is drawn by
// captureWeights, then its key or bound.
func captureScript(seed int64) (sqls []string, classes []int) {
	rng := rand.New(rand.NewPCG(uint64(seed), 7))
	sqls, classes = make([]string, captureQueries), make([]int, captureQueries)
	for i := range sqls {
		r := rng.IntN(captureWeightSum)
		c := 0
		for r >= captureWeights[c] {
			r -= captureWeights[c]
			c++
		}
		switch classes[i] = c; c {
		case 0:
			sqls[i] = lookupSQL(rng.IntN(serveWiscN))
		case 1:
			k := rng.IntN(serveWiscN - 10)
			sqls[i] = fmt.Sprintf("SELECT unique1 FROM big1 WHERE unique2 BETWEEN %d AND %d", k, k+9)
		default:
			sqls[i] = fmt.Sprintf("SELECT unique1 FROM small WHERE unique2 < %d", 5+rng.IntN(20))
		}
	}
	return sqls, classes
}

// capturesPerRound is how many times a round captures the script
// before replaying the last capture. The captures are byte-identical,
// so replaying one suffices; the repeat doubles the capture phase's
// and set-up's samples while a round stays short enough for a run to
// replay five or six times.
const capturesPerRound = 2

// captured is one capture phase: set-up, the script over one
// connection with full capture, and the seal.
type captured struct {
	setup, capture, seal        time.Duration
	lat                         latencies
	classMs                     [len(captureClasses)]float64
	errs, mismatches            int
	firstErr                    error
	committed, drops, overflows int64
	digest                      string
	rec                         *trace.Recording
	// rtts and span are set in traced runs: each round trip and the
	// capture phase's span.
	rtts []rtt
	span int
}

// captureOnce sets up a server with full live capture, sends the
// script over one connection and seals the capture. The capture clock
// runs from the first request until Seal returns. A non-nil tracer
// rides along on the server; queries stay untagged so the sealed bytes
// match an untraced capture's.
func captureOnce(script []string, classes []int, want map[string]int, tracer *obs.QueryTracer, spans *spanRecorder, parent int) (*captured, error) {
	cp := &captured{}
	t := time.Now()
	setupSpan := spans.open("capture.setup", parent)
	e, err := newServeEngine()
	if err != nil {
		return nil, err
	}
	// Warm the buffer pool through the engine directly: the capture
	// only sees queries the server runs.
	for _, src := range []string{driveStatements[1], driveStatements[2], driveStatements[4]} {
		if _, err := sql.Run(e, src); err != nil {
			return nil, err
		}
	}
	lc := server.NewLiveCapture(server.CaptureOptions{SampleEvery: 1})
	r, err := startRig(e, 1, tracer, lc)
	if err != nil {
		lc.Seal(nil) // stops the capture's drainer
		return nil, err
	}
	c := r.conns[0]
	spans.close(setupSpan)
	cp.setup = time.Since(t)

	start := time.Now()
	cp.span = spans.open("capture", parent)
	for i, src := range script {
		s0 := spans.now()
		t0 := time.Now()
		res, err := c.Query(src)
		d := time.Since(t0)
		if spans != nil {
			cp.rtts = append(cp.rtts, rtt{s0, spans.now()})
		}
		if err != nil {
			cp.errs++
			cp.lat.fail()
			if cp.firstErr == nil {
				cp.firstErr = err
			}
			continue
		}
		ms := float64(d.Nanoseconds()) / 1e6
		cp.lat.add(ms)
		cp.classMs[classes[i]] += ms
		if rowCount(res) != want[src] {
			cp.mismatches++
		}
	}
	r.stop()
	t = time.Now()
	h := sha256.New()
	err = spans.timed("capture.seal", cp.span, func(int) error {
		var err error
		cp.rec, err = lc.Seal(h)
		return err
	})
	cp.seal = time.Since(t)
	cp.capture = time.Since(start)
	spans.close(cp.span)
	if err != nil {
		return nil, err
	}
	cp.digest = hex.EncodeToString(h.Sum(nil))
	cp.committed, cp.drops, cp.overflows = lc.Committed(), lc.Drops(), lc.Overflows()
	return cp, nil
}

// setMix reports each class's share of the capture's summed
// round-trip time, with its query count.
func (cp *captured) setMix(rep *report, classes []int) {
	var n [len(captureClasses)]int
	total := 0.0
	for _, c := range classes {
		n[c]++
	}
	for _, ms := range cp.classMs {
		total += ms
	}
	for c, name := range captureClasses {
		rep.set("capture."+name+".time_frac", "ratio", cp.classMs[c]/max(total, 1e-9), fmt.Sprintf("n=%d", n[c]))
	}
}

// check counts the capture's queries and checks that every query was
// committed whole and that the sealed bytes equal ref (when set).
func (cp *captured) check(rep *report, ref string) {
	rep.checkN(cp.lat.count(), cp.errs, "capture: %d query errors, first: %v", cp.errs, cp.firstErr)
	rep.checkN(0, cp.mismatches, "capture: %d row counts differ from the reference engine", cp.mismatches)
	rep.checkN(captureQueries, captureQueries-int(cp.committed),
		"capture: committed %d of %d queries, %d drops, %d overflows", cp.committed, captureQueries, cp.drops, cp.overflows)
	rep.check(trace.IsProbeRecording(cp.rec), "capture: sealed recording is not a probe recording")
	rep.check(ref == "" || cp.digest == ref, "capture: sealed sha256 %s differs from the reference %s", cp.digest, ref)
}

// replayed is one replay phase.
type replayed struct {
	replay time.Duration
	instrs int64
	cells  int
	model  modelCounters
	span   int
}

// replayCapture replays a sealed capture as the captured workload
// through a fresh Runner on captureConfigs, all cells in one RunAll.
func replayCapture(ctx context.Context, seed int64, rec *trace.Recording, o *obs.Observability, spans *spanRecorder, parent int) (*replayed, error) {
	rp := &replayed{}
	t := time.Now()
	rp.span = spans.open("replay", parent)
	defer spans.close(rp.span)
	w, err := workload.Captured("captured", rec, seed)
	if err != nil {
		return nil, err
	}
	runner := cgp.NewRunner(cgp.RunnerOptions{
		DB:          cgp.DBOptions{WiscN: serveWiscN, Seed: serveDataSeed},
		Workers:     runtime.NumCPU(),
		CaptureSeed: seed,
		Obs:         o,
	})
	jobs := make([]cgp.Job, len(captureConfigs))
	for i, cfg := range captureConfigs {
		jobs[i] = cgp.Job{Workload: w, Config: cfg}
	}
	results, err := runner.RunAll(ctx, jobs)
	rp.replay = time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("replaying the capture: %w", err)
	}
	for _, res := range results {
		rp.instrs += int64(res.CPU.Instructions)
		rp.cells++
	}
	rp.model = modelOf(results[len(results)-1])
	return rp, nil
}

// check counts the replay's cells and checks the model counters
// against ref (when set).
func (rp *replayed) check(rep *report, ref *modelCounters) {
	rep.checkN(len(captureConfigs), len(captureConfigs)-rp.cells, "replay: %d of %d cells", rp.cells, len(captureConfigs))
	rep.check(ref == nil || rp.model == *ref, "replay: model counters %+v differ from the reference %+v", rp.model, ref)
}

// runCaptureReplay is the capture-replay workload: rounds of
// capturesPerRound captures and one replay until the run's time is up.
// On the default seed the sealed digest and the model counters must
// equal the committed ones; on any other seed, the run's first.
func runCaptureReplay(ctx context.Context, cfg runConfig) (*report, error) {
	script, classes := captureScript(cfg.seed)
	want, err := expectedRows(script)
	if err != nil {
		return nil, err
	}
	refDigest, refModel := "", (*modelCounters)(nil)
	if cfg.seed == defaultSeed {
		refDigest, refModel = captureSHA256, &captureModel
	}
	if cfg.traced() {
		return runCaptureTraced(ctx, cfg, script, classes, want, refDigest, refModel)
	}
	rep := newReport()
	meter := startHeapMeter(2 * time.Millisecond)
	start := time.Now()
	var setups, walls, qps, mips, peaks, rounds []float64
	var lat latencies
	var mix captured // every capture's per-class time, summed
	for cfg.another(start, rounds) {
		t := time.Now()
		settle()
		meter.take()
		var last *captured
		var wall time.Duration
		for k := 0; k < capturesPerRound; k++ {
			cp, err := captureOnce(script, classes, want, nil, nil, 0)
			if err != nil {
				meter.finish()
				return nil, err
			}
			cp.check(rep, refDigest)
			if refDigest == "" {
				refDigest = cp.digest
			}
			setups = append(setups, cp.setup.Seconds())
			qps = append(qps, float64(len(script))/cp.capture.Seconds())
			wall += cp.capture
			lat.merge(&cp.lat)
			for c, ms := range cp.classMs {
				mix.classMs[c] += ms
			}
			last = cp
		}
		rp, err := replayCapture(ctx, cfg.seed, last.rec, nil, nil, 0)
		if err != nil {
			meter.finish()
			return nil, err
		}
		rp.check(rep, refModel)
		if refModel == nil {
			refModel = &rp.model
		}
		peaks = append(peaks, meter.take())
		walls = append(walls, (wall + rp.replay).Seconds())
		mips = append(mips, float64(rp.instrs)/1e6/rp.replay.Seconds())
		rounds = append(rounds, time.Since(t).Seconds())
		fmt.Printf("round %d: setup %.3fs capture %.3fs (seal %.3fs) replay %.3fs sealed %s model %+v\n", len(mips),
			last.setup.Seconds(), last.capture.Seconds(), last.seal.Seconds(), rp.replay.Seconds(), last.digest[:16], rp.model)
	}
	meter.finish()
	rep.set("setup_s", "s", median(setups), fmt.Sprintf("median of %d captures' set-ups", len(setups)))
	rep.set("wall_s", "s", median(walls), fmt.Sprintf("median of %d rounds of %d captures and one replay", len(walls), capturesPerRound))
	rep.set("peak_heap_mb", "MB", median(peaks), fmt.Sprintf("median of %d rounds", len(peaks)))
	rep.set("qps", "1/s", median(qps), fmt.Sprintf("median of %d captures, one client (not gated)", len(qps)))
	rep.setTail("p50_ms", lat.percentile(0.50))
	rep.setTail("p99_ms", lat.percentile(0.99))
	rep.notes["p50_ms"] += " (not gated)"
	rep.notes["p99_ms"] += " (not gated: see rtt.p99_ms)"
	rep.set("sim_mips", "Minstr/s", median(mips), fmt.Sprintf("median of %d replays of %d cells (not gated)", len(mips), len(captureConfigs)))
	mix.setMix(rep, classes)
	return rep, nil
}

// runCaptureTraced is the capture-replay per-layer run: one untraced
// capture and replay for reference, one with the server's query tracer
// and the replay Runner's harness spans attached, then probe replay
// and the cpu model timed alone on the sealed capture.
func runCaptureTraced(ctx context.Context, cfg runConfig, script []string, classes []int, want map[string]int,
	refDigest string, refModel *modelCounters) (*report, error) {
	rep := newReport()
	spans := cfg.spans

	settle()
	base, err := captureOnce(script, classes, want, nil, nil, 0)
	if err != nil {
		return nil, err
	}
	base.check(rep, refDigest)
	baseRp, err := replayCapture(ctx, cfg.seed, base.rec, nil, nil, 0)
	if err != nil {
		return nil, err
	}
	baseRp.check(rep, refModel)
	untraced := base.setup + base.capture + baseRp.replay
	rep.setTail("rtt.p99_ms", base.lat.percentile(0.99))
	base.setMix(rep, classes)
	base.rec = nil

	settle()
	tracer := obs.NewQueryTracer(obs.QueryTraceOptions{Keep: 2 * captureQueries})
	o := obs.New()
	rt0 := readRuntime()
	root := spans.open("capture-replay.round", 0)
	cp, err := captureOnce(script, classes, want, tracer, spans, root)
	if err != nil {
		return nil, err
	}
	cp.check(rep, base.digest)
	rp, err := replayCapture(ctx, cfg.seed, cp.rec, o, spans, root)
	spans.close(root)
	rt := readRuntime().since(rt0)
	if err != nil {
		return nil, err
	}
	rp.check(rep, &baseRp.model)
	rp.model.set(rep, "captured "+captureConfigs[len(captureConfigs)-1].Label())

	// Server-minted trace IDs are sequential and the script runs on one
	// connection, so the i-th span by ID is the i-th round trip.
	sps := tracer.Spans()
	sort.Slice(sps, func(i, j int) bool { return sps[i].ID < sps[j].ID })
	var pairs []joined
	for i, sp := range sps {
		if i < len(cp.rtts) && sp.Status == obs.StatusOK {
			pairs = append(pairs, joined{cp.rtts[i], sp})
		}
	}
	recordStages(rep, spans, cp.span, pairs, len(cp.rtts))
	if err := importRunnerSpans(spans, o, rp.span); err != nil {
		return nil, err
	}

	rep.set("capture.events_per_query", "count", float64(cp.rec.Events())/float64(cp.committed), "")
	rep.set("capture.bytes_per_event", "B", float64(cp.rec.Bytes())/float64(cp.rec.Events()), "")
	rep.set("capture.drops", "count", float64(cp.drops), "")
	rep.set("capture.overflows", "count", float64(cp.overflows), "")
	rep.set("capture.seal_s", "s", cp.seal.Seconds(), "")
	rep.setRuntime(rt)
	rec := reconcile("capture-replay", spans.snapshot(), root, untraced)

	settle()
	layers := spans.open("layers", 0)
	w, err := workload.Captured("captured", cp.rec, cfg.seed)
	if err == nil {
		err = measureSimLayers(spans, layers, w, simProbe{
			synthEvents: "probe_replay.events_out", synthNs: "probe_replay.ns_per_event",
		}, rep)
	}
	spans.close(layers)
	if err != nil {
		return nil, err
	}
	fmt.Println(rec)
	return rep, nil
}
