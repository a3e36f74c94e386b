package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"cgp"
	"cgp/internal/obs"
	"cgp/internal/sample"
	"cgp/internal/workload"
)

// figuresWiscN is the paper's wisc-large cardinality.
const figuresWiscN = 10000

// modelCounters are the exact simulator counts of one named cell. A
// change to the simulator's speed must leave them identical.
type modelCounters struct {
	Cycles, Instructions, L1IMisses int64
	CGPUsefulFrac                   float64
}

func modelOf(res *cgp.Result) modelCounters {
	return modelCounters{
		Cycles:        int64(res.CPU.Cycles),
		Instructions:  int64(res.CPU.Instructions),
		L1IMisses:     res.CPU.ICacheMisses,
		CGPUsefulFrac: res.CPU.CGHC.UsefulFraction(),
	}
}

func (m modelCounters) set(rep *report, cell string) {
	rep.set("model.cycles", "count", float64(m.Cycles), cell)
	rep.set("model.instructions", "count", float64(m.Instructions), cell)
	rep.set("model.l1i_misses", "count", float64(m.L1IMisses), cell)
	rep.set("model.cgp_useful_frac", "ratio", m.CGPUsefulFrac, cell)
}

// figuresModelCell names the cell the figures workload's model.*
// counters come from: a full-detail Figure 7 bar.
const (
	figuresModelFig      = "fig7"
	figuresModelWorkload = "wisc-large-1"
	figuresModelConfig   = "O5+OM+CGP_4"
)

// figuresRound is one fresh Runner's set-up and campaign.
type figuresRound struct {
	setup, wall time.Duration
	figs        []*cgp.Figure
	err         error
	digest      string
	// campaignSpan is the traced round's AllFigures span.
	campaignSpan int
}

// runFiguresRound builds a fresh Runner with the README's quick
// paper-scale settings, times its set-up (NewRunner + DBProfile, which
// records the profiling traces) and then Runner.AllFigures on it.
func runFiguresRound(ctx context.Context, seed int64, o *obs.Observability, spans *spanRecorder, parent int) (figuresRound, error) {
	var rd figuresRound
	var r *cgp.Runner
	t := time.Now()
	err := spans.timed("runner.setup", parent, func(int) error {
		r = cgp.NewRunner(cgp.RunnerOptions{
			DB:       cgp.DBOptions{WiscN: figuresWiscN, Seed: seed},
			Workers:  runtime.NumCPU(),
			Sampling: sample.Default(),
			Obs:      o,
		})
		_, err := r.DBProfile(ctx)
		return err
	})
	rd.setup = time.Since(t)
	if err != nil {
		return rd, fmt.Errorf("figures set-up: %w", err)
	}
	t = time.Now()
	rd.campaignSpan = spans.open("runner.allfigures", parent)
	rd.figs, rd.err = r.AllFigures(ctx)
	spans.close(rd.campaignSpan)
	rd.wall = time.Since(t)

	h := sha256.New()
	for _, f := range rd.figs {
		h.Write([]byte(f.Markdown()))
	}
	rd.digest = hex.EncodeToString(h.Sum(nil))
	return rd, nil
}

// check counts every figure row as one operation and fails the
// degraded ones, the campaign error, and a report that differs from
// the reference: the committed digest on the default seed, the first
// round's otherwise.
func (rd *figuresRound) check(rep *report, seed int64, first string) {
	rows, bad := 0, 0
	for _, f := range rd.figs {
		rows += len(f.Rows)
		bad += f.Degraded()
	}
	rep.checkN(rows, bad, "figures: %d degraded rows", bad)
	rep.check(rd.err == nil, "figures: campaign error: %v", rd.err)
	rep.check(len(rd.figs) == 8, "figures: %d figures, want 8", len(rd.figs))
	want, what := first, "the first round's"
	if seed == defaultSeed {
		want, what = figuresReportSHA256, "the committed"
	}
	rep.check(want == "" || rd.digest == want, "figures: report sha256 %s differs from %s %s", rd.digest, what, want)
}

// model returns the named cell's counters, or false when the cell is
// missing or degraded.
func (rd *figuresRound) model() (modelCounters, bool) {
	for _, f := range rd.figs {
		if f.ID != figuresModelFig {
			continue
		}
		for _, row := range f.Rows {
			if row.Workload == figuresModelWorkload && row.Config == figuresModelConfig && row.Result != nil {
				return modelOf(row.Result), true
			}
		}
	}
	return modelCounters{}, false
}

// runFigures is the figures workload: fresh-Runner rounds until the
// run's time is up, reporting the median set-up and campaign times.
func runFigures(ctx context.Context, cfg runConfig) (*report, error) {
	if cfg.traced() {
		return runFiguresTraced(ctx, cfg)
	}
	rep := newReport()
	meter := startHeapMeter(2 * time.Millisecond)
	start := time.Now()
	var setups, walls, peaks, rounds []float64
	first := ""
	for cfg.another(start, rounds) {
		t := time.Now()
		settle()
		meter.take()
		rd, err := runFiguresRound(ctx, cfg.seed, nil, nil, 0)
		if err != nil {
			meter.finish()
			return nil, err
		}
		peaks = append(peaks, meter.take())
		rd.check(rep, cfg.seed, first)
		if first == "" {
			first = rd.digest
		}
		setups = append(setups, rd.setup.Seconds())
		walls = append(walls, rd.wall.Seconds())
		rounds = append(rounds, time.Since(t).Seconds())
		fmt.Printf("round %d: setup %.3fs wall %.3fs report %s\n", len(walls), rd.setup.Seconds(), rd.wall.Seconds(), rd.digest[:16])
	}
	meter.finish()
	n := fmt.Sprintf("median of %d rounds", len(walls))
	rep.set("setup_s", "s", median(setups), n)
	rep.set("wall_s", "s", median(walls), n)
	rep.set("peak_heap_mb", "MB", median(peaks), n)
	return rep, nil
}

// runFiguresTraced is the figures workload's per-layer run: one
// untraced round for reference, one round with the Runner's harness
// spans attached, then the simulator layers timed one by one on
// wisc-large-1's stream.
func runFiguresTraced(ctx context.Context, cfg runConfig) (*report, error) {
	rep := newReport()
	spans := cfg.spans

	settle()
	base, err := runFiguresRound(ctx, cfg.seed, nil, nil, 0)
	if err != nil {
		return nil, err
	}
	base.check(rep, cfg.seed, "")
	baseModel, ok := base.model()
	rep.check(ok, "figures: untraced round lacks the %s %s cell", figuresModelWorkload, figuresModelConfig)
	untraced := base.setup + base.wall
	base = figuresRound{}
	settle()

	o := obs.New()
	rt0 := readRuntime()
	root := spans.open("figures.round", 0)
	rd, err := runFiguresRound(ctx, cfg.seed, o, spans, root)
	spans.close(root)
	rt := readRuntime().since(rt0)
	if err != nil {
		return nil, err
	}
	rd.check(rep, cfg.seed, "")
	if err := importRunnerSpans(spans, o, rd.campaignSpan); err != nil {
		return nil, err
	}
	m, ok := rd.model()
	rep.check(ok && m == baseModel, "figures: traced model counters %+v differ from untraced %+v", m, baseModel)
	m.set(rep, figuresModelFig+" "+figuresModelWorkload+" "+figuresModelConfig)

	rows := 0
	for _, f := range rd.figs {
		rows += len(f.Rows)
	}
	rep.set("runner.cells", "count", float64(rows), "figure rows")
	rep.set("runner.simulated", "count", float64(o.Progress.Count(obs.JobExecuted)), "jobs executed")
	rep.set("runner.coalesced", "count", float64(o.Progress.Count(obs.JobReplayed)), "jobs served by a shared pass")
	all := spans.snapshot()
	rep.set("runner.remainder_s", "s", selfTimes(all)[rd.campaignSpan].Seconds(), "AllFigures time outside every Runner span")
	rep.setRuntime(rt)
	rec := reconcile("figures", all, root, untraced)
	rd = figuresRound{}

	settle()
	layers := spans.open("layers", 0)
	w := workload.WiscLarge1(workload.DBOptions{WiscN: figuresWiscN, Seed: cfg.seed})
	err = measureSimLayers(spans, layers, w, simProbe{
		synthEvents: "synth.events", synthNs: "synth.ns_per_event",
		record: true, decode: true, sampled: true,
	}, rep)
	spans.close(layers)
	if err != nil {
		return nil, err
	}
	fmt.Println(rec)
	return rep, nil
}

// importRunnerSpans copies the Runner's harness spans (record, replay,
// run, verify, checkpoint, backoff) into spans as children of parent,
// or of parent's runner.setup sibling, when it has one, for those that
// began before parent. The per-figure grid spans are left out: they
// wrap whole figures, not a layer.
func importRunnerSpans(spans *spanRecorder, o *obs.Observability, parent int) error {
	if parent == 0 {
		return nil // the parent span was dropped at the recorder's limit
	}
	var buf bytes.Buffer
	if err := o.Spans.WriteChromeTrace(&buf); err != nil {
		return err
	}
	var tr struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		return fmt.Errorf("runner spans: %w", err)
	}
	all := spans.snapshot()
	p := all[parent-1]
	setup := parent
	for _, s := range all {
		if s.Name == "runner.setup" && s.Parent == p.Parent {
			setup = s.ID
		}
	}
	origin := spans.origin.UnixNano()
	for _, ev := range tr.TraceEvents {
		if ev.Name == "figure" {
			continue
		}
		start := time.Duration(ev.Ts*1000 - origin)
		to := parent
		if start < p.Start {
			to = setup
		}
		spans.add("runner."+ev.Name, to, start, start+time.Duration(ev.Dur*1000))
	}
	return nil
}
