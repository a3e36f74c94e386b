package main

import (
	"fmt"
	"time"

	"cgp/internal/core"
	"cgp/internal/cpu"
	"cgp/internal/prefetch"
	"cgp/internal/program"
	"cgp/internal/sample"
	"cgp/internal/trace"
	"cgp/internal/workload"
)

// counter is a consumer that counts events and keeps nothing.
type counter struct{ n int64 }

func (c *counter) Event(trace.Event)            { c.n++ }
func (c *counter) EventBatch(evs []trace.Event) { c.n += int64(len(evs)) }

// nsPer returns d in nanoseconds per event.
func nsPer(d time.Duration, events int64) float64 {
	if events == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(events)
}

// simProbe names the metrics one simulator-layer measurement reports.
type simProbe struct {
	// synthEvents and synthNs name the synthesis metrics
	// (synth.* for database workloads, probe_replay.* for a capture).
	synthEvents, synthNs string
	// record, decode and sampled enable the optional layers.
	record, decode, sampled bool
}

// cpuArms are the prefetcher arms the cpu-model layer is timed under.
var cpuArms = []struct {
	name string
	pf   func() prefetch.Prefetcher
}{
	{"none", func() prefetch.Prefetcher { return prefetch.None{} }},
	{"nl4", func() prefetch.Prefetcher { return prefetch.NewNL(4) }},
	{"cgp4", func() prefetch.Prefetcher { return core.New(core.DefaultConfig()) }},
}

// measureSimLayers times each simulator layer on w's O5 stream from
// outside: synthesis into a counter, the same run into a Recorder,
// Verify, ReplayBatch into a no-op, the cpu model under each arm over
// decoded batches, and (optionally) a sampled replay. Each layer call
// gets its own span under parent.
func measureSimLayers(spans *spanRecorder, parent int, w *workload.Workload, p simProbe, rep *report) error {
	img := program.LayoutO5(w.NewRegistry())

	var cnt counter
	t := time.Now()
	err := spans.timed("synthesis", parent, func(int) error { return w.Run(img, &cnt) })
	synth := time.Since(t)
	if err != nil {
		return fmt.Errorf("synthesis: %w", err)
	}
	events := cnt.n
	rep.set(p.synthEvents, "count", float64(events), w.Name+" at O5")
	rep.set(p.synthNs, "ns", nsPer(synth, events), "")

	var rec *trace.Recording
	t = time.Now()
	err = spans.timed("record", parent, func(int) error {
		rr := trace.NewRecorder()
		if err := w.Run(img, rr); err != nil {
			return err
		}
		var err error
		rec, err = rr.Finish()
		return err
	})
	recorded := time.Since(t)
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	rep.check(rec.Events() == events, "%s: recorded %d events, synthesized %d", w.Name, rec.Events(), events)
	if p.record {
		rep.set("record.ns_per_event", "ns", nsPer(recorded-synth, events), "recorder + Finish minus synthesis")
		rep.set("record.bytes_per_event", "B", float64(rec.Bytes())/float64(events), "")
	}

	if p.decode {
		t = time.Now()
		err = spans.timed("verify", parent, func(int) error { return rec.Verify() })
		verify := time.Since(t)
		if err != nil {
			return fmt.Errorf("verify: %w", err)
		}
		t = time.Now()
		err = spans.timed("decode", parent, func(int) error {
			return rec.ReplayBatch(func([]trace.Event) error { return nil })
		})
		decode := time.Since(t)
		if err != nil {
			return fmt.Errorf("decode: %w", err)
		}
		rep.set("verify.ns_per_event", "ns", nsPer(verify, events), "")
		rep.set("decode.ns_per_event", "ns", nsPer(decode-verify, events), "ReplayBatch minus Verify")
	}

	for _, arm := range cpuArms {
		c := cpu.New(cpu.DefaultConfig(), arm.pf())
		var busy time.Duration
		err := spans.timed("cpu."+arm.name, parent, func(int) error {
			return rec.ReplayBatch(func(evs []trace.Event) error {
				t := time.Now()
				c.EventBatch(evs)
				busy += time.Since(t)
				return nil
			})
		})
		if err != nil {
			return fmt.Errorf("cpu %s: %w", arm.name, err)
		}
		st := c.Finish()
		rep.check(st.Instructions == rec.Stats.Instructions, "cpu %s: %d instructions, recording has %d",
			arm.name, st.Instructions, rec.Stats.Instructions)
		rep.set("cpu."+arm.name+".ns_per_event", "ns", nsPer(busy, events), "EventBatch time only")
	}

	if p.sampled {
		c := cpu.New(cpu.DefaultConfig(), core.New(core.DefaultConfig()))
		c.EnableSampling()
		plan := sample.Default().Plan(rec.Events())
		t = time.Now()
		err := spans.timed("sampled", parent, func(int) error { return rec.ReplaySampledInto(plan, c) })
		d := time.Since(t)
		if err != nil {
			return fmt.Errorf("sampled replay: %w", err)
		}
		st := c.Finish()
		rep.check(st.Sample != nil && st.Instructions == rec.Stats.Instructions,
			"sampled replay lost instructions: %d of %d", st.Instructions, rec.Stats.Instructions)
		if st.Sample != nil {
			rep.set("sampled.ns_per_event", "ns", nsPer(d, events), "CGP_4, default schedule "+sample.Default().String())
			rep.set("sampled.skipped_events", "count", float64(st.Sample.SkippedEvents), "")
			rep.set("sampled.warmed_events", "count", float64(st.Sample.FastForwardedEvents), "")
			rep.set("sampled.detailed_events", "count", float64(st.Sample.DetailedEvents()), "")
		}
	}
	return nil
}
