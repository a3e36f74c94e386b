package trace

import (
	"sort"

	"cgp/internal/units"
)

// Sampled replay: walk a recording according to a span plan, decoding
// only the stretches a sampled simulation actually needs. Three tiers:
//
//   - SpanSkip stretches are not decoded at all. An index over the
//     sealed recording, built while recording (or by Load), with one
//     position checkpoint every
//     skipIndexEvery events, with cumulative event/instruction counts)
//     lets the replayer jump near the end of a skip and decode only the
//     sub-checkpoint remainder. This tier is what makes ≥10x speedups
//     possible: decoding alone costs a substantial fraction of full
//     simulation, so a fast-forward that decodes everything cannot get
//     far past ~5x.
//   - SpanFunctionalWarm / SpanDetailWarm stretches are decoded and
//     delivered; the consumer warms architectural state (functionally
//     or in full detail) without measuring.
//   - SpanMeasure stretches are decoded, delivered, and measured.
//
// The plan is pure data (built by internal/sample from the recording's
// event count and the sampling config), so the same plan replays
// byte-identically regardless of worker count or resume path.

// SpanKind classifies a stretch of a sampled replay.
type SpanKind uint8

const (
	// SpanSkip is fast-forwarded without decoding; the consumer is told
	// only how many events and instructions went by.
	SpanSkip SpanKind = iota
	// SpanFunctionalWarm is decoded and delivered for functional
	// warming: architectural state updates without timing.
	SpanFunctionalWarm
	// SpanDetailWarm is decoded and delivered for detailed warm-up:
	// full timing simulation, but excluded from measurement.
	SpanDetailWarm
	// SpanMeasure is decoded, delivered and measured: the consumer
	// samples its counters over the span.
	SpanMeasure
)

// String returns a short mnemonic for k.
func (k SpanKind) String() string {
	switch k {
	case SpanSkip:
		return "skip"
	case SpanFunctionalWarm:
		return "fwarm"
	case SpanDetailWarm:
		return "warm"
	case SpanMeasure:
		return "measure"
	}
	return "?"
}

// Span is one stretch of a sampled replay plan: Events consecutive
// events handled as Kind.
type Span struct {
	Kind   SpanKind
	Events int64
}

// SampledConsumer is a BatchConsumer that can follow a sampled replay:
// BeginSpan announces the kind of every decoded span before its events
// arrive, and SkipSpan replaces the events of a skipped span with their
// aggregate counts. The CPU model implements it.
type SampledConsumer interface {
	BatchConsumer
	BeginSpan(kind SpanKind)
	SkipSpan(events int64, instrs units.Instrs)
}

// skipIndexEvery is the event spacing of skip-index checkpoints. At
// ~11 bytes/event a checkpoint every 4096 events indexes a 1 GiB trace
// in ~0.4 MB, and bounds the decoded remainder of any skip to under
// 4096 events.
const skipIndexEvery = 4096

// skipPoint is one skip-index checkpoint: the decoder position
// immediately after cumulative event number `events` (a positive
// multiple of skipIndexEvery), along with the cumulative instruction
// count up to that point.
type skipPoint struct {
	ci     int
	off    int
	events int64
	instrs int64
}

// ReplaySampled walks the recording according to spans, calling begin
// at the start of every decoded span, fn with each decoded batch, and
// skip once per skipped span with its aggregate event and instruction
// counts. Spans must be consecutive from the start of the stream; the
// replay stops at the end of the plan (internal/sample plans always
// cover the stream exactly). Any non-nil error from a callback aborts
// the replay and is returned as-is. Like ReplayBatch, the chunk
// checksums are re-verified before decoding.
func (r *Recording) ReplaySampled(spans []Span,
	begin func(SpanKind) error,
	fn func(evs []Event) error,
	skip func(events int64, instrs units.Instrs) error) error {
	if err := r.Verify(); err != nil {
		return err
	}
	idx := r.idx
	d, err := r.decoder()
	if err != nil {
		return err
	}
	buf := make([]Event, replayBatch)
	var consumed, instrs int64
	for _, sp := range spans {
		if sp.Events <= 0 {
			continue
		}
		if sp.Kind == SpanSkip {
			target := consumed + sp.Events
			startEvents, startInstrs := consumed, instrs
			// Jump to the last checkpoint at or before the target,
			// provided it is ahead of the current position.
			i := sort.Search(len(idx), func(i int) bool { return idx[i].events > target }) - 1
			if i >= 0 && idx[i].events > consumed {
				p := idx[i]
				d.ci, d.off = p.ci, p.off
				consumed, instrs = p.events, p.instrs
			}
			// Decode the sub-checkpoint remainder, counting only
			// instructions.
			for consumed < target {
				n, err := d.next(buf[:min(int64(len(buf)), target-consumed)])
				if err != nil {
					return err
				}
				if n == 0 {
					break // stream shorter than the plan: report what was skipped
				}
				for i := range buf[:n] {
					instrs += int64(buf[i].Instructions())
				}
				consumed += int64(n)
			}
			if err := skip(consumed-startEvents, units.Instrs(instrs-startInstrs)); err != nil {
				return err
			}
			if consumed < target {
				return nil
			}
			continue
		}
		if err := begin(sp.Kind); err != nil {
			return err
		}
		for remaining := sp.Events; remaining > 0; {
			n, err := d.next(buf[:min(int64(len(buf)), remaining)])
			if err != nil {
				return err
			}
			if n == 0 {
				return nil // stream shorter than the plan
			}
			for i := range buf[:n] {
				instrs += int64(buf[i].Instructions())
			}
			if err := fn(buf[:n]); err != nil {
				return err
			}
			remaining -= int64(n)
			consumed += int64(n)
		}
	}
	return nil
}

// ReplaySampledInto is the consumer-interface form of ReplaySampled.
func (r *Recording) ReplaySampledInto(spans []Span, c SampledConsumer) error {
	return r.ReplaySampled(spans,
		func(k SpanKind) error { c.BeginSpan(k); return nil },
		func(evs []Event) error { c.EventBatch(evs); return nil },
		func(events int64, instrs units.Instrs) error { c.SkipSpan(events, instrs); return nil })
}
