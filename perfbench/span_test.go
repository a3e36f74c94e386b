package main

import (
	"path/filepath"
	"testing"
	"time"
)

const ms = time.Millisecond

func TestCoveredCountsOverlapOnce(t *testing.T) {
	ivs := [][2]time.Duration{{10 * ms, 30 * ms}, {20 * ms, 40 * ms}, {50 * ms, 60 * ms}, {0, 5 * ms}, {90 * ms, 200 * ms}}
	// Within [0,100): 0-5, 10-40, 50-60, 90-100.
	if got := covered(0, 100*ms, ivs); got != 55*ms {
		t.Errorf("covered = %v, want 55ms", got)
	}
	if got := covered(0, 100*ms, nil); got != 0 {
		t.Errorf("covered by nothing = %v", got)
	}
	nested := [][2]time.Duration{{10 * ms, 90 * ms}, {20 * ms, 30 * ms}}
	if got := covered(0, 100*ms, nested); got != 80*ms {
		t.Errorf("nested covered = %v, want 80ms", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	r := newSpanRecorder("t", 100)
	root := r.add("root", 0, 0, 100*ms)
	a := r.add("a", root, 10*ms, 40*ms)
	r.add("a.child", a, 15*ms, 25*ms)
	// Two parallel children of b overlap: b's self time subtracts
	// their union, not their sum.
	b := r.add("b", root, 50*ms, 90*ms)
	r.add("b.x", b, 50*ms, 70*ms)
	r.add("b.y", b, 60*ms, 80*ms)
	self := selfTimes(r.snapshot())
	for id, want := range map[int]time.Duration{root: 30 * ms, a: 20 * ms, b: 10 * ms} {
		if self[id] != want {
			t.Errorf("self[%d] = %v, want %v", id, self[id], want)
		}
	}
}

func TestReconcileArithmetic(t *testing.T) {
	r := newSpanRecorder("t", 100)
	other := r.add("elsewhere", 0, 0, 500*ms)
	root := r.add("root", 0, 0, 100*ms)
	a := r.add("layer.a", root, 0, 60*ms)
	r.add("layer.b", a, 10*ms, 30*ms)
	r.add("layer.b", root, 70*ms, 80*ms)
	r.add("ignored", other, 0, 500*ms)
	rec := reconcile("w", r.snapshot(), root, 90*ms)
	if rec.Traced != 100*ms || rec.Untraced != 90*ms || rec.Overhead != 10*ms {
		t.Errorf("totals: %+v", rec)
	}
	// layer.a: 60-20 = 40; layer.b: 20 + 10 = 30; remainder: 100-70.
	if rec.Layers["layer.a"] != 40*ms || rec.Layers["layer.b"] != 30*ms || len(rec.Layers) != 2 {
		t.Errorf("layers: %v", rec.Layers)
	}
	if rec.LayerSum != 70*ms || rec.Remainder != 30*ms {
		t.Errorf("sum %v remainder %v, want 70ms and 30ms", rec.LayerSum, rec.Remainder)
	}
	if rec.LayerSum+rec.Remainder != rec.Traced {
		t.Errorf("layers plus remainder %v != traced %v", rec.LayerSum+rec.Remainder, rec.Traced)
	}
}

func TestSpanRecorderLimitAndNil(t *testing.T) {
	var nilRec *spanRecorder
	if id := nilRec.open("x", 0); id != 0 {
		t.Errorf("nil recorder handed out span %d", id)
	}
	nilRec.close(0)
	if err := nilRec.timed("x", 0, func(int) error { return nil }); err != nil {
		t.Error(err)
	}
	r := newSpanRecorder("t", 2)
	r.add("a", 0, 0, 1)
	r.add("b", 0, 0, 1)
	if id := r.add("c", 0, 0, 1); id != 0 || r.dropped != 1 {
		t.Errorf("third span got id %d, dropped %d", id, r.dropped)
	}
	id := r.open("d", 0) // over the limit: dropped, closing is a no-op
	r.close(id)
	path := filepath.Join(t.TempDir(), "spans", "t.jsonl")
	if err := r.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
}
