package trace_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"cgp/internal/isa"
	"cgp/internal/program"
	"cgp/internal/trace"
	"cgp/internal/workload"
)

// refEncode is the reference encoding of one event: the flags byte and
// seven varints written through encoding/binary, field by field.
func refEncode(b []byte, ev trace.Event) []byte {
	flags := byte(ev.Kind) << 1
	if ev.Taken {
		flags |= 1
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(ev.Addr))
	b = binary.AppendUvarint(b, uint64(ev.Target))
	b = binary.AppendUvarint(b, uint64(ev.CallerStart))
	b = binary.AppendVarint(b, int64(ev.N))
	b = binary.AppendVarint(b, int64(ev.Iters))
	b = binary.AppendVarint(b, int64(ev.Fn))
	return binary.AppendVarint(b, int64(ev.Caller))
}

// refIndex decodes a flat encoded stream field by field with
// encoding/binary, checks it against the events it was encoded from,
// and returns the skip index a recording with chunkSize-byte chunks
// must carry: after every SkipIndexEvery-th event, the stream offset
// split into (chunk, offset) plus the cumulative counts.
func refIndex(t *testing.T, flat []byte, evs []trace.Event, chunkSize int) []trace.SkipPoint {
	t.Helper()
	r := bytes.NewReader(flat[8:])
	var idx []trace.SkipPoint
	var instrs int64
	for i := range evs {
		var ev trace.Event
		flags, err := r.ReadByte()
		if err != nil {
			t.Fatal(err)
		}
		ev.Kind, ev.Taken = trace.Kind(flags>>1), flags&1 != 0
		var u [3]uint64
		for j := range u {
			if u[j], err = binary.ReadUvarint(r); err != nil {
				t.Fatal(err)
			}
		}
		var v [4]int64
		for j := range v {
			if v[j], err = binary.ReadVarint(r); err != nil {
				t.Fatal(err)
			}
		}
		ev.Addr, ev.Target, ev.CallerStart = isa.Addr(u[0]), isa.Addr(u[1]), isa.Addr(u[2])
		ev.N, ev.Iters, ev.Fn, ev.Caller = int32(v[0]), int32(v[1]), program.FuncID(v[2]), program.FuncID(v[3])
		if ev != evs[i] {
			t.Fatalf("reference decode of event %d = %+v, want %+v", i, ev, evs[i])
		}
		instrs += int64(ev.Instructions())
		if n := int64(i + 1); n%trace.SkipIndexEvery == 0 {
			off := len(flat) - r.Len()
			idx = append(idx, trace.SkipPoint{Chunk: off / chunkSize, Off: off % chunkSize, Events: n, Instrs: instrs})
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left after the last reference record", r.Len())
	}
	return idx
}

// equivStreams are the event streams the equivalence test records:
// two database workloads, a CPU2000 stand-in, and a synthetic stream
// of extreme field values (negative counts and IDs, 64-bit addresses).
func equivStreams(t *testing.T) map[string][]trace.Event {
	out := map[string][]trace.Event{}
	gzip, err := workload.CPU2000ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []*workload.Workload{
		workload.WiscProf(workload.DBOptions{}),
		workload.WiscLarge1(workload.DBOptions{WiscN: 300}),
		workload.NewCPU2000(gzip, 7),
	} {
		var c trace.Capture
		if err := w.Run(program.LayoutO5(w.NewRegistry()), &c); err != nil {
			t.Fatal(err)
		}
		out[w.Name] = c.Events
	}
	var ext []trace.Event
	for i := 0; i < 3*trace.SkipIndexEvery+5; i++ {
		x := int32(i*2654435761) ^ int32(i<<20)
		ext = append(ext, trace.Event{
			Kind: trace.Kind(i % 13), Taken: i%3 == 0,
			Addr: isa.Addr(uint64(i) * 0x9e3779b97f4a7c15), Target: isa.Addr(^uint64(i)), CallerStart: isa.Addr(i),
			N: x, Iters: -x, Fn: program.FuncID(-i), Caller: program.FuncID(x >> 3),
		})
	}
	out["extreme"] = ext
	return out
}

// TestRecorderMatchesReference checks the one-pass Recorder against
// the reference encoding and a reference decode pass, at chunk sizes
// small enough that events straddle chunk boundaries: the chunks hold
// exactly the reference bytes split at the same boundaries, the inline
// skip index equals the reference one, and loading the written stream
// rebuilds the same Stats and index.
func TestRecorderMatchesReference(t *testing.T) {
	for name, evs := range equivStreams(t) {
		flat := []byte("CGPTRC01")
		var stats trace.Stats
		for _, ev := range evs {
			flat = refEncode(flat, ev)
			stats.Event(ev)
		}
		for _, cs := range []int{13, 71, 4099, 1 << 20} {
			t.Run(fmt.Sprintf("%s/chunk%d", name, cs), func(t *testing.T) {
				r := trace.NewRecorderSize(cs)
				r.EventBatch(evs)
				rec, err := r.Finish()
				if err != nil {
					t.Fatal(err)
				}
				var want [][]byte
				for rest := flat; len(rest) > 0; rest = rest[min(cs, len(rest)):] {
					want = append(want, rest[:min(cs, len(rest))])
				}
				if !reflect.DeepEqual(rec.Chunks(), want) {
					t.Fatalf("recorded chunks differ from the reference encoding (%d vs %d chunks)", len(rec.Chunks()), len(want))
				}
				if rec.Stats != stats {
					t.Fatalf("recorded stats %+v, want %+v", rec.Stats, stats)
				}
				wantIdx := refIndex(t, flat, evs, cs)
				if got := rec.SkipIndex(); !reflect.DeepEqual(got, wantIdx) {
					t.Fatalf("inline skip index differs from the reference:\n got %v\nwant %v", got, wantIdx)
				}
				var file bytes.Buffer
				if _, err := rec.WriteTo(&file); err != nil {
					t.Fatal(err)
				}
				loaded, err := trace.LoadSize(&file, cs)
				if err != nil {
					t.Fatal(err)
				}
				if loaded.Stats != stats {
					t.Fatalf("loaded stats %+v, want %+v", loaded.Stats, stats)
				}
				if got := loaded.SkipIndex(); !reflect.DeepEqual(got, wantIdx) {
					t.Fatalf("loaded skip index differs from the reference:\n got %v\nwant %v", got, wantIdx)
				}
			})
		}
	}
}
