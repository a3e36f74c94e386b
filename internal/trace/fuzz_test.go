package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"cgp/internal/isa"
	"cgp/internal/program"
)

// fuzzSeedEvents are the events the existing codec and recording
// tests encode, used to seed both fuzz targets.
func fuzzSeedEvents() []Event {
	evs := []Event{
		{Kind: KindRun, Addr: 0x400000, N: 12, Fn: 3},
		{Kind: KindCall, Addr: 0x400030, Target: 0x401000, Fn: 4, Caller: 3, CallerStart: 0x400000},
		{Kind: KindBranch, Addr: 0x401010, Target: 0x401040, Taken: true, Fn: 4},
		{Kind: KindLoop, Addr: 0x401100, N: 24, Iters: 100, Fn: 4},
		{Kind: KindReturn, Fn: 0, Caller: program.NoFunc},
		{Kind: KindData, Addr: 0x40000000, N: 260, Taken: true},
		{Kind: KindSwitch, N: 2},
		{Kind: KindQueryTag, Addr: 1<<63 | 7},
		{Kind: KindProbeWork, N: -1, Iters: -1 << 31, Fn: -1, Caller: 1<<31 - 1},
	}
	return append(evs, recordTestEvents(5)...)
}

// decodeTyped reports whether err is one of the decoder's documented
// failures.
func decodeTyped(err error) bool {
	return errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, ErrVarintOverflow) || errors.Is(err, ErrBadMagic)
}

// FuzzDecodeEvent feeds arbitrary bytes to the decoder, both as one
// record and as a whole stream replayed across tiny chunks: it must
// never panic, must consume at most one bounded record, and must fail
// only with a typed error.
func FuzzDecodeEvent(f *testing.F) {
	for _, ev := range fuzzSeedEvents() {
		b := appendEvent(nil, &ev)
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Add(append(traceMagic[:], appendEvent(nil, &Event{Kind: KindLoop, N: 3, Iters: 9})...))
	f.Add([]byte{0x02, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 0 {
			var ev Event
			m, err := decodeEventInto(data, &ev)
			if err != nil && !decodeTyped(err) {
				t.Fatalf("decodeEventInto error %v is not typed", err)
			}
			if err == nil && (m <= 0 || m > len(data) || m > maxEventRecord) {
				t.Fatalf("decodeEventInto consumed %d of %d bytes", m, len(data))
			}
		}
		for _, stream := range [][]byte{data, append(traceMagic[:], data...)} {
			buf := newChunkBuffer(7)
			buf.Write(stream)
			var st Stats
			err := (&Recording{buf: buf}).ReplayBatch(func(evs []Event) error {
				for i := range evs {
					st.Event(evs[i])
				}
				return nil
			})
			if err != nil && !decodeTyped(err) {
				t.Fatalf("ReplayBatch error %v is not typed", err)
			}
			rec, lerr := load(bytes.NewReader(stream), 7)
			if (lerr == nil) != (err == nil) {
				t.Fatalf("Load error %v disagrees with ReplayBatch error %v", lerr, err)
			}
			if lerr == nil && rec.Stats != st {
				t.Fatalf("Load stats %+v differ from replayed %+v", rec.Stats, st)
			}
		}
	})
}

// FuzzEventRoundTrip encodes an arbitrary event and decodes it back:
// the result must be the same event (negative counts and IDs
// included), the bytes must be encoding/binary's, and the record must
// fit maxEventRecord. Kinds occupy the flags byte's upper seven bits.
func FuzzEventRoundTrip(f *testing.F) {
	for _, ev := range fuzzSeedEvents() {
		f.Add(uint8(ev.Kind), ev.Taken, uint64(ev.Addr), uint64(ev.Target), uint64(ev.CallerStart),
			ev.N, ev.Iters, int32(ev.Fn), int32(ev.Caller))
	}
	f.Fuzz(func(t *testing.T, kind uint8, taken bool, addr, target, cs uint64, n, iters, fn, caller int32) {
		ev := Event{
			Kind: Kind(kind & 0x7f), Taken: taken,
			Addr: isa.Addr(addr), Target: isa.Addr(target), CallerStart: isa.Addr(cs),
			N: n, Iters: iters, Fn: program.FuncID(fn), Caller: program.FuncID(caller),
		}
		b := appendEvent(nil, &ev)
		flags := byte(ev.Kind) << 1
		if taken {
			flags |= 1
		}
		want := []byte{flags}
		for _, u := range []uint64{addr, target, cs} {
			want = binary.AppendUvarint(want, u)
		}
		for _, v := range []int32{n, iters, fn, caller} {
			want = binary.AppendVarint(want, int64(v))
		}
		if string(b) != string(want) {
			t.Fatalf("appendEvent(%+v) = %x, encoding/binary gives %x", ev, b, want)
		}
		if len(b) > maxEventRecord {
			t.Fatalf("record of %d bytes exceeds maxEventRecord", len(b))
		}
		var got Event
		m, err := decodeEventInto(b, &got)
		if err != nil || m != len(b) || got != ev {
			t.Fatalf("decode(encode(%+v)) = %+v, %d of %d bytes, %v", ev, got, m, len(b), err)
		}
	})
}
