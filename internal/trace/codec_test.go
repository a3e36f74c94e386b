package trace

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"cgp/internal/isa"
	"cgp/internal/program"
)

func TestCodecRoundTrip(t *testing.T) {
	events := []Event{
		{Kind: KindRun, Addr: 0x400000, N: 12, Fn: 3},
		{Kind: KindCall, Addr: 0x400030, Target: 0x401000, Fn: 4, Caller: 3, CallerStart: 0x400000},
		{Kind: KindBranch, Addr: 0x401010, Target: 0x401040, Taken: true, Fn: 4},
		{Kind: KindLoop, Addr: 0x401100, N: 24, Iters: 100, Fn: 4},
		{Kind: KindReturn, Addr: 0x401000, Target: 0x400034, Fn: 4, Caller: 3, CallerStart: 0x400000},
		{Kind: KindData, Addr: 0x40000000, N: 260, Taken: true},
		{Kind: KindSwitch, N: 2},
		{Kind: KindReturn, Fn: 0, Caller: program.NoFunc},
	}
	got := loadEvents(t, writeEvents(t, events))
	if !reflect.DeepEqual(events, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", events, got)
	}
}

// writeEvents encodes events through a Writer and returns the stream.
func writeEvents(t testing.TB, events []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, ev := range events {
		w.Event(ev)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loadEvents loads a stream and returns its decoded events.
func loadEvents(t testing.TB, stream []byte) []Event {
	t.Helper()
	rec, err := Load(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	var got Capture
	if err := rec.Replay(&got); err != nil {
		t.Fatal(err)
	}
	return got.Events
}

func TestCodecBadMagic(t *testing.T) {
	for _, stream := range []string{"notatrace...", "CGPT", ""} {
		if _, err := Load(strings.NewReader(stream)); !errors.Is(err, ErrBadMagic) {
			t.Errorf("Load(%q) err = %v, want ErrBadMagic", stream, err)
		}
	}
}

func TestCodecTruncated(t *testing.T) {
	raw := writeEvents(t, []Event{{Kind: KindRun, Addr: 0x400000, N: 12}})
	for cut := 1; cut < len(raw)-len(traceMagic); cut++ {
		_, err := Load(bytes.NewReader(raw[:len(raw)-cut]))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("record truncated by %d bytes: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
	// A header with no records is an empty trace, not an error.
	rec, err := Load(bytes.NewReader(raw[:len(traceMagic)]))
	if err != nil || rec.Events() != 0 {
		t.Errorf("header-only stream: %d events, err %v", rec.Events(), err)
	}
}

func TestReplay(t *testing.T) {
	var evs []Event
	for i := 0; i < 10; i++ {
		evs = append(evs, Event{Kind: KindRun, Addr: isa.Addr(0x400000 + i*32), N: 8})
	}
	rec, err := Load(bytes.NewReader(writeEvents(t, evs)))
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := rec.Replay(&st); err != nil {
		t.Fatal(err)
	}
	if st.Instructions != 80 {
		t.Errorf("replayed %d instructions, want 80", st.Instructions)
	}
	if rec.Stats != st {
		t.Errorf("loaded stats %+v differ from replayed %+v", rec.Stats, st)
	}
}

// Property: any event with in-range fields round-trips exactly.
func TestCodecProperty(t *testing.T) {
	f := func(kind uint8, addr, target, cs uint32, n, iters int32, fn, caller int16, taken bool) bool {
		ev := Event{
			Kind:        Kind(kind % 7),
			Addr:        isa.Addr(addr),
			Target:      isa.Addr(target),
			CallerStart: isa.Addr(cs),
			N:           n,
			Iters:       iters,
			Fn:          program.FuncID(fn),
			Caller:      program.FuncID(caller),
			Taken:       taken,
		}
		got := loadEvents(t, writeEvents(t, []Event{ev}))
		return len(got) == 1 && got[0] == ev
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Round-trip a real synthesized trace through the codec and verify a
// replayed CPU-visible stream is byte-identical.
func TestCodecFullTrace(t *testing.T) {
	img, ids := testImage()
	var direct Capture
	var buf bytes.Buffer
	w := NewWriter(&buf)
	drive(NewTracer(img, Tee(&direct, w), 11), ids)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct.Events, loadEvents(t, buf.Bytes())) {
		t.Fatal("replayed trace differs from live trace")
	}
}
