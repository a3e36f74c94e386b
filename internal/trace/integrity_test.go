package trace

import (
	"errors"
	"testing"
)

// integrityRecording records n synthetic events through the real
// Recorder so the sealed checksums cover a realistic stream.
func integrityRecording(t *testing.T, n int) *Recording {
	t.Helper()
	rec := NewRecorder()
	for _, ev := range recordTestEvents(n) {
		rec.Event(ev)
	}
	rg, err := rec.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return rg
}

func TestRecordingSealedWithChecksums(t *testing.T) {
	rg := integrityRecording(t, 1000)
	if rg.Version() != RecordingVersion {
		t.Fatalf("version = %d, want %d", rg.Version(), RecordingVersion)
	}
	if len(rg.sums) != len(rg.buf.chunks) {
		t.Fatalf("%d checksums for %d chunks", len(rg.sums), len(rg.buf.chunks))
	}
	if err := rg.Verify(); err != nil {
		t.Fatalf("fresh recording fails Verify: %v", err)
	}
	if err := rg.Replay(&Stats{}); err != nil {
		t.Fatalf("fresh recording fails Replay: %v", err)
	}
}

func TestCorruptByteDetectedOnReplay(t *testing.T) {
	for _, off := range []int64{0, 9, 100} {
		rg := integrityRecording(t, 2000)
		if !rg.CorruptByte(off, 0x40) {
			t.Fatalf("offset %d out of range", off)
		}
		var ce *CorruptionError
		if err := rg.Verify(); !errors.As(err, &ce) {
			t.Fatalf("Verify after flip at %d = %v, want *CorruptionError", off, err)
		} else if ce.Want == ce.Got {
			t.Fatalf("corruption error reports matching sums: %+v", ce)
		}
		if err := rg.Replay(&Stats{}); !errors.As(err, &ce) {
			t.Fatalf("Replay after flip at %d = %v, want *CorruptionError", off, err)
		}
		// Flipping the same bit back heals the recording.
		rg.CorruptByte(off, 0x40)
		if err := rg.Replay(&Stats{}); err != nil {
			t.Fatalf("healed recording fails Replay: %v", err)
		}
	}
}

func TestCorruptByteOutOfRange(t *testing.T) {
	rg := integrityRecording(t, 10)
	if rg.CorruptByte(rg.Bytes()+100, 1) {
		t.Fatal("CorruptByte accepted an out-of-range offset")
	}
	if err := rg.Verify(); err != nil {
		t.Fatalf("recording corrupted by out-of-range flip: %v", err)
	}
}

func TestCorruptionInLaterChunk(t *testing.T) {
	// Tiny chunks force a multi-chunk recording; corrupt the last one.
	r := newRecorder(64)
	for _, ev := range recordTestEvents(500) {
		r.Event(ev)
	}
	rg, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	buf := rg.buf
	if err := rg.Verify(); err != nil {
		t.Fatal(err)
	}
	rg.CorruptByte(rg.Bytes()-1, 0xff)
	var ce *CorruptionError
	if err := rg.Verify(); !errors.As(err, &ce) {
		t.Fatalf("Verify = %v, want *CorruptionError", err)
	}
	if ce.Chunk != len(buf.chunks)-1 {
		t.Fatalf("corruption attributed to chunk %d, want %d", ce.Chunk, len(buf.chunks)-1)
	}
	wantOff := rg.Bytes() - int64(len(buf.chunks[len(buf.chunks)-1]))
	if ce.Offset != wantOff {
		t.Fatalf("corruption offset %d, want %d", ce.Offset, wantOff)
	}
}

func TestPreFramingRecordingVerifiesVacuously(t *testing.T) {
	// A hand-built recording with no sums (version-1 shape) must still
	// replay: Verify has nothing to check against.
	r := NewRecorder()
	evs := recordTestEvents(50)
	for _, ev := range evs {
		r.Event(ev)
	}
	sealed, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rg := &Recording{buf: sealed.buf}
	var st Stats
	if err := rg.Replay(&st); err != nil {
		t.Fatal(err)
	}
	if st.Events != int64(len(evs)) {
		t.Fatalf("replayed %d events, want %d", st.Events, len(evs))
	}
}

func TestReplayBatchAbortsOnConsumerError(t *testing.T) {
	rg := integrityRecording(t, 3*replayBatch)
	sentinel := errors.New("stop")
	batches := 0
	err := rg.ReplayBatch(func(evs []Event) error {
		batches++
		if batches == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("ReplayBatch = %v, want sentinel", err)
	}
	if batches != 2 {
		t.Fatalf("fn called %d times after abort, want 2", batches)
	}
}
