package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"cgp/internal/isa"
	"cgp/internal/program"
)

// The binary trace format: a fixed magic header followed by one varint-
// packed record per event. Traces are normally streamed straight into
// the simulator, but capture/replay is useful for debugging and for
// decoupling expensive query execution from parameter sweeps.
//
// A record is a flags byte (Kind<<1 | Taken) followed by three
// uvarints (Addr, Target, CallerStart) and four zigzag varints (N,
// Iters, Fn, Caller), byte-for-byte what encoding/binary's
// AppendUvarint/AppendVarint produce. appendEvent is the one encoder
// (shared by Writer and Recorder) and decodeEventInto the one decoder;
// files are read back with Load.

var traceMagic = [8]byte{'C', 'G', 'P', 'T', 'R', 'C', '0', '1'}

// ErrBadMagic is returned when a non-trace stream is loaded or
// replayed.
var ErrBadMagic = errors.New("trace: bad magic")

// ErrVarintOverflow is returned for a record field whose varint runs
// past 64 bits — corrupt input, as opposed to a truncated record
// (io.ErrUnexpectedEOF).
var ErrVarintOverflow = errors.New("trace: varint overflows 64 bits")

// maxEventRecord bounds one encoded event: the flags byte plus seven
// varints.
const maxEventRecord = 1 + 7*binary.MaxVarintLen64

// writerBufBytes is the Writer's output buffer size.
const writerBufBytes = 1 << 16

// Writer streams encoded events to an io.Writer, header first. It
// encodes straight into its own output buffer and hands the buffer to
// the underlying writer when fewer than maxEventRecord bytes are free.
// Use it to write a trace file without holding the whole recording in
// memory; a Recorder produces the same bytes in memory.
type Writer struct {
	w   io.Writer
	buf []byte
	err error
}

// NewWriter returns an event writer whose first Flush writes the
// header.
func NewWriter(w io.Writer) *Writer {
	buf := make([]byte, 0, writerBufBytes)
	return &Writer{w: w, buf: append(buf, traceMagic[:]...)}
}

// Event implements Consumer, encoding ev. Errors are sticky and are
// reported by Flush.
func (tw *Writer) Event(ev Event) {
	if cap(tw.buf)-len(tw.buf) < maxEventRecord {
		tw.flush()
	}
	tw.buf = appendEvent(tw.buf, &ev)
}

func (tw *Writer) flush() {
	if tw.err == nil && len(tw.buf) > 0 {
		if _, err := tw.w.Write(tw.buf); err != nil {
			tw.err = fmt.Errorf("trace: write: %w", err)
		}
	}
	tw.buf = tw.buf[:0]
}

// Flush writes buffered output and returns the first error encountered
// while writing, if any.
func (tw *Writer) Flush() error {
	tw.flush()
	return tw.err
}

// appendEvent appends ev's record to b. The seven varints are
// open-coded like decodeEventInto's: most fields are zero or tiny, so
// the one-byte case is a single append and only larger values call
// into encoding/binary. A caller that guarantees maxEventRecord free
// bytes of capacity (the Recorder does) never reallocates b.
func appendEvent(b []byte, ev *Event) []byte {
	flags := byte(ev.Kind) << 1
	if ev.Taken {
		flags |= 1
	}
	b = append(b, flags)
	b = appendUvarint(b, uint64(ev.Addr))
	b = appendUvarint(b, uint64(ev.Target))
	b = appendUvarint(b, uint64(ev.CallerStart))
	b = appendVarint(b, int64(ev.N))
	b = appendVarint(b, int64(ev.Iters))
	b = appendVarint(b, int64(ev.Fn))
	return appendVarint(b, int64(ev.Caller))
}

func appendUvarint(b []byte, u uint64) []byte {
	if u < 0x80 {
		return append(b, byte(u))
	}
	return binary.AppendUvarint(b, u)
}

// appendVarint zigzag-encodes v exactly as binary.AppendVarint does.
func appendVarint(b []byte, v int64) []byte {
	return appendUvarint(b, uint64(v<<1)^uint64(v>>63))
}

// decodeEventInto decodes one event from the front of b into *ev,
// returning the encoded length; b must not be empty. On success every
// field of *ev is overwritten, so the caller can reuse a dirty buffer
// slot without zeroing it; on error the slot's contents are
// unspecified.
//
// This is the hottest loop body of the whole simulator (every replayed
// event passes through it), so the seven varint reads are open-coded
// straight-line: most fields are zero or tiny, and the one-byte case
// runs without a function call or loop — a helper carrying the
// binary.Uvarint fallback costs more than the inlining budget allows,
// and a fields loop pays a dispatch switch per field. The multi-byte
// fallback is the standard library decoder.
//
//cgplint:hotpath
func decodeEventInto(b []byte, ev *Event) (int, error) {
	flags := b[0]
	ev.Kind = Kind(flags >> 1)
	ev.Taken = flags&1 != 0
	pos := 1
	var u uint64
	var n int
	if pos < len(b) && b[pos] < 0x80 {
		u = uint64(b[pos])
		pos++
	} else if u, n = binary.Uvarint(b[pos:]); n <= 0 {
		return 0, decodeErr("addr", n)
	} else {
		pos += n
	}
	ev.Addr = isa.Addr(u)
	if pos < len(b) && b[pos] < 0x80 {
		u = uint64(b[pos])
		pos++
	} else if u, n = binary.Uvarint(b[pos:]); n <= 0 {
		return 0, decodeErr("target", n)
	} else {
		pos += n
	}
	ev.Target = isa.Addr(u)
	if pos < len(b) && b[pos] < 0x80 {
		u = uint64(b[pos])
		pos++
	} else if u, n = binary.Uvarint(b[pos:]); n <= 0 {
		return 0, decodeErr("callerStart", n)
	} else {
		pos += n
	}
	ev.CallerStart = isa.Addr(u)
	var v int64
	if pos < len(b) && b[pos] < 0x80 {
		x := b[pos]
		v = int64(x>>1) ^ -int64(x&1)
		pos++
	} else if v, n = binary.Varint(b[pos:]); n <= 0 {
		return 0, decodeErr("n", n)
	} else {
		pos += n
	}
	ev.N = int32(v)
	if pos < len(b) && b[pos] < 0x80 {
		x := b[pos]
		v = int64(x>>1) ^ -int64(x&1)
		pos++
	} else if v, n = binary.Varint(b[pos:]); n <= 0 {
		return 0, decodeErr("iters", n)
	} else {
		pos += n
	}
	ev.Iters = int32(v)
	if pos < len(b) && b[pos] < 0x80 {
		x := b[pos]
		v = int64(x>>1) ^ -int64(x&1)
		pos++
	} else if v, n = binary.Varint(b[pos:]); n <= 0 {
		return 0, decodeErr("fn", n)
	} else {
		pos += n
	}
	ev.Fn = program.FuncID(v)
	if pos < len(b) && b[pos] < 0x80 {
		x := b[pos]
		v = int64(x>>1) ^ -int64(x&1)
		pos++
	} else if v, n = binary.Varint(b[pos:]); n <= 0 {
		return 0, decodeErr("caller", n)
	} else {
		pos += n
	}
	ev.Caller = program.FuncID(v)
	return pos, nil
}

// decodeErr builds the error for a field encoding/binary rejected: n
// is its return, 0 for a truncated varint and negative for one running
// past 64 bits.
//
//cgplint:coldpath error construction runs only on corrupt or truncated input, never in steady-state replay
func decodeErr(field string, n int) error {
	if n < 0 {
		return fmt.Errorf("trace: decode %s: %w", field, ErrVarintOverflow)
	}
	return fmt.Errorf("trace: decode %s: %w", field, io.ErrUnexpectedEOF)
}
