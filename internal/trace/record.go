package trace

import (
	"fmt"
	"io"

	"cgp/internal/units"
)

// Record/replay: capture a workload's event stream once, in memory, and
// replay it into any number of simulator configurations. The stream for
// a given (workload, image) pair is deterministic and independent of
// the microarchitectural configuration, so the expensive part of a run
// — executing the database engine or the CPU2000 generators — need not
// be repeated per configuration. This is the same decoupling the
// paper's SimpleScalar setup gets from trace-driven simulation.
//
// The recording uses the binary codec of codec.go, so a recorded event
// stream is byte-compatible with the on-disk trace format, and is
// stored in fixed-size chunks: appending never copies already-recorded
// data, and replay streams chunk by chunk without materializing
// decoded events.

// recordChunkBytes is the default chunk size (1 MiB): large enough to
// amortize allocation, small enough that a short trace wastes little.
const recordChunkBytes = 1 << 20

// chunkBuffer is an append-only byte buffer split into fixed-capacity
// chunks. The Recorder encodes into its last chunk directly and Load
// fills it through io.Writer; decoders are created per replay and walk
// the chunks independently.
type chunkBuffer struct {
	chunks    [][]byte
	size      int64
	chunkSize int
}

func newChunkBuffer(chunkSize int) *chunkBuffer {
	if chunkSize <= 0 {
		chunkSize = recordChunkBytes
	}
	return &chunkBuffer{chunkSize: chunkSize}
}

// Write implements io.Writer, spreading p across chunk boundaries. It
// never fails.
func (b *chunkBuffer) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if len(b.chunks) == 0 || len(b.chunks[len(b.chunks)-1]) == b.chunkSize {
			b.chunks = append(b.chunks, make([]byte, 0, b.chunkSize))
		}
		last := &b.chunks[len(b.chunks)-1]
		free := b.chunkSize - len(*last)
		if free > len(p) {
			free = len(p)
		}
		*last = append(*last, p[:free]...)
		p = p[free:]
	}
	b.size += int64(n)
	return n, nil
}

// pos converts a global stream offset into the (chunk, offset)
// position chunkDecoder.advance reaches after consuming off bytes:
// every chunk but the last is full, so a record ending exactly on a
// chunk boundary positions at the start of the next chunk.
func (b *chunkBuffer) pos(off int64) (ci, o int) {
	return int(off / int64(b.chunkSize)), int(off % int64(b.chunkSize))
}

// Recorder is a Consumer that captures an event stream into a compact
// chunked buffer using the binary trace codec, in one pass: each event
// is encoded straight into the current chunk, and the stream's
// aggregate Stats and the skip index sampled replay jumps through are
// accumulated alongside, so a sealed recording never needs a decode
// pass to describe itself.
type Recorder struct {
	buf *chunkBuffer
	// cur is the buffer's last chunk as it grows; buf's copy of the
	// slice header (and buf.size) catch up in sync.
	cur   []byte
	stats Stats
	idx   []skipPoint
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return newRecorder(recordChunkBytes) }

func newRecorder(chunkSize int) *Recorder {
	r := &Recorder{buf: newChunkBuffer(chunkSize)}
	r.buf.Write(traceMagic[:])
	r.cur = r.buf.chunks[0]
	return r
}

// Event implements Consumer.
func (r *Recorder) Event(ev Event) { r.record(&ev) }

// EventBatch implements BatchConsumer.
func (r *Recorder) EventBatch(evs []Event) {
	for i := range evs {
		r.record(&evs[i])
	}
}

// record encodes one event. It lands in the current chunk when at
// least maxEventRecord bytes are free there; otherwise it is encoded
// on the stack and spread across the chunk boundary, so the bytes and
// chunk boundaries are exactly those of writing the encoded stream
// through chunkBuffer.Write.
func (r *Recorder) record(ev *Event) {
	r.stats.add(ev)
	if r.buf.chunkSize-len(r.cur) >= maxEventRecord {
		r.cur = appendEvent(r.cur, ev)
	} else {
		var tmp [maxEventRecord]byte
		r.sync()
		r.buf.Write(appendEvent(tmp[:0], ev))
		r.cur = r.buf.chunks[len(r.buf.chunks)-1]
	}
	if r.stats.Events%skipIndexEvery == 0 {
		r.sync()
		ci, off := r.buf.pos(r.buf.size)
		r.idx = append(r.idx, skipPoint{ci: ci, off: off, events: r.stats.Events, instrs: int64(r.stats.Instructions)})
	}
}

// sync stores cur back into the buffer.
func (r *Recorder) sync() {
	b := r.buf
	last := len(b.chunks) - 1
	b.size += int64(len(r.cur) - len(b.chunks[last]))
	b.chunks[last] = r.cur
}

// Finish seals the recording: the chunk list is frozen and per-chunk
// CRC-32C checksums are computed, so every later replay can verify
// integrity before decoding. The Recorder must not be used afterwards.
// Recording into memory cannot fail; the error is always nil.
func (r *Recorder) Finish() (*Recording, error) {
	r.sync()
	return &Recording{
		buf:     r.buf,
		Stats:   r.stats,
		version: RecordingVersion,
		sums:    sealChecksums(r.buf),
		idx:     r.idx,
	}, nil
}

// Recording is a sealed recorded trace. It is immutable and safe for
// concurrent replay from multiple goroutines.
type Recording struct {
	buf *chunkBuffer
	// version and sums are the integrity framing (see integrity.go):
	// the format version and one CRC-32C per chunk, sealed by Finish.
	version int
	sums    []uint32
	// Stats are the aggregate statistics of the recorded stream,
	// identical to what a Stats consumer fed by Replay would count.
	Stats Stats
	// idx is the skip index used by ReplaySampled (see sample.go),
	// built by the Recorder or by Load. It lives only in memory — the
	// encoded stream stays byte-compatible with the on-disk format.
	idx []skipPoint
}

// Events returns the number of recorded events.
func (r *Recording) Events() int64 { return r.Stats.Events }

// Bytes returns the in-memory footprint of the encoded trace.
func (r *Recording) Bytes() int64 { return r.buf.size }

// replayBatch is how many decoded events one dispatch hands over. The
// buffer (≈ 24 KiB) stays comfortably cache-resident while amortizing
// the dynamic dispatch per batch to noise.
const replayBatch = 512

// ReplayAll feeds the recorded events to every consumer in one decode
// pass: each event is decoded once and dispatched to every consumer.
// When several simulator configurations consume the same (workload,
// layout) stream, this amortizes the decode cost across all of them.
// Consumers are independent, so events are handed to them a batch at a
// time (each consumer sees the full stream in order; only the
// interleaving between consumers changes, which no consumer can
// observe).
func (r *Recording) ReplayAll(cs ...Consumer) error {
	if len(cs) == 1 {
		return r.Replay(cs[0])
	}
	batched := make([]BatchConsumer, 0, len(cs))
	plain := make([]Consumer, 0, len(cs))
	for _, c := range cs {
		if bc, ok := c.(BatchConsumer); ok {
			batched = append(batched, bc)
		} else {
			plain = append(plain, c)
		}
	}
	return r.ReplayBatch(func(evs []Event) error {
		for _, bc := range batched {
			bc.EventBatch(evs)
		}
		for _, c := range plain {
			for i := range evs {
				c.Event(evs[i])
			}
		}
		return nil
	})
}

// Replay feeds the recorded events to c in recording order. A consumer
// implementing BatchConsumer (the CPU model does) receives the events
// through its batch entry point; otherwise they are delivered one
// Event call at a time. Replay allocates a fixed per-call setup cost
// (the dispatch closure here, the batch buffer in ReplayBatch) and
// nothing per event — TestReplayAllocsIndependentOfLength pins the
// runtime side of what allocfree verifies statically.
//
//cgplint:hotpath
func (r *Recording) Replay(c Consumer) error {
	if bc, ok := c.(BatchConsumer); ok {
		return r.ReplayBatch(func(evs []Event) error { //cgplint:ignore allocfree one dispatch closure per Replay call, amortized across the whole stream
			bc.EventBatch(evs) //cgplint:ignore allocfree dynamic consumer dispatch is paid once per 512-event batch, not per event
			return nil
		})
	}
	return r.ReplayBatch(func(evs []Event) error { //cgplint:ignore allocfree one dispatch closure per Replay call, amortized across the whole stream
		for i := range evs {
			c.Event(evs[i]) //cgplint:ignore allocfree dispatch itself does not allocate; consumers wanting a verified path implement BatchConsumer
		}
		return nil
	})
}

// ReplayBatch is the kernel of every replay: it decodes the stream into
// a reusable buffer, replayBatch events at a time, and hands each
// full batch (and the final partial one) to fn. The buffer is
// allocated once per call, so steady-state replay does not allocate
// per batch. fn must not retain the slice. A non-nil error from fn
// aborts the replay immediately and is returned as-is (the runner uses
// this for prompt cancellation at batch granularity).
//
// Before decoding, the chunk checksums sealed at record time are
// re-verified; a corrupted recording fails with *CorruptionError
// instead of handing decoded garbage to the consumers.
//
//cgplint:hotpath
func (r *Recording) ReplayBatch(fn func(evs []Event) error) error {
	if err := r.Verify(); err != nil {
		return err
	}
	d, err := r.decoder()
	if err != nil {
		return err
	}
	buf := make([]Event, replayBatch) //cgplint:ignore allocfree one reusable batch buffer per replay call, amortized across the whole stream
	for {
		n, err := d.next(buf)
		if err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
		if err := fn(buf[:n]); err != nil {
			return err
		}
	}
}

// decoder returns a decoder positioned just past the stream header.
func (r *Recording) decoder() (chunkDecoder, error) {
	d := chunkDecoder{b: r.buf}
	hdr := d.window(len(traceMagic))
	if len(hdr) < len(traceMagic) || [8]byte(hdr[:8]) != traceMagic {
		return d, ErrBadMagic
	}
	d.advance(len(traceMagic))
	return d, nil
}

// chunkDecoder walks a chunkBuffer as one logical byte stream,
// assembling chunk-straddling records into a scratch buffer. Each
// decoder carries its own position, so concurrent replays of one
// recording are independent.
type chunkDecoder struct {
	b       *chunkBuffer
	ci      int // current chunk
	off     int // offset within chunk ci
	scratch [maxEventRecord]byte
}

// next decodes up to len(buf) events into buf and returns how many it
// decoded: len(buf) unless the stream ends first, and 0 once it has
// ended. Records lying wholly inside the current chunk — all but the
// last few of each chunk — decode straight from the chunk slice
// without per-event window/advance bookkeeping; the decoded varints
// never pass through an io.Reader.
//
//cgplint:hotpath
func (d *chunkDecoder) next(buf []Event) (int, error) {
	n := 0
	for n < len(buf) {
		if d.ci < len(d.b.chunks) {
			chunk := d.b.chunks[d.ci]
			pos := d.off
			for pos+maxEventRecord <= len(chunk) && n < len(buf) {
				m, err := decodeEventInto(chunk[pos:], &buf[n])
				if err != nil {
					return n, err
				}
				pos += m
				n++
			}
			d.off = pos
			if n == len(buf) {
				break
			}
		}
		// Slow path: a record straddling a chunk boundary, or the tail
		// of the final chunk.
		w := d.window(maxEventRecord)
		if len(w) == 0 {
			break
		}
		m, err := decodeEventInto(w, &buf[n])
		if err != nil {
			return n, err
		}
		d.advance(m)
		n++
	}
	return n, nil
}

// window returns at least min(n, bytes remaining) contiguous bytes at
// the current position without consuming them; advance moves past the
// bytes actually decoded. The common case — a whole record inside one
// chunk — returns a subslice with no copy.
func (d *chunkDecoder) window(n int) []byte {
	for d.ci < len(d.b.chunks) && d.off == len(d.b.chunks[d.ci]) {
		d.ci++
		d.off = 0
	}
	if d.ci >= len(d.b.chunks) {
		return nil
	}
	cur := d.b.chunks[d.ci][d.off:]
	if len(cur) >= n || d.ci == len(d.b.chunks)-1 {
		return cur
	}
	m := copy(d.scratch[:n], cur)
	for i := d.ci + 1; i < len(d.b.chunks) && m < n; i++ {
		m += copy(d.scratch[m:n], d.b.chunks[i])
	}
	return d.scratch[:m]
}

func (d *chunkDecoder) advance(n int) {
	for n > 0 {
		rest := len(d.b.chunks[d.ci]) - d.off
		if n < rest {
			d.off += n
			return
		}
		n -= rest
		d.ci++
		d.off = 0
	}
}

// point returns the decoder's position as a skip-index checkpoint,
// normalized the way the Recorder computes it.
func (d *chunkDecoder) point(events int64, instrs units.Instrs) skipPoint {
	ci, off := d.b.pos(int64(d.ci)*int64(d.b.chunkSize) + int64(d.off))
	return skipPoint{ci: ci, off: off, events: events, instrs: int64(instrs)}
}

// Load reads an entire encoded trace stream (the cgptrace on-disk
// format, header included) into a sealed Recording, so file-backed
// traces get the same replay machinery as in-memory ones — including
// sampled replay, which needs random access. One decode pass rebuilds
// the aggregate Stats and the skip index a Recorder would have built.
func Load(src io.Reader) (*Recording, error) { return load(src, recordChunkBytes) }

func load(src io.Reader, chunkSize int) (*Recording, error) {
	buf := newChunkBuffer(chunkSize)
	if _, err := io.Copy(buf, src); err != nil {
		return nil, fmt.Errorf("trace: load: %w", err)
	}
	rec := &Recording{buf: buf, version: RecordingVersion, sums: sealChecksums(buf)}
	d, err := rec.decoder()
	if err != nil {
		return nil, err
	}
	evs := make([]Event, replayBatch)
	for {
		n, err := d.next(evs)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return rec, nil
		}
		for i := range evs[:n] {
			rec.Stats.Event(evs[i])
		}
		// Every batch but the last is full and replayBatch divides
		// skipIndexEvery, so checkpoint events always end a batch.
		if rec.Stats.Events%skipIndexEvery == 0 {
			rec.idx = append(rec.idx, d.point(rec.Stats.Events, rec.Stats.Instructions))
		}
	}
}

// replayBatch must divide skipIndexEvery (see Load).
var _ [0]struct{} = [skipIndexEvery % replayBatch]struct{}{}

// WriteTo copies the raw encoded trace (header included) to w, so a
// recording can be saved in the cgptrace on-disk format.
func (r *Recording) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, chunk := range r.buf.chunks {
		n, err := w.Write(chunk)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
