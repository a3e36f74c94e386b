package trace

import "io"

// Hooks for the external tests in package trace_test, which record
// real workloads: package workload imports trace, so those tests
// cannot live inside package trace.

// NewRecorderSize returns a recorder with chunkSize-byte chunks.
func NewRecorderSize(chunkSize int) *Recorder { return newRecorder(chunkSize) }

// LoadSize is Load with chunkSize-byte chunks.
func LoadSize(src io.Reader, chunkSize int) (*Recording, error) { return load(src, chunkSize) }

// Chunks returns the recording's encoded chunks.
func (r *Recording) Chunks() [][]byte { return r.buf.chunks }

// SkipPoint mirrors one skip-index checkpoint.
type SkipPoint struct {
	Chunk, Off     int
	Events, Instrs int64
}

// SkipIndex returns the recording's skip index.
func (r *Recording) SkipIndex() []SkipPoint {
	out := make([]SkipPoint, len(r.idx))
	for i, p := range r.idx {
		out[i] = SkipPoint{Chunk: p.ci, Off: p.off, Events: p.events, Instrs: p.instrs}
	}
	return out
}

// SkipIndexEvery exports the checkpoint spacing.
const SkipIndexEvery = skipIndexEvery
