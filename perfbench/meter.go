package main

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync/atomic"
	"time"
)

// heapMeter samples the live Go heap on a fixed period and keeps the
// peak. Start it before the measured work; stop waits for the sampler
// goroutine to exit.
type heapMeter struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startHeapMeter(every time.Duration) *heapMeter {
	m := &heapMeter{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		sample := []metrics.Sample{{Name: heapObjects}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > m.peak.Load() {
				m.peak.Store(v)
			}
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

// take returns the peak heap in MB since the previous take (or the
// start) and starts a new peak.
func (m *heapMeter) take() float64 {
	return float64(m.peak.Swap(0)) / (1 << 20)
}

// finish stops the sampler and returns the peak heap in MB.
func (m *heapMeter) finish() float64 {
	close(m.stop)
	<-m.done
	return float64(m.peak.Load()) / (1 << 20)
}

// runtimeCounters is a snapshot of the Go runtime's cumulative GC and
// allocation counters; deltas between two snapshots give a phase's
// share.
type runtimeCounters struct {
	gcCycles   uint64
	pauseNs    uint64
	allocBytes uint64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeCounters{gcCycles: s[0].Value.Uint64(), pauseNs: ms.PauseTotalNs, allocBytes: s[1].Value.Uint64()}
}

// since returns the counters accumulated since base.
func (c runtimeCounters) since(base runtimeCounters) runtimeCounters {
	return runtimeCounters{
		gcCycles:   c.gcCycles - base.gcCycles,
		pauseNs:    c.pauseNs - base.pauseNs,
		allocBytes: c.allocBytes - base.allocBytes,
	}
}

// setRuntime reports the Go-runtime layer metrics for a phase.
func (r *report) setRuntime(c runtimeCounters) {
	r.set("gc.cycles", "count", float64(c.gcCycles), "")
	r.set("gc.pause_ms", "ms", float64(c.pauseNs)/1e6, "")
	r.set("alloc_mb", "MB", float64(c.allocBytes)/(1<<20), "")
}

// settle collects garbage and returns freed memory to the OS, so one
// round's heap does not distort the next.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// hostInfo is the metadata stamped on every result.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

// host describes this process; commit is what the launcher found
// (with +dirty for uncommitted changes, unknown outside git).
func host(commit string) hostInfo {
	return hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
	}
}
