package cgp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"cgp/internal/core"
	"cgp/internal/cpu"
	"cgp/internal/isa"
	"cgp/internal/obs"
	"cgp/internal/prefetch"
	"cgp/internal/program"
	"cgp/internal/sample"
	"cgp/internal/trace"
	"cgp/internal/units"
	"cgp/internal/workload"
)

// Workload re-exports the workload type for the public API.
type Workload = workload.Workload

// DBOptions re-exports database workload sizing.
type DBOptions = workload.DBOptions

// The paper's four database workloads (§4.1).
var (
	WiscProf   = workload.WiscProf
	WiscLarge1 = workload.WiscLarge1
	WiscLarge2 = workload.WiscLarge2
	WiscTPCH   = workload.WiscTPCH
)

// CPU2000 builds the named synthetic SPEC stand-in (gzip, gcc, crafty,
// parser, gap, bzip2, twolf).
func CPU2000(name string, seed int64) (*Workload, error) {
	spec, err := workload.CPU2000ByName(name)
	if err != nil {
		return nil, err
	}
	return workload.NewCPU2000(spec, seed), nil
}

// Result is everything one simulation run measured.
type Result struct {
	Workload string
	Config   string

	// CPU carries the full simulator statistics.
	CPU *cpu.Stats
	// Trace carries the trace-level statistics (instructions, calls,
	// instructions-per-call, ...).
	Trace trace.Stats
	// CGPStats is set when the configuration used CGP.
	CGPStats *core.Stats
}

// Cycles is shorthand for CPU.Cycles — the measured cycle count. For a
// sampled run this covers only the detailed spans; the whole-run
// figure is the estimate in CPU.Sample.EstCycles.
func (r *Result) Cycles() int64 { return int64(r.CPU.Cycles) }

// ICacheMisses is shorthand for CPU.ICacheMisses.
func (r *Result) ICacheMisses() int64 { return r.CPU.ICacheMisses }

// RunnerOptions configures the experiment harness.
type RunnerOptions struct {
	// DB sizes the database workloads.
	DB DBOptions
	// Seed drives the CPU2000 generators.
	Seed int64
	// Verbose enables progress lines on stderr.
	Verbose bool
	// Log receives progress lines when Verbose (defaults to a no-op).
	// It may be called from multiple goroutines concurrently.
	Log func(format string, args ...any)
	// Workers caps the number of simulations RunAll keeps in flight.
	// 0 means GOMAXPROCS; 1 forces sequential execution.
	Workers int
	// NoRecord disables trace record/replay: every Run re-executes the
	// workload (engine build, data load, query execution) instead of
	// replaying a captured event stream. Slower when several configs
	// share a (workload, layout), but holds no trace memory. Used by
	// one-shot CLI runs and by benchmarks isolating the replay layer.
	NoRecord bool
	// CheckpointDir, when set, persists each completed Result to disk
	// (atomic temp-file + rename) keyed by the config fingerprint and
	// campaign scope, and serves later runs from those files — a
	// re-run after a crash or cancellation skips finished jobs. See
	// checkpoint.go.
	CheckpointDir string
	// FailFast cancels the remainder of a RunAll campaign as soon as
	// one job fails. Completed results are still returned.
	FailFast bool
	// RetryBudget is how many times a corrupted recording may be
	// rebuilt from source before the affected jobs fail. 0 means the
	// default (2); negative disables rebuilds.
	RetryBudget int
	// RetryBackoff is the base delay between rebuild attempts,
	// doubling each retry. 0 means the default (5ms).
	RetryBackoff time.Duration
	// OnRecord, when set alongside CheckpointDir, receives every
	// settled cell's checkpoint record in wire format (the exact bytes
	// ImportRecord accepts): freshly simulated cells stream the bytes
	// just written, checkpoint-hit cells re-encode (deterministically,
	// so the bytes match the stored file). Campaign workers use it to
	// stream results to their coordinator as the shard progresses. It
	// may be called from multiple goroutines concurrently.
	OnRecord func(key string, record []byte)
	// Obs, when set, receives the campaign's observability signals:
	// harness spans (record/replay/run/checkpoint/verify), job
	// lifecycle events, progress state and metrics in both domains.
	// A nil Obs (the default) disables all of it; the hooks are
	// nil-safe, so no path checks the field more than once.
	Obs *obs.Observability
	// Attribution enables per-function prefetch attribution on every
	// simulated CPU (Stats.Attribution, the attribution table, the
	// cgptrace subreport). It is deliberately not part of Config —
	// enabling it must not change config fingerprints or run cache
	// keys — but it is part of the checkpoint scope, so attributed and
	// plain campaigns never serve each other's checkpoints.
	Attribution bool
	// Sampling, when enabled, is the sampled-simulation schedule the
	// figure generators apply to the figures in SampledFigures: those
	// figures' cells run as sampled simulations (estimated cycles ±CI)
	// instead of full detailed ones. Unlike Attribution this IS part of
	// each affected cell's Config — sampling changes the result — so
	// sampled and full campaigns never share cached results or
	// checkpoints. Jobs submitted directly through Run/RunAll are only
	// sampled if their own Config.Sampling says so.
	Sampling sample.Config
	// SampledFigures lists the figure IDs Sampling applies to. Nil
	// means DefaultSampledFigures — the cycle-comparison figures, whose
	// headline numbers are run-length estimates. Figures whose numbers
	// are prefetch-effectiveness counters (fig7, fig8, fig9) default to
	// full detail: their counters are whole-run measurements a sampled
	// run cannot provide.
	SampledFigures []string
	// CapturePath, when set, registers the "captured" workload: a
	// sealed probe-level recording of live served traffic (written by
	// cgpserve -capture, or server.LiveCapture.Seal). The capture
	// replays through per-session tracers over whatever layout a
	// config asks for, so real traffic runs through the same grids as
	// the synthetic workloads. See CapturedWorkload.
	CapturePath string
	// CaptureSeed seeds the capture replay tracers (0 means 42). Part
	// of the replay's determinism contract: same capture, same seed,
	// same synthesized stream.
	CaptureSeed int64
}

// DefaultSampledFigures is the figure set RunnerOptions.Sampling
// applies to when SampledFigures is nil: every figure whose reported
// quantity is total cycles (well-estimated from windows), none whose
// quantity is a whole-run prefetch breakdown.
func DefaultSampledFigures() []string {
	return []string{"fig4", "fig5", "fig6", "fig10", "sec5.6",
		"abl-ways", "abl-slots", "abl-policy", "abl-swcgp", "abl-degree"}
}

// samplingFor resolves the sampling schedule for one figure: the
// campaign schedule when the figure is in the sampled set, the zero
// (full detail) config otherwise.
func (o *RunnerOptions) samplingFor(figID string) sample.Config {
	if !o.Sampling.Enabled() {
		return sample.Config{}
	}
	figs := o.SampledFigures
	if figs == nil {
		figs = DefaultSampledFigures()
	}
	for _, id := range figs {
		if id == figID {
			return o.Sampling
		}
	}
	return sample.Config{}
}

// retryBudget resolves the RetryBudget default.
func (o *RunnerOptions) retryBudget() int {
	if o.RetryBudget == 0 {
		return 2
	}
	if o.RetryBudget < 0 {
		return 0
	}
	return o.RetryBudget
}

// runnerHooks are fault-injection points used by the chaos tests (see
// robustness_test.go); the zero value is inert and production code
// never sets them.
type runnerHooks struct {
	// afterRecord runs on each freshly sealed recording — chaos tests
	// corrupt bytes here.
	afterRecord func(w *Workload, layout Layout, rec *trace.Recording)
	// wrapConsumer may wrap a cell's CPU consumer — chaos tests inject
	// panics and forced cancellations here.
	wrapConsumer func(w *Workload, cfg Config, c trace.Consumer) trace.Consumer
}

// profiles bundles the two feedback artifacts a profile run produces:
// edge weights (for the OM layout) and modal call sequences (for the
// software-CGP variant).
type profiles struct {
	edges *program.Profile
	seq   *trace.SequenceProfile
}

// Runner executes (workload, config) pairs, caching profiles, laid-out
// images, recorded traces and run results so the figure generators can
// share work.
//
// All methods are safe for concurrent use. Every cacheable unit of
// work is memoized singleflight-style: the first goroutine to request
// a key performs the work while later requesters block and share the
// result, so concurrent figure generators never record the same trace
// or collect the same profile twice. Transient failures (cancellation,
// recording corruption) evict their entry so a later call can retry;
// successes and deterministic failures stay cached.
type Runner struct {
	opts RunnerOptions
	// sem bounds the number of concurrently executing simulations
	// across every RunAll call sharing this runner.
	sem chan struct{}

	hooks runnerHooks

	mu      sync.Mutex
	flights map[string]*flight
	hubs    map[string]*replayHub
}

// flight memoizes one unit of keyed work (a run, a trace recording, an
// image layout or a profile collection). Completed flights double as
// the result cache. Resolution is idempotent (first write wins), so
// the batch-level panic guard can sweep a failed batch without
// tracking which cells already resolved.
type flight struct {
	once sync.Once
	done chan struct{}
	val  any
	err  error
}

// Cache-key namespaces. The work graph is acyclic: runs depend on
// recordings, recordings on images, OM images on profiles, profiles on
// O5 recordings — so nested once() calls cannot deadlock.
const dbProfilesKey = "prof|db"

func runKey(w *Workload, cfg Config) string { return "run|" + w.Name + "|" + cfg.fingerprint() }
func recKey(w *Workload, l Layout) string   { return fmt.Sprintf("rec|%s|%d", w.Name, l) }
func imgKey(w *Workload, l Layout) string   { return fmt.Sprintf("img|%s|%d", w.Name, l) }
func srcProfKey(w *Workload) string         { return "prof|src|" + w.Name }

// NewRunner builds a harness.
func NewRunner(opts RunnerOptions) *Runner {
	if opts.Seed == 0 {
		opts.Seed = 42
	}
	if opts.Log == nil {
		opts.Log = func(string, ...any) {}
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.RetryBackoff == 0 {
		opts.RetryBackoff = 5 * time.Millisecond
	}
	return &Runner{
		opts:    opts,
		sem:     make(chan struct{}, opts.Workers),
		flights: make(map[string]*flight),
		hubs:    make(map[string]*replayHub),
	}
}

// claim returns the flight for key and whether the caller became its
// owner. An owner must resolve the flight exactly once; everyone else
// waits on it.
func (r *Runner) claim(key string) (*flight, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.flights[key]; ok {
		return f, false
	}
	f := &flight{done: make(chan struct{})}
	r.flights[key] = f
	return f, true
}

// evict drops key's entry if it still holds f, so a later claim can
// retry the work. Used for transient failures only: cached successes
// are determinism-relevant and must never be recomputed.
func (r *Runner) evict(key string, f *flight) {
	r.mu.Lock()
	if r.flights[key] == f {
		delete(r.flights, key)
	}
	r.mu.Unlock()
}

func (f *flight) resolve(val any, err error) {
	f.once.Do(func() {
		f.val, f.err = val, err
		close(f.done)
	})
}

// wait blocks until the flight resolves or ctx is done. Abandoning a
// wait does not cancel the computation — the owner may be serving
// other campaigns.
func (f *flight) wait(ctx context.Context) (any, error) {
	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// once returns the memoized result of the work keyed by key, computing
// it via fn on first use. Concurrent requests for the same key share
// one computation (and its error, if any). A panicking fn resolves the
// flight with a *JobError instead of deadlocking its waiters; a
// transient failure evicts the entry so a later call retries.
func (r *Runner) once(ctx context.Context, key string, fn func(context.Context) (any, error)) (any, error) {
	f, owner := r.claim(key)
	if owner {
		f.resolve(guarded(ctx, fn))
		if isTransient(f.err) {
			r.evict(key, f)
		}
	}
	return f.wait(ctx)
}

// seed installs a precomputed value for key (used to share profiles
// with sub-runners); it is a no-op if the key is already present.
func (r *Runner) seed(key string, val any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.flights[key]; ok {
		return
	}
	f := &flight{done: make(chan struct{}), val: val}
	close(f.done)
	r.flights[key] = f
}

// obsSpan starts a harness span (nil-safe; a nil Obs yields a nil
// span whose End is a no-op).
func (r *Runner) obsSpan(name, cat string) *obs.Span {
	return r.opts.Obs.Span(name, cat)
}

// obsJob emits one job lifecycle event to the run log and progress
// tracker (nil-safe).
func (r *Runner) obsJob(state obs.JobState, workload, config, detail string) {
	r.opts.Obs.Job(state, workload, config, detail)
}

// obsWall returns the wall-clock registry, nil when disabled.
func (r *Runner) obsWall() *obs.WallRegistry {
	if r.opts.Obs == nil {
		return nil
	}
	return r.opts.Obs.Wall
}

// noteResult folds one completed cell's simulated totals into the
// deterministic-domain registry. The values come only from the Result,
// so they are identical whether the cell was freshly simulated,
// replayed, or resumed from a checkpoint — a campaign's deterministic
// metrics depend on which cells it needed, never on how they were
// satisfied.
func (r *Runner) noteResult(res *Result) {
	if r.opts.Obs == nil {
		return
	}
	det := r.opts.Obs.Det
	if det == nil {
		return
	}
	det.Counter("sim_jobs").Add(1)
	det.Counter("sim_cycles").Add(int64(res.CPU.Cycles))
	det.Counter("sim_instructions").Add(int64(res.CPU.Instructions))
	det.Counter("sim_icache_misses").Add(res.CPU.ICacheMisses)
	// Event accounting by simulation tier: a full-detail cell's whole
	// stream is detailed; a sampled cell splits it across the three
	// tiers. All of it is Result-derived, so the counters stay identical
	// across fresh, replayed and checkpoint-resumed cells.
	if sm := res.CPU.Sample; sm != nil {
		det.Counter("sim_jobs_sampled").Add(1)
		det.Counter("sim_events_skipped").Add(sm.SkippedEvents)
		det.Counter("sim_events_fastforwarded").Add(sm.FastForwardedEvents)
		det.Counter("sim_events_detailed").Add(sm.DetailedEvents())
		det.Counter("sim_sample_windows").Add(int64(sm.Windows))
	} else {
		det.Counter("sim_events_detailed").Add(res.Trace.Events)
	}
	tp := res.CPU.TotalPrefetch()
	det.Counter("sim_prefetch_issued").Add(tp.Issued)
	det.Counter("sim_prefetch_useful").Add(tp.Useful())
	for _, p := range prefetch.Portions() {
		ps := res.CPU.PortionStats(p)
		det.Counter("sim_prefetch_issued_" + p.String()).Add(ps.Issued)
		det.Counter("sim_prefetch_useful_" + p.String()).Add(ps.Useful())
	}
}

// DBWorkloads returns the paper's four database workloads at the
// runner's scale.
func (r *Runner) DBWorkloads() []*Workload {
	return workload.DBWorkloads(r.opts.DB)
}

// CPU2000Workloads returns the seven Figure-10 programs.
func (r *Runner) CPU2000Workloads() []*Workload {
	return workload.CPU2000Workloads(r.opts.Seed)
}

// capturedKey memoizes the capture file load.
const capturedKey = "wl|captured"

// CapturedWorkload loads RunnerOptions.CapturePath as the "captured"
// workload. The load (file read, CRC verification) is memoized like
// every other cacheable unit, so campaign workers resolving the name
// repeatedly share one recording in memory.
func (r *Runner) CapturedWorkload() (*Workload, error) {
	if r.opts.CapturePath == "" {
		return nil, fmt.Errorf("cgp: no capture configured (RunnerOptions.CapturePath)")
	}
	f, owner := r.claim(capturedKey)
	if owner {
		w, err := workload.CapturedFromFile(r.opts.CapturePath, r.opts.CaptureSeed)
		if err != nil {
			f.resolve(nil, fmt.Errorf("cgp: loading capture %s: %w", r.opts.CapturePath, err))
		} else {
			f.resolve(w, nil)
		}
	}
	<-f.done
	if f.err != nil {
		return nil, f.err
	}
	return f.val.(*Workload), nil
}

// profileSources lists the workloads whose O5 runs make up w's
// profile: database workloads share one profile, merged from the
// wisc-prof and wisc+tpch runs exactly as §5.1 describes; each other
// workload profiles itself (the paper uses the SPEC "test" input).
func (r *Runner) profileSources(w *Workload) []*Workload {
	if w.Family == "db" {
		return []*Workload{workload.WiscProf(r.opts.DB), workload.WiscTPCH(r.opts.DB)}
	}
	return []*Workload{w}
}

// isProfileSource reports whether w's own O5 run feeds a profile.
func (r *Runner) isProfileSource(w *Workload) bool {
	for _, s := range r.profileSources(w) {
		if s.Name == w.Name {
			return true
		}
	}
	return false
}

// profilesFor returns (collecting on first use) the feedback artifacts
// w's profile sources produce.
func (r *Runner) profilesFor(ctx context.Context, w *Workload) (*profiles, error) {
	if w.Family != "db" {
		return r.sourceProfile(ctx, w)
	}
	v, err := r.once(ctx, dbProfilesKey, func(ctx context.Context) (any, error) {
		r.opts.Log("collecting DB profile (wisc-prof + wisc+tpch)")
		merged := &profiles{edges: program.NewProfile(), seq: trace.NewSequenceProfile(0)}
		for _, pw := range r.profileSources(w) {
			p, err := r.sourceProfile(ctx, pw)
			if err != nil {
				return nil, fmt.Errorf("profile run %s: %w", pw.Name, err)
			}
			merged.edges.Merge(p.edges)
			mergeSequences(merged.seq, p.seq)
		}
		return merged, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*profiles), nil
}

// profileFor returns just the edge-weight profile (OM layout input).
func (r *Runner) profileFor(ctx context.Context, w *Workload) (*program.Profile, error) {
	p, err := r.profilesFor(ctx, w)
	if err != nil {
		return nil, err
	}
	return p.edges, nil
}

// sourceProfile returns the profile of one source's O5 run. With
// recording on, the source's O5 recording pass collects it (see
// recorded), so a workload that is both profiled and simulated on O5
// executes exactly once and is never decoded for its profile; under
// NoRecord the source runs once into the collectors alone. The profile
// is memoized on its own key, so it comes from the synthesized stream
// and survives any later corruption or rebuild of the recording.
func (r *Runner) sourceProfile(ctx context.Context, w *Workload) (*profiles, error) {
	v, err := r.once(ctx, srcProfKey(w), func(ctx context.Context) (any, error) {
		if r.opts.NoRecord {
			r.opts.Log("collecting profile for %s", w.Name)
			img, err := r.imageFor(ctx, w, LayoutO5)
			if err != nil {
				return nil, err
			}
			return r.execute(ctx, w, img, nil, true)
		}
		rd, err := r.recorded(ctx, w, LayoutO5)
		if err != nil {
			return nil, err
		}
		return rd.prof, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*profiles), nil
}

// execute runs w once over img into sink (nil for none). With profile
// set, the profile collectors are teed into the same pass and their
// artifacts returned. It is the one place a workload executes: the
// recording pass, a NoRecord simulation and a NoRecord profile run all
// go through it.
func (r *Runner) execute(ctx context.Context, w *Workload, img *program.Image, sink trace.Consumer, profile bool) (*profiles, error) {
	if !profile {
		return nil, runWorkload(ctx, w, img, sink)
	}
	t := &profileTee{sink: sink, pc: trace.NewProfileCollector(), sc: trace.NewSequenceCollector(0)}
	if err := runWorkload(ctx, w, img, t); err != nil {
		return nil, err
	}
	return &profiles{edges: t.pc.Profile, seq: t.sc.Profile}, nil
}

// profileTee is trace.Tee(sink, pc, sc) (sink may be nil) with the
// collectors called statically: at one call per synthesized event,
// Tee's per-consumer interface dispatch costs about as much as the
// collectors' own work.
type profileTee struct {
	sink trace.Consumer
	pc   *trace.ProfileCollector
	sc   *trace.SequenceCollector
}

// Event implements trace.Consumer.
func (t *profileTee) Event(ev trace.Event) {
	if t.sink != nil {
		t.sink.Event(ev)
	}
	t.pc.Event(ev)
	t.sc.Event(ev)
}

// mergeSequences folds src's recorded call positions into dst.
func mergeSequences(dst, src *trace.SequenceProfile) {
	for _, fn := range src.Functions() {
		for slot, callee := range src.Sequence(fn) {
			dst.Record(fn, slot, callee)
		}
	}
}

// imageFor lays out w's registry once per layout. Registries are
// deterministic and images are immutable after layout, so every
// consumer of a (workload, layout) pair shares one image.
func (r *Runner) imageFor(ctx context.Context, w *Workload, layout Layout) (*program.Image, error) {
	v, err := r.once(ctx, imgKey(w, layout), func(ctx context.Context) (any, error) {
		reg := w.NewRegistry()
		switch layout {
		case LayoutO5:
			return program.LayoutO5(reg), nil
		case LayoutOM:
			prof, err := r.profileFor(ctx, w)
			if err != nil {
				return nil, err
			}
			return program.LayoutOM(reg, prof), nil
		default:
			return nil, fmt.Errorf("cgp: unknown layout %d", layout)
		}
	})
	if err != nil {
		return nil, err
	}
	return v.(*program.Image), nil
}

// recorded is one sealed recording plus, when its workload is a
// profile source recorded on O5, the profile collected from the same
// pass.
type recorded struct {
	rec  *trace.Recording
	prof *profiles
}

// recorded captures w's event stream on the given layout once and
// memoizes the sealed recording. The stream for a (workload, layout)
// pair is deterministic and independent of the CPU configuration, so
// every config replays the same buffer instead of re-executing the
// workload. The recording lives for the life of the Runner (unless
// evicted after corruption); its encoded size is reported through Log.
// A profile source's O5 pass also feeds the profile collectors.
func (r *Runner) recorded(ctx context.Context, w *Workload, layout Layout) (*recorded, error) {
	v, err := r.once(ctx, recKey(w, layout), func(ctx context.Context) (any, error) {
		img, err := r.imageFor(ctx, w, layout)
		if err != nil {
			return nil, err
		}
		rec := trace.NewRecorder()
		r.opts.Log("record %-12s %s", w.Name, layout)
		sp := r.obsSpan("record", "record").
			Arg("workload", w.Name).Arg("layout", layout.String())
		prof, err := r.execute(ctx, w, img, rec, layout == LayoutO5 && r.isProfileSource(w))
		if err != nil {
			sp.End()
			return nil, fmt.Errorf("cgp: record %s under %s: %w", w.Name, layout, err)
		}
		rg, err := rec.Finish()
		sp.End()
		if err != nil {
			return nil, err
		}
		if r.hooks.afterRecord != nil {
			r.hooks.afterRecord(w, layout, rg)
		}
		r.opts.Log("recorded %s/%s: %d events, %.1f MiB",
			w.Name, layout, rg.Events(), float64(rg.Bytes())/(1<<20))
		return &recorded{rec: rg, prof: prof}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*recorded), nil
}

// recordingFor returns the memoized recording of w on layout.
func (r *Runner) recordingFor(ctx context.Context, w *Workload, layout Layout) (*trace.Recording, error) {
	rd, err := r.recorded(ctx, w, layout)
	if err != nil {
		return nil, err
	}
	return rd.rec, nil
}

// evictRecordingIf drops the cached recording for (w, layout) if it
// still is rec — the one observed corrupt. The identity check keeps a
// concurrent rebuild's fresh recording from being evicted by a racer
// still failing on the old one.
func (r *Runner) evictRecordingIf(w *Workload, layout Layout, rec *trace.Recording) {
	key := recKey(w, layout)
	r.mu.Lock()
	if f, ok := r.flights[key]; ok {
		if rd, _ := f.val.(*recorded); rd != nil && rd.rec == rec {
			delete(r.flights, key)
		}
	}
	r.mu.Unlock()
}

// replayRetry runs attempt, which replays the (w, layout) recording it
// obtains from recordingFor and returns it alongside any error. On a
// *CorruptionError the recording is evicted and rebuilt from source —
// the workload re-executes — under an exponential backoff, up to
// RetryBudget rebuilds. Other errors (including cancellation) return
// immediately.
func (r *Runner) replayRetry(ctx context.Context, w *Workload, layout Layout, attempt func(context.Context) (*trace.Recording, error)) error {
	budget := r.opts.retryBudget()
	for try := 0; ; try++ {
		rec, err := attempt(ctx)
		var ce *trace.CorruptionError
		if err == nil || !errors.As(err, &ce) || ctx.Err() != nil {
			return err
		}
		if try >= budget {
			return fmt.Errorf("cgp: %s/%s: retry budget exhausted after %d rebuilds: %w",
				w.Name, layout, try, err)
		}
		r.opts.Log("corrupt recording %s/%s: %v; rebuilding from source (retry %d/%d)",
			w.Name, layout, err, try+1, budget)
		r.obsWall().Incr("trace_rebuilds", 1)
		if rec != nil {
			r.evictRecordingIf(w, layout, rec)
		}
		sp := r.obsSpan("backoff", "retry").
			Arg("workload", w.Name).Arg("try", fmt.Sprint(try+1))
		sleepCtx(ctx, r.opts.RetryBackoff<<try)
		sp.End()
	}
}

// Run simulates one workload under one configuration. Results are
// cached by (workload, config fingerprint); concurrent calls for the
// same pair share one simulation. The context cancels the work: a
// canceled run fails with ctx's error and is not cached.
func (r *Runner) Run(ctx context.Context, w *Workload, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	v, err := r.once(ctx, runKey(w, cfg), func(ctx context.Context) (any, error) {
		return r.runCell(ctx, w, cfg)
	})
	if err != nil {
		return nil, err
	}
	return v.(*Result), nil
}

// runCell is the uncached unit behind Run: serve the checkpoint if one
// exists, otherwise simulate and checkpoint the result.
func (r *Runner) runCell(ctx context.Context, w *Workload, cfg Config) (*Result, error) {
	if res, ok := r.loadCheckpoint(w, cfg); ok {
		r.opts.Log("checkpoint %-12s %-14s", w.Name, cfg.Label())
		r.obsWall().Incr("checkpoint_hits", 1)
		r.obsJob(obs.JobResumed, w.Name, cfg.Label(), "checkpoint")
		r.noteResult(res)
		r.emitRecord(w, cfg, res, nil)
		return res, nil
	}
	r.obsJob(obs.JobStarted, w.Name, cfg.Label(), "")
	res, err := r.simulate(ctx, w, cfg)
	if err != nil {
		return nil, err
	}
	r.storeCheckpoint(w, cfg, res)
	r.obsJob(obs.JobExecuted, w.Name, cfg.Label(), "")
	r.noteResult(res)
	return res, nil
}

// prepared is one configured simulation waiting for an event stream.
type prepared struct {
	c   *cpu.CPU
	gp  *core.CGP
	res *Result
}

// prepare builds the prefetcher and CPU for one (workload, config)
// cell.
func (r *Runner) prepare(ctx context.Context, w *Workload, cfg Config) (*prepared, error) {
	pf, gp := cfg.buildPrefetcher()
	if cfg.Prefetcher == PrefSoftwareCGP && !cfg.PerfectICache {
		// The software variant needs the profiled call sequences bound
		// to this image's addresses.
		prof, err := r.profilesFor(ctx, w)
		if err != nil {
			return nil, err
		}
		img, err := r.imageFor(ctx, w, cfg.Layout)
		if err != nil {
			return nil, err
		}
		pf = buildSoftwareCGP(cfg, prof.seq, img)
	}
	c := cpu.New(cfg.cpuConfig(), pf)
	if r.opts.Attribution {
		c.EnableAttribution()
	}
	return &prepared{
		c:   c,
		gp:  gp,
		res: &Result{Workload: w.Name, Config: cfg.Label()},
	}, nil
}

// consumerFor applies the fault-injection hook, when set, to a cell's
// CPU consumer.
func (r *Runner) consumerFor(w *Workload, cfg Config, c trace.Consumer) trace.Consumer {
	if r.hooks.wrapConsumer != nil {
		return r.hooks.wrapConsumer(w, cfg, c)
	}
	return c
}

// finalize seals the simulation's statistics into its Result.
func (p *prepared) finalize() *Result {
	p.res.CPU = p.c.Finish()
	if p.gp != nil {
		s := p.gp.Stats()
		p.res.CGPStats = &s
	}
	return p.res
}

// replayOne replays rec into a single consumer with a context poll per
// batch, so cancellation takes effect within replayBatch events.
func replayOne(ctx context.Context, rec *trace.Recording, c trace.Consumer) error {
	bc, batched := c.(trace.BatchConsumer)
	return rec.ReplayBatch(func(evs []trace.Event) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if batched {
			bc.EventBatch(evs)
		} else {
			for i := range evs {
				c.Event(evs[i])
			}
		}
		return nil
	})
}

// replaySampledOne drives rec's sampled replay into one cell: span
// boundaries and skip spans go to the CPU's sampling hooks, decoded
// events go through the (possibly hook-wrapped) consumer, and both
// decoded and skip paths poll ctx so cancellation takes effect within
// replayBatch events even across long skips.
func replaySampledOne(ctx context.Context, rec *trace.Recording, plan []trace.Span, c *cpu.CPU, wrapped trace.Consumer) error {
	bc, batched := wrapped.(trace.BatchConsumer)
	return rec.ReplaySampled(plan,
		func(kind trace.SpanKind) error {
			c.BeginSpan(kind)
			return nil
		},
		func(evs []trace.Event) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			if batched {
				bc.EventBatch(evs)
			} else {
				for i := range evs {
					wrapped.Event(evs[i])
				}
			}
			return nil
		},
		func(events int64, instrs units.Instrs) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			c.SkipSpan(events, instrs)
			return nil
		})
}

// simulateSampled performs one uncached sampled simulation. Sampling
// is replay-only — skipping events without decoding needs a sealed
// recording's skip index — so this path records the workload even
// under NoRecord; the recording is then memoized like any other.
func (r *Runner) simulateSampled(ctx context.Context, w *Workload, cfg Config) (*Result, error) {
	var res *Result
	err := r.replayRetry(ctx, w, cfg.Layout, func(ctx context.Context) (*trace.Recording, error) {
		rec, err := r.recordingFor(ctx, w, cfg.Layout)
		if err != nil {
			return nil, err
		}
		p, err := r.prepare(ctx, w, cfg)
		if err != nil {
			return rec, err
		}
		p.c.EnableSampling()
		plan := cfg.Sampling.Plan(rec.Events())
		r.opts.Log("run %-12s %-14s (sampled %s)", w.Name, cfg.Label(), cfg.Sampling)
		sp := r.obsSpan("run", "run").
			Arg("workload", w.Name).Arg("config", cfg.Label()).
			Arg("sampling", cfg.Sampling.String())
		err = replaySampledOne(ctx, rec, plan, p.c, r.consumerFor(w, cfg, p.c))
		sp.End()
		if err != nil {
			return rec, fmt.Errorf("cgp: sampled replay %s under %s: %w", w.Name, cfg.Label(), err)
		}
		p.res.Trace = rec.Stats
		res = p.finalize()
		return rec, nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// simulate performs one uncached simulation: build the prefetcher and
// CPU for cfg, then feed them w's event stream — replayed from the
// shared recording, or re-executed when NoRecord is set. A corrupt
// recording is rebuilt from source under the retry budget. Cells with
// sampling enabled take the sampled replay path.
func (r *Runner) simulate(ctx context.Context, w *Workload, cfg Config) (*Result, error) {
	if cfg.Sampling.Enabled() {
		return r.simulateSampled(ctx, w, cfg)
	}
	if r.opts.NoRecord {
		p, err := r.prepare(ctx, w, cfg)
		if err != nil {
			return nil, err
		}
		r.opts.Log("run %-12s %-14s", w.Name, cfg.Label())
		img, err := r.imageFor(ctx, w, cfg.Layout)
		if err != nil {
			return nil, err
		}
		c := r.consumerFor(w, cfg, p.c)
		sp := r.obsSpan("run", "run").
			Arg("workload", w.Name).Arg("config", cfg.Label())
		_, err = r.execute(ctx, w, img, trace.Tee(&p.res.Trace, c), false)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("cgp: %s under %s: %w", w.Name, cfg.Label(), err)
		}
		return p.finalize(), nil
	}
	var res *Result
	err := r.replayRetry(ctx, w, cfg.Layout, func(ctx context.Context) (*trace.Recording, error) {
		rec, err := r.recordingFor(ctx, w, cfg.Layout)
		if err != nil {
			return nil, err
		}
		p, err := r.prepare(ctx, w, cfg)
		if err != nil {
			return rec, err
		}
		r.opts.Log("run %-12s %-14s", w.Name, cfg.Label())
		sp := r.obsSpan("run", "run").
			Arg("workload", w.Name).Arg("config", cfg.Label())
		err = replayOne(ctx, rec, r.consumerFor(w, cfg, p.c))
		sp.End()
		if err != nil {
			return rec, fmt.Errorf("cgp: replay %s under %s: %w", w.Name, cfg.Label(), err)
		}
		// The recorded stats are what a Tee'd Stats consumer would have
		// counted; copying avoids recounting per replay.
		p.res.Trace = rec.Stats
		res = p.finalize()
		return rec, nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Job names one (workload, config) simulation for RunAll.
type Job struct {
	Workload *Workload
	Config   Config
}

// RunAll executes jobs with up to Workers batches in flight and
// returns results in input order regardless of completion order.
// Duplicate jobs — and cells shared with earlier figures — are
// deduplicated through the result cache, so overlapping grids never
// repeat a simulation.
//
// RunAll degrades gracefully rather than all-or-nothing: a failed or
// canceled job leaves a nil slot in the returned slice, and the error
// is a *CampaignError carrying one input-ordered *JobError per failed
// job (panic, cancellation, corruption past the retry budget, ...).
// Every other slot still holds its completed Result. A panicking
// simulation fails only its own job. With FailFast set, the first
// failure cancels the jobs that have not finished yet.
//
// In replay mode, jobs sharing a (workload, layout) recording are
// batched: their configured CPUs consume a single decode pass over the
// recording, so the decode cost is paid once per batch instead of once
// per config. Batching only changes scheduling — every consumer still
// sees the full event stream in order, so results are identical to
// running each job alone.
func (r *Runner) RunAll(ctx context.Context, jobs []Job) ([]*Result, error) {
	results := make([]*Result, len(jobs))
	errs := make([]error, len(jobs))
	for _, j := range jobs {
		r.obsJob(obs.JobQueued, j.Workload.Name, j.Config.withDefaults().Label(), "")
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// fail trips the campaign breaker on the first failure in FailFast
	// mode; jobs already running stop at their next cancellation poll.
	fail := func(err error) {
		if err != nil && r.opts.FailFast {
			cancel()
		}
	}
	var wg sync.WaitGroup
	if r.opts.NoRecord {
		for i := range jobs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// The semaphore is acquired before Run, never inside it,
				// so a singleflight leader always already owns a slot (or
				// needs none) and followers cannot starve it.
				select {
				case r.sem <- struct{}{}:
				case <-ctx.Done():
					errs[i] = ctx.Err()
					return
				}
				defer func() { <-r.sem }()
				results[i], errs[i] = r.Run(ctx, jobs[i].Workload, jobs[i].Config)
				fail(errs[i])
			}(i)
		}
		wg.Wait()
	} else {
		for _, g := range groupJobs(jobs) {
			wg.Add(1)
			// runGroup acquires a worker slot itself, only around the
			// drain phase: claiming and waiting hold no slot.
			go func(g *jobGroup) {
				defer wg.Done()
				r.runGroup(ctx, g, results, errs, fail)
			}(g)
		}
		wg.Wait()
	}
	var failed []*JobError
	for i, err := range errs {
		if err != nil {
			results[i] = nil
			r.obsJob(obs.JobFailed, jobs[i].Workload.Name,
				jobs[i].Config.withDefaults().Label(), err.Error())
			failed = append(failed, jobError(jobs[i], i, err))
		}
	}
	if len(failed) == 0 {
		return results, nil
	}
	return results, &CampaignError{Jobs: failed}
}

// jobGroup collects the jobs of one RunAll call that replay the same
// (workload, layout) recording.
type jobGroup struct {
	w      *Workload
	hubKey string
	keys   []string          // unique run cache keys, input order
	cfgs   map[string]Config // run key -> config (defaults applied)
	idx    map[string][]int  // run key -> job indices
}

func groupJobs(jobs []Job) []*jobGroup {
	order := []*jobGroup{}
	groups := map[string]*jobGroup{}
	for i, j := range jobs {
		cfg := j.Config.withDefaults()
		gk := recKey(j.Workload, cfg.Layout)
		g := groups[gk]
		if g == nil {
			g = &jobGroup{w: j.Workload, hubKey: gk, cfgs: map[string]Config{}, idx: map[string][]int{}}
			groups[gk] = g
			order = append(order, g)
		}
		rk := runKey(j.Workload, cfg)
		if _, ok := g.cfgs[rk]; !ok {
			g.keys = append(g.keys, rk)
			g.cfgs[rk] = cfg
		}
		g.idx[rk] = append(g.idx[rk], i)
	}
	return order
}

// replayHub coalesces claimed cells that consume one recording. Group
// tasks enqueue their cells before taking a worker slot, so whichever
// task drains first serves every pending cell of the recording in one
// wide replay pass — concurrent figure generators' grids merge into a
// few decode passes instead of one per figure. Coalescing only affects
// scheduling: each cell's CPU always consumes the full event stream,
// so results are identical however cells are batched.
type replayHub struct {
	mu      sync.Mutex
	active  bool
	pending []hubCell
}

// hubCell is one claimed, unsimulated cell: its config, its run cache
// key (for transient eviction) and the flight the drainer must
// resolve.
type hubCell struct {
	cfg Config
	key string
	f   *flight
}

func (r *Runner) hubFor(key string) *replayHub {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hubs[key]
	if h == nil {
		h = &replayHub{}
		r.hubs[key] = h
	}
	return h
}

// withdraw removes from the pending queue every cell whose flight is
// in set, invoking fail for each. Cells a drainer already grabbed are
// left to that drainer.
func (h *replayHub) withdraw(set []hubCell, fail func(hubCell)) {
	if len(set) == 0 {
		return
	}
	member := make(map[*flight]bool, len(set))
	for _, c := range set {
		member[c.f] = true
	}
	var taken []hubCell
	h.mu.Lock()
	kept := h.pending[:0]
	for _, c := range h.pending {
		if member[c.f] {
			taken = append(taken, c)
		} else {
			kept = append(kept, c)
		}
	}
	h.pending = kept
	h.mu.Unlock()
	for _, c := range taken {
		fail(c)
	}
}

// resolveCell resolves one hub cell, evicting its flight when the
// failure is transient so a later campaign can retry the key.
func (r *Runner) resolveCell(c hubCell, res *Result, err error) {
	if err != nil {
		c.f.resolve(nil, err)
		if isTransient(err) {
			r.evict(c.key, c.f)
		}
		return
	}
	c.f.resolve(res, nil)
}

// runGroup claims the group's uncomputed cells, enqueues them on the
// recording's hub, competes to drain it, then collects results
// (including cells another goroutine computed) into the RunAll output
// slots. Claiming and enqueueing happen before the worker slot is
// acquired — they do no simulation work — so even a single-worker pool
// sees every concurrent figure's cells before the first drain begins.
func (r *Runner) runGroup(ctx context.Context, g *jobGroup, results []*Result, errs []error, fail func(error)) {
	type cellRef struct {
		key   string
		f     *flight
		owner bool
	}
	cells := make([]cellRef, 0, len(g.keys))
	var enq []hubCell
	for _, rk := range g.keys {
		f, owner := r.claim(rk)
		cells = append(cells, cellRef{rk, f, owner})
		if owner {
			enq = append(enq, hubCell{g.cfgs[rk], rk, f})
		}
	}
	h := r.hubFor(g.hubKey)
	if len(enq) > 0 {
		h.mu.Lock()
		h.pending = append(h.pending, enq...)
		h.mu.Unlock()
	}
	select {
	case r.sem <- struct{}{}:
		r.pump(ctx, g.w, h)
		<-r.sem //cgplint:ignore ctxflow held worker token guarantees a free slot, the release cannot block
	case <-ctx.Done():
		// Canceled before a worker slot freed up. Withdraw our still-
		// pending cells so their flights don't dangle unresolved; cells
		// an active drainer already took will be resolved by it.
		h.withdraw(enq, func(c hubCell) { r.resolveCell(c, nil, ctx.Err()) })
	}
	for _, c := range cells {
		v, err := c.f.wait(ctx)
		if err != nil && isCancellation(err) && ctx.Err() == nil {
			// The cell was aborted by another campaign's cancellation
			// (hubs are shared across concurrent RunAll calls). The
			// entry was evicted as transient, so recompute it under
			// this campaign's live context.
			select {
			case r.sem <- struct{}{}:
				res, rerr := r.Run(ctx, g.w, g.cfgs[c.key])
				<-r.sem //cgplint:ignore ctxflow held worker token guarantees a free slot, the release cannot block
				if rerr != nil {
					v, err = nil, rerr
				} else {
					v, err = res, nil
				}
			case <-ctx.Done():
				v, err = nil, ctx.Err()
			}
		}
		if err == nil && !c.owner {
			// The cell was claimed by another campaign or group task and
			// served to this one through the singleflight cache.
			r.obsJob(obs.JobReplayed, g.w.Name, g.cfgs[c.key].Label(), "coalesced")
		}
		for _, i := range g.idx[c.key] {
			if err != nil {
				errs[i] = err
			} else {
				results[i] = v.(*Result)
			}
		}
		fail(err)
	}
}

// pump drains h: while cells are pending and no other drainer is
// active, grab them all and simulate them in one shared replay pass.
// Cells enqueued during a pass are picked up by the next loop
// iteration; if another drainer is active it will do the same, so
// every enqueued cell is eventually simulated.
func (r *Runner) pump(ctx context.Context, w *Workload, h *replayHub) {
	for {
		h.mu.Lock()
		if h.active || len(h.pending) == 0 {
			h.mu.Unlock()
			return
		}
		batch := h.pending
		h.pending = nil
		h.active = true
		h.mu.Unlock()
		r.runBatchGuarded(ctx, w, batch)
		h.mu.Lock()
		h.active = false
		h.mu.Unlock()
	}
}

// runBatchGuarded is runBatch behind a panic guard: a panic escaping
// the batch machinery itself (not a consumer — those are recovered
// per-cell) fails the whole batch as JobErrors instead of killing the
// drainer goroutine and deadlocking every waiter. Resolution is
// idempotent, so cells runBatch already resolved keep their results.
func (r *Runner) runBatchGuarded(ctx context.Context, w *Workload, batch []hubCell) {
	defer func() {
		if p := recover(); p != nil {
			je := &JobError{Workload: w.Name, Index: -1, Panic: p, Stack: debug.Stack()}
			for _, c := range batch {
				r.resolveCell(c, nil, je)
			}
		}
	}()
	r.runBatch(ctx, w, batch)
}

// batchCell pairs one hub cell with its configured simulation and
// per-consumer failure state during a shared replay pass.
type batchCell struct {
	cell hubCell
	sim  *prepared
	c    trace.Consumer      // possibly hook-wrapped
	bc   trace.BatchConsumer // batch fast path when supported
	err  *JobError           // set once the consumer panicked; no more events
}

// deliver hands one decoded batch to the cell's consumer, converting a
// panic into the cell's JobError. Only this cell stops consuming — the
// hub keeps serving its batch mates.
func (b *batchCell) deliver(evs []trace.Event) {
	defer func() {
		if p := recover(); p != nil {
			b.err = &JobError{Index: -1, Panic: p, Stack: debug.Stack()}
		}
	}()
	if b.bc != nil {
		b.bc.EventBatch(evs)
	} else {
		for i := range evs {
			b.c.Event(evs[i])
		}
	}
}

// errNoLiveCells aborts a shared replay pass whose consumers have all
// panicked: decoding the rest of the stream would feed no one.
var errNoLiveCells = errors.New("cgp: every consumer of the replay pass failed")

// fanout performs one shared decode pass over rec, dispatching each
// batch to every live cell with a context poll per batch. A panic in
// one cell marks only that cell failed; the stream keeps flowing to
// the others. The returned error is stream-level (corruption,
// cancellation) — per-cell panics are reported in each cell's err.
func fanout(ctx context.Context, rec *trace.Recording, cells []*batchCell) error {
	err := rec.ReplayBatch(func(evs []trace.Event) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		live := 0
		for _, b := range cells {
			if b.err != nil {
				continue
			}
			b.deliver(evs)
			if b.err == nil {
				live++
			}
		}
		if live == 0 {
			return errNoLiveCells
		}
		return nil
	})
	if errors.Is(err, errNoLiveCells) {
		return nil
	}
	return err
}

// runBatch simulates a set of configs of one (workload, layout) pair
// against a single decode pass of the shared recording, resolving each
// cell's flight with its Result or failure. Cells with a valid
// checkpoint are served from disk without simulating; a corrupt
// recording is rebuilt from source (fresh CPUs, full re-replay) under
// the retry budget; a panicking consumer fails only its own cell.
func (r *Runner) runBatch(ctx context.Context, w *Workload, batch []hubCell) {
	todo := make([]hubCell, 0, len(batch))
	for _, c := range batch {
		if c.cfg.Sampling.Enabled() {
			// Sampled cells use the sampled replay, not the shared
			// detailed decode pass — and they are cheap enough (the
			// point of sampling) that running them sequentially inside
			// the drain costs little. runCell gives them the same
			// checkpoint, observability and panic treatment as any
			// other cell.
			v, err := guarded(ctx, func(ctx context.Context) (any, error) {
				return r.runCell(ctx, w, c.cfg)
			})
			if err != nil {
				if je := (*JobError)(nil); errors.As(err, &je) && je.Workload == "" {
					je.Workload, je.Config = w.Name, c.cfg.Label()
				}
				r.resolveCell(c, nil, err)
				continue
			}
			r.resolveCell(c, v.(*Result), nil)
			continue
		}
		if res, ok := r.loadCheckpoint(w, c.cfg); ok {
			r.opts.Log("checkpoint %-12s %-14s", w.Name, c.cfg.Label())
			r.obsWall().Incr("checkpoint_hits", 1)
			r.obsJob(obs.JobResumed, w.Name, c.cfg.Label(), "checkpoint")
			r.noteResult(res)
			r.emitRecord(w, c.cfg, res, nil)
			c.f.resolve(res, nil)
			continue
		}
		todo = append(todo, c)
	}
	if len(todo) == 0 {
		return
	}
	layout := todo[0].cfg.Layout
	err := r.replayRetry(ctx, w, layout, func(ctx context.Context) (*trace.Recording, error) {
		rec, err := r.recordingFor(ctx, w, layout)
		if err != nil {
			return nil, err
		}
		// Check integrity before building CPUs: a corrupt recording
		// retries with no per-cell state to unwind.
		vsp := r.obsSpan("verify", "verify").Arg("workload", w.Name)
		err = rec.Verify()
		vsp.End()
		if err != nil {
			return rec, err
		}
		cells := make([]*batchCell, 0, len(todo))
		left := todo[:0]
		for _, c := range todo {
			p, perr := r.prepare(ctx, w, c.cfg)
			if perr != nil {
				// Deterministic per-cell failure: resolve now and drop
				// the cell from any later retry round.
				r.resolveCell(c, nil, perr)
				continue
			}
			r.opts.Log("run %-12s %-14s", w.Name, c.cfg.Label())
			r.obsJob(obs.JobStarted, w.Name, c.cfg.Label(), "")
			cc := r.consumerFor(w, c.cfg, p.c)
			bc, _ := cc.(trace.BatchConsumer)
			cells = append(cells, &batchCell{cell: c, sim: p, c: cc, bc: bc})
			left = append(left, c)
		}
		todo = left
		if len(cells) == 0 {
			return rec, nil
		}
		rsp := r.obsSpan("replay", "replay").
			Arg("workload", w.Name).
			Arg("layout", layout.String()).
			Arg("cells", fmt.Sprint(len(cells)))
		err = fanout(ctx, rec, cells)
		rsp.End()
		if err != nil {
			return rec, err
		}
		for _, b := range cells {
			if b.err != nil {
				b.err.Workload, b.err.Config = w.Name, b.cell.cfg.Label()
				r.resolveCell(b.cell, nil, b.err)
				continue
			}
			b.sim.res.Trace = rec.Stats
			res := b.sim.finalize()
			r.storeCheckpoint(w, b.cell.cfg, res)
			r.obsJob(obs.JobExecuted, w.Name, b.cell.cfg.Label(), "")
			r.noteResult(res)
			r.resolveCell(b.cell, res, nil)
		}
		todo = nil
		return rec, nil
	})
	if err == nil {
		return
	}
	// Stream-level failure (recording error, cancellation, exhausted
	// retry budget): every still-unresolved cell fails with it.
	for _, c := range todo {
		r.resolveCell(c, nil, err)
	}
}

// buildSoftwareCGP binds a profiled sequence table to an image's
// addresses and returns the §6 software prefetcher.
func buildSoftwareCGP(cfg Config, seq *trace.SequenceProfile, img *program.Image) *core.Software {
	table := make(map[isa.Addr][]isa.Addr, seq.Len())
	for _, fn := range seq.Functions() {
		callees := seq.Sequence(fn)
		addrs := make([]isa.Addr, len(callees))
		for i, c := range callees {
			addrs[i] = img.Start(c)
		}
		table[img.Start(fn)] = addrs
	}
	return core.NewSoftware(cfg.Degree, table)
}
