package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strconv"
	"sync"
	"time"

	"cgp/internal/db"
	"cgp/internal/db/sql"
	"cgp/internal/obs"
	"cgp/internal/server"
	"cgp/internal/workload"
)

const (
	// serveWiscN is cgpserve's default database size.
	serveWiscN = 2000
	// serveDataSeed seeds the served data; the workload seed picks the
	// statement mix and lookup keys, so every seed serves one database.
	serveDataSeed = 42
	// serveClients is the closed loop's connection count: nproc on the
	// 2-core host the benchmark was sized for, and the smallest count
	// at which two queries can be in flight at once.
	serveClients = 2
	// serveScript is how many statements each connection sends in one
	// round: about a second and a quarter of closed loop on that host,
	// so a run holds some twenty rounds, each with its own set-up.
	serveScript = 10000
	// serveProcs is how many Go processors (GOMAXPROCS) the serve
	// workload runs its server and clients on. With one per core the
	// runtime parks and wakes a thread on about one round trip in
	// eight, and each wake of an idle vCPU waits on the host: in
	// slow periods on a shared 2-vCPU VM that made whole runs 60%
	// slower while CPU-bound workloads moved a few percent. On one
	// processor the client and server goroutines hand off on one
	// thread, which parked twenty times less often.
	serveProcs = 1
)

// driveStatements is cgpserve -drive's statement mix, sent through
// Client.Prepare and Stmt.Exec in cgpserve's order: connection i's
// k-th drive statement is driveStatements[(i+k)%5].
var driveStatements = []string{
	"SELECT unique1, unique2 FROM big1 WHERE unique2 = 42",
	"SELECT unique1 FROM big1 WHERE unique2 BETWEEN 100 AND 199",
	"SELECT COUNT(*) AS n FROM big1 WHERE ten = 3",
	"SELECT two, COUNT(*) AS n FROM big1 GROUP BY two",
	"SELECT unique1 FROM small WHERE unique2 < 20",
}

// serveClasses names the serve mix's query classes: the drive
// statements in driveStatements order, then the ad-hoc lookup.
var serveClasses = [...]string{"point", "range", "agg", "groupby", "small", "adhoc"}

const adhocClass = 5

// lookupsPerDrive is how many ad-hoc lookups follow each drive
// statement on a connection. A drive statement's mean round trip
// measured about 2.5 lookups', so 3 gives the prepared and the ad-hoc
// path about equal shares of client time (mix.*.time_frac).
const lookupsPerDrive = 3

// lookupSQL is an ad-hoc point lookup. The grammar has no
// placeholders, so each distinct key is its own statement text.
func lookupSQL(key int) string {
	return "SELECT unique1, unique2 FROM big1 WHERE unique2 = " + strconv.Itoa(key)
}

// newServeEngine builds the served database.
func newServeEngine() (*db.Engine, error) {
	e := db.NewEngine(db.Options{BufferFrames: 8192})
	if err := (workload.WisconsinDB{N: serveWiscN}).Load(e, serveDataSeed); err != nil {
		return nil, err
	}
	return e, nil
}

// rowCount is the number of rows a result carries, or materialized.
func rowCount(res *server.Result) int {
	if res.Materialized > 0 {
		return int(res.Materialized)
	}
	return len(res.Rows)
}

// expectedRows runs each statement through sql.Run on a reference
// engine holding the same data and returns its row count.
func expectedRows(stmts []string) (map[string]int, error) {
	e, err := newServeEngine()
	if err != nil {
		return nil, err
	}
	out := make(map[string]int, len(stmts))
	for _, s := range stmts {
		if _, ok := out[s]; ok {
			continue
		}
		rows, err := sql.Run(e, s)
		if err != nil {
			return nil, fmt.Errorf("reference %q: %w", s, err)
		}
		out[s] = len(rows)
	}
	return out, nil
}

// rig is one running server with its connected clients.
type rig struct {
	s      *server.Server
	cancel context.CancelFunc
	conns  []*server.Client
	wall   *obs.WallRegistry
}

// startRig starts a server over e on a loopback port and dials n
// clients.
func startRig(e *db.Engine, n int, tracer *obs.QueryTracer, capture *server.LiveCapture) (*rig, error) {
	wall := obs.NewWallRegistry()
	s := server.New(e, server.Options{
		Addr:        "127.0.0.1:0",
		MaxConns:    n + 1,
		MaxInflight: n + 1,
		Wall:        wall,
		Trace:       tracer,
		Capture:     capture,
	})
	ctx, cancel := context.WithCancel(context.Background())
	if err := s.Start(ctx); err != nil {
		cancel()
		return nil, err
	}
	r := &rig{s: s, cancel: cancel, wall: wall}
	for i := 0; i < n; i++ {
		c, err := server.Dial(s.Addr())
		if err != nil {
			r.stop()
			return nil, err
		}
		r.conns = append(r.conns, c)
	}
	return r, nil
}

// stop closes the clients, stops the server and waits for every
// connection handler to exit.
func (r *rig) stop() {
	for _, c := range r.conns {
		c.Close()
	}
	r.cancel()
	r.s.Wait()
}

// serveSetup is one serve set-up: engine build, Wisconsin load, server
// start, dial, statement preparation and warm-up.
type serveSetup struct {
	rig   *rig
	stmts [][]*server.Stmt
}

func setUpServe(tracer *obs.QueryTracer) (*serveSetup, error) {
	e, err := newServeEngine()
	if err != nil {
		return nil, err
	}
	r, err := startRig(e, serveClients, tracer, nil)
	if err != nil {
		return nil, err
	}
	su := &serveSetup{rig: r}
	for i, c := range r.conns {
		if tracer != nil {
			// Client-minted IDs (i+1)<<32 + seq join each round trip
			// to the server's span for it.
			c.SetTraceBase(uint64(i+1) << 32)
		}
		var ps []*server.Stmt
		for _, src := range driveStatements {
			st, err := c.Prepare(src)
			if err != nil {
				r.stop()
				return nil, err
			}
			ps = append(ps, st)
		}
		su.stmts = append(su.stmts, ps)
	}
	// Warm-up: every prepared statement a few times and a fixed run of
	// lookups per connection, so buffer-pool misses and allocator
	// growth land in set-up, not in the measured window.
	warm := rand.New(rand.NewPCG(1, 1))
	for i, c := range r.conns {
		for j := 0; j < 40; j++ {
			if _, err := su.stmts[i][j%len(driveStatements)].Exec(); err != nil {
				r.stop()
				return nil, err
			}
			if _, err := c.Query(lookupSQL(warm.IntN(serveWiscN))); err != nil {
				r.stop()
				return nil, err
			}
		}
	}
	return su, nil
}

// served is what one connection's closed loop observed.
type served struct {
	lat        latencies
	shed, errs int
	mismatches int
	firstErr   error
	// classMs and classN are each class's summed round-trip time and
	// query count.
	classMs [len(serveClasses)]float64
	classN  [len(serveClasses)]int
	// rtts maps a trace ID to its round trip (traced runs only).
	rtts map[uint64]rtt
}

type rtt struct{ start, end time.Duration }

// serveLoop runs the script on every connection at once and returns
// each connection's observations. Each connection sends the next
// prepared drive statement in cgpserve's order, then lookupsPerDrive
// ad-hoc lookups of keys from a stream seeded by (seed, connection),
// and so on, serveScript statements in all; it checks every row count
// against the reference.
func serveLoop(su *serveSetup, seed int64, want map[string]int, spans *spanRecorder) []*served {
	out := make([]*served, len(su.rig.conns))
	var wg sync.WaitGroup
	for i, c := range su.rig.conns {
		wg.Add(1)
		go func(i int, c *server.Client) {
			defer wg.Done()
			sv := &served{}
			if spans != nil {
				sv.rtts = map[uint64]rtt{}
			}
			out[i] = sv
			rng := rand.New(rand.NewPCG(uint64(seed), uint64(i)))
			for j := 0; j < serveScript; j++ {
				class, src, st := adhocClass, "", (*server.Stmt)(nil)
				if j%(lookupsPerDrive+1) == 0 {
					class = (i + j/(lookupsPerDrive+1)) % len(driveStatements)
					src, st = driveStatements[class], su.stmts[i][class]
				} else {
					src = lookupSQL(rng.IntN(serveWiscN))
				}
				s0 := spans.now()
				t0 := time.Now()
				var res *server.Result
				var err error
				if st != nil {
					res, err = st.Exec()
				} else {
					res, err = c.Query(src)
				}
				d := time.Since(t0)
				if spans != nil {
					sv.rtts[c.LastTraceID()] = rtt{s0, spans.now()}
				}
				switch {
				case errors.Is(err, server.ErrOverloaded):
					sv.shed++
					sv.lat.fail()
				case err != nil:
					sv.errs++
					sv.lat.fail()
					if sv.firstErr == nil {
						sv.firstErr = err
					}
				default:
					ms := float64(d.Nanoseconds()) / 1e6
					sv.lat.add(ms)
					sv.classMs[class] += ms
					sv.classN[class]++
					if rowCount(res) != want[src] {
						sv.mismatches++
					}
				}
			}
		}(i, c)
	}
	wg.Wait()
	return out
}

// serveRound is one round: a fresh set-up, then the script on every
// connection.
type serveRound struct {
	setup, wall time.Duration
	conns       []*served
	counters    *obs.WallRegistry
}

// runServeRound sets up, runs the script and tears down. With spans,
// the set-up and the script get spans under parent.
func runServeRound(seed int64, want map[string]int, tracer *obs.QueryTracer, spans *spanRecorder, parent int) (*serveRound, error) {
	t := time.Now()
	var su *serveSetup
	err := spans.timed("serve.setup", parent, func(int) error {
		var err error
		su, err = setUpServe(tracer)
		return err
	})
	if err != nil {
		return nil, err
	}
	rd := &serveRound{setup: time.Since(t), counters: su.rig.wall}
	t = time.Now()
	script := spans.open("serve.script", parent)
	rd.conns = serveLoop(su, seed, want, spans)
	spans.close(script)
	rd.wall = time.Since(t)
	su.rig.stop()
	return rd, nil
}

// check folds the connections' observations into rep's checks.
func (rd *serveRound) check(rep *report) {
	for _, sv := range rd.conns {
		rep.checkN(sv.lat.count(), sv.errs, "serve: %d errors, first: %v", sv.errs, sv.firstErr)
		rep.checkN(0, sv.shed, "serve: %d queries shed", sv.shed)
		rep.checkN(0, sv.mismatches, "serve: %d row counts differ from the reference engine", sv.mismatches)
	}
}

// latencies returns every connection's round trips in one set.
func (rd *serveRound) latencies() latencies {
	var all latencies
	for _, sv := range rd.conns {
		all.merge(&sv.lat)
	}
	return all
}

// setMix reports each query class's share of the loop's summed
// round-trip time, with its query count and mean round trip.
func setMix(rep *report, conns []*served) {
	var ms [len(serveClasses)]float64
	var n [len(serveClasses)]int
	total := 0.0
	for _, sv := range conns {
		for c := range serveClasses {
			ms[c] += sv.classMs[c]
			n[c] += sv.classN[c]
			total += sv.classMs[c]
		}
	}
	for c, name := range serveClasses {
		note := fmt.Sprintf("n=%d", n[c])
		if n[c] > 0 {
			note += fmt.Sprintf(" mean %.4f ms", ms[c]/float64(n[c]))
		}
		rep.set("mix."+name+".time_frac", "ratio", ms[c]/max(total, 1e-9), note)
	}
}

// serveExpectations returns the reference row counts of every
// statement a serve run can send.
func serveExpectations() (map[string]int, error) {
	stmts := append([]string(nil), driveStatements...)
	for k := 0; k < serveWiscN; k++ {
		stmts = append(stmts, lookupSQL(k))
	}
	return expectedRows(stmts)
}

// runServe is the serve workload: rounds of a fresh set-up and the
// script until the run's time is up, reporting the median set-up and
// script times and the median round's peak heap.
func runServe(ctx context.Context, cfg runConfig) (*report, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(serveProcs))
	want, err := serveExpectations()
	if err != nil {
		return nil, err
	}
	if cfg.traced() {
		return runServeTraced(cfg, want)
	}
	rep := newReport()
	meter := startHeapMeter(2 * time.Millisecond)
	start := time.Now()
	var setups, walls, peaks, qps, p50s, p99s, rounds []float64
	var p99 tail // the last round's, for its sample counts
	var mix []*served
	for cfg.another(start, rounds) {
		t := time.Now()
		settle()
		meter.take()
		rd, err := runServeRound(cfg.seed, want, nil, nil, 0)
		if err != nil {
			meter.finish()
			return nil, err
		}
		peaks = append(peaks, meter.take())
		rd.check(rep)
		lat := rd.latencies()
		setups = append(setups, rd.setup.Seconds())
		walls = append(walls, rd.wall.Seconds())
		qps = append(qps, float64(lat.count())/rd.wall.Seconds())
		p50s = append(p50s, lat.percentile(0.50).Value)
		p99 = lat.percentile(0.99)
		p99s = append(p99s, p99.Value)
		for _, sv := range rd.conns {
			sv.lat = latencies{}
			mix = append(mix, sv)
		}
		rounds = append(rounds, time.Since(t).Seconds())
		fmt.Printf("round %d: setup %.3fs wall %.3fs p50 %.4fms\n", len(walls), rd.setup.Seconds(), rd.wall.Seconds(), p50s[len(p50s)-1])
	}
	meter.finish()
	n := fmt.Sprintf("median of %d rounds", len(walls))
	rep.set("setup_s", "s", median(setups), n)
	rep.set("wall_s", "s", median(walls), n+fmt.Sprintf(", %d statements on each of %d connections", serveScript, serveClients))
	rep.set("peak_heap_mb", "MB", median(peaks), n)
	rep.set("qps", "1/s", median(qps), n+" (not gated)")
	rep.set("p50_ms", "ms", median(p50s), fmt.Sprintf("%s' p50, n=%d per round (not gated)", n, p99.Samples))
	rep.set("p99_ms", "ms", median(p99s), fmt.Sprintf("%s' p99, n=%d beyond=%d per round (not gated: see rtt.p99_ms)", n, p99.Samples, p99.Beyond))
	setMix(rep, mix)
	return rep, nil
}

// setPrepHitFrac reports the prepared-statement cache hit fraction.
func setPrepHitFrac(rep *report, wall *obs.WallRegistry) {
	hits, misses := wall.Count("prep_cache_hits"), wall.Count("prep_cache_misses")
	if hits+misses > 0 {
		rep.set("prep.hit_frac", "ratio", float64(hits)/float64(hits+misses), fmt.Sprintf("%d hits, %d misses", hits, misses))
	}
}

// runServeTraced is the serve workload's per-layer run: one untraced
// round for reference, one round with the server's query tracer on and
// every round trip spanned, then the SQL and exec layers timed alone.
func runServeTraced(cfg runConfig, want map[string]int) (*report, error) {
	rep := newReport()
	spans := cfg.spans

	settle()
	base, err := runServeRound(cfg.seed, want, nil, nil, 0)
	if err != nil {
		return nil, err
	}
	base.check(rep)
	baseLat := base.latencies()
	setMix(rep, base.conns)
	rep.setTail("rtt.p99_ms", baseLat.percentile(0.99))

	settle()
	tracer := obs.NewQueryTracer(obs.QueryTraceOptions{Keep: 1 << 21})
	rt0 := readRuntime()
	root := spans.open("serve.round", 0)
	rd, err := runServeRound(cfg.seed, want, tracer, spans, root)
	spans.close(root)
	rt := readRuntime().since(rt0)
	if err != nil {
		return nil, err
	}
	rd.check(rep)
	rep.setRuntime(rt)
	setPrepHitFrac(rep, rd.counters)
	script := 0
	for _, s := range spans.snapshot() {
		if s.Name == "serve.script" && s.Parent == root {
			script = s.ID
		}
	}
	lat := rd.latencies()
	recordStages(rep, spans, script, joinByID(tracer, rd.conns), lat.count())
	rec := reconcile("serve", spans.snapshot(), root, base.setup+base.wall)

	settle()
	layers := spans.open("layers", 0)
	err = measureSQLExec(spans, layers, cfg.seed, rep)
	spans.close(layers)
	if err != nil {
		return nil, err
	}
	fmt.Println(rec)
	return rep, nil
}

// joined is one query's client round trip with the server's span for
// the same query.
type joined struct {
	rtt rtt
	sp  obs.QuerySpanData
}

// joinByID pairs the tracer's completed spans with the round trips
// that carried the same client-minted trace ID.
func joinByID(tracer *obs.QueryTracer, conns []*served) []joined {
	rtts := map[uint64]rtt{}
	for _, sv := range conns {
		for id, r := range sv.rtts {
			rtts[id] = r
		}
	}
	var out []joined
	for _, sp := range tracer.Spans() {
		if r, ok := rtts[sp.ID]; ok && sp.Status == obs.StatusOK {
			out = append(out, joined{r, sp})
		}
	}
	return out
}

// recordStages records each joined query as the span tree
// client.query → server.query → stage.* under parent, laying the
// stages out in lifecycle order from the server span's start. It
// reports the per-stage percentiles, the unstaged time (server span
// minus its stages) and the network time (round trip minus server
// span), and checks that at least nine in ten of sent round trips
// joined a server span.
func recordStages(rep *report, spans *spanRecorder, parent int, pairs []joined, sent int) {
	origin := spans.origin.UnixNano()
	var stage [obs.NumQueryStages]latencies
	var unstaged, net latencies
	for _, p := range pairs {
		q := spans.add("client.query", parent, p.rtt.start, p.rtt.end)
		start := time.Duration(int64(p.sp.Start) - origin)
		total := time.Duration(p.sp.Total)
		s := spans.add("server.query", q, start, start+total)
		at := start
		var staged time.Duration
		for st := obs.QueryStage(0); st < obs.NumQueryStages; st++ {
			d := time.Duration(p.sp.Stages[st])
			staged += d
			if d > 0 || st != obs.StageCapture {
				stage[st].add(float64(d.Nanoseconds()) / 1e6)
			}
			if d > 0 {
				spans.add("stage."+st.String(), s, at, at+d)
				at += d
			}
		}
		unstaged.add(float64((total - staged).Nanoseconds()) / 1e6)
		net.add(float64((p.rtt.end - p.rtt.start - total).Nanoseconds()) / 1e6)
	}
	rep.check(len(pairs) > 0 && len(pairs)*10 >= sent*9, "joined %d of %d round trips to server spans", len(pairs), sent)
	us := func(t tail) float64 { return t.Value * 1000 }
	for st := obs.QueryStage(0); st < obs.NumQueryStages; st++ {
		if stage[st].count() == 0 {
			stage[st].add(0) // the stage never ran (capture detached)
		}
		p50, p99 := stage[st].percentile(0.50), stage[st].percentile(0.99)
		rep.set("stage."+st.String()+".p50_us", "us", us(p50), fmt.Sprintf("n=%d", p50.Samples))
		rep.set("stage."+st.String()+".p99_us", "us", us(p99), fmt.Sprintf("n=%d beyond=%d", p99.Samples, p99.Beyond))
	}
	rep.set("stage.unstaged.p50_us", "us", us(unstaged.percentile(0.5)), "server span minus stages")
	rep.set("net.p50_us", "us", us(net.percentile(0.5)), "round trip minus server span")
}

// measureSQLExec times the SQL and exec layers without a server:
// sql.Parse and sql.Plan over the serve statements, and
// Engine.RunQuery per query class.
func measureSQLExec(spans *spanRecorder, parent int, seed int64, rep *report) error {
	e, err := newServeEngine()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 99))
	stmts := append([]string(nil), driveStatements...)
	for i := 0; i < 45; i++ {
		stmts = append(stmts, lookupSQL(rng.IntN(serveWiscN)))
	}
	const reps = 40
	var parse, plan []float64
	err = spans.timed("sql", parent, func(int) error {
		for _, src := range stmts {
			for j := 0; j < reps; j++ {
				t := time.Now()
				stmt, err := sql.Parse(src)
				parse = append(parse, float64(time.Since(t).Nanoseconds())/1e3)
				if err != nil {
					return err
				}
				tx := e.Txns.Begin()
				t = time.Now()
				_, _, err = sql.Plan(e, e.NewContext(tx), stmt)
				plan = append(plan, float64(time.Since(t).Nanoseconds())/1e3)
				e.Txns.Abort(tx)
				if err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("sql layer: %w", err)
	}
	rep.set("sql.parse_us", "us", median(parse), fmt.Sprintf("median of %d", len(parse)))
	rep.set("sql.plan_us", "us", median(plan), fmt.Sprintf("median of %d", len(plan)))

	classes := []struct {
		name string
		src  func(k int) string
	}{
		{"point", lookupSQL},
		{"range", func(k int) string {
			return fmt.Sprintf("SELECT unique1 FROM big1 WHERE unique2 BETWEEN %d AND %d", k, k+99)
		}},
		{"agg", func(int) string { return "SELECT COUNT(*) AS n FROM big1 WHERE ten = 3" }},
		{"groupby", func(int) string { return "SELECT two, COUNT(*) AS n FROM big1 GROUP BY two" }},
	}
	for _, cl := range classes {
		var times []float64
		err := spans.timed("exec."+cl.name, parent, func(int) error {
			for j := 0; j < 200; j++ {
				stmt, err := sql.Parse(cl.src(rng.IntN(serveWiscN - 100)))
				if err != nil {
					return err
				}
				tx := e.Txns.Begin()
				ectx := e.NewContext(tx)
				it, into, err := sql.Plan(e, ectx, stmt)
				if err != nil {
					e.Txns.Abort(tx)
					return err
				}
				t := time.Now()
				_, err = e.RunQuery(ectx, it, into)
				times = append(times, float64(time.Since(t).Nanoseconds())/1e3)
				if err != nil {
					e.Txns.Abort(tx)
					return err
				}
				if err := e.Txns.Commit(tx); err != nil {
					return err
				}
				e.Arena.Reset()
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("exec %s: %w", cl.name, err)
		}
		rep.set("exec."+cl.name+"_us", "us", median(times), fmt.Sprintf("median of %d", len(times)))
	}
	return nil
}
