// Command perfbench is the repository's benchmark. It runs one named
// workload (or all of them, each in a fresh process), checks the
// program's outputs, and prints every metric by name with its unit;
// the last line of stdout is the result as one JSON object. A run
// whose checks fail exits 1 after printing it.
//
//	bash perfbench/run.sh --workload figures --seed 42 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all
//
// --trace 0 reports the end-to-end metrics, measured with tracing off.
// --trace 1 is a separate traced run: it times the calls the benchmark
// makes into each layer, reports the per-layer metrics, prints one
// reconciliation row per workload phase, and writes its spans under
// .bench_build/spans/. Every workload reports every metric of its
// kind. --write-spec regenerates BENCHMARK.json and
// perfbench/spec.json from spec.go. Workloads and metrics are defined
// in spec.go.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	// spans is nil in untraced runs.
	spans *spanRecorder
}

func (c runConfig) traced() bool { return c.spans != nil }

// another reports whether a workload that started at start and has
// run rounds of the given durations (in seconds) should start another:
// always the first, then while one more round of the median length
// still ends within the run's time.
func (c runConfig) another(start time.Time, rounds []float64) bool {
	if len(rounds) == 0 {
		return true
	}
	next := time.Duration(median(rounds) * float64(time.Second))
	return time.Since(start)+next <= c.seconds
}

var runners = map[string]func(context.Context, runConfig) (*report, error){
	"figures":        runFigures,
	"serve":          runServe,
	"capture-replay": runCaptureReplay,
}

// result is the last line of stdout.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "all", "workload to run: figures, serve, capture-replay, or all")
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	seconds := flag.Int("seconds", runSeconds, "how long one run measures")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	spec := flag.String("write-spec", "", "write BENCHMARK.json and perfbench/spec.json under this repository root and exit")
	commit := flag.String("commit", "unknown", "source commit to stamp on the result")
	flag.Parse()

	if *spec != "" {
		if err := writeSpec(*spec); err != nil {
			fail(err)
		}
		return
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fail(fmt.Errorf("need --seconds ≥ 1 and --trace 0 or 1"))
	}
	if *workload == "all" {
		if err := runAll(*commit, *seed, *seconds, *traceFlag); err != nil {
			fail(err)
		}
		return
	}
	res, err := runOne(*commit, *workload, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runOne runs one workload and prints its metrics; it returns the
// result line's content. A traced run runs the named workload's traced
// phase first and then every other workload's, so that it reports
// every per-layer metric; a metric several phases report is the named
// workload's.
func runOne(commit, name string, seed int64, seconds time.Duration, traced bool) (*result, error) {
	if runners[name] == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	h, err := json.Marshal(host(commit))
	if err != nil {
		return nil, err
	}
	fmt.Printf("host %s\n", h)
	fmt.Printf("workload %s seed %d seconds %.0f traced %t\n", name, seed, seconds.Seconds(), traced)

	cfg := runConfig{seed: seed, seconds: seconds}
	phases := []string{name}
	if traced {
		cfg.spans = newSpanRecorder(fmt.Sprintf("%s-%d-%d", name, seed, time.Now().UnixNano()), 1<<20)
		for _, w := range workloads {
			if w.Name != name {
				phases = append(phases, w.Name)
			}
		}
	}
	all := newReport()
	for _, phase := range phases {
		if traced {
			fmt.Printf("traced phase %s\n", phase)
		}
		rep, err := runners[phase](context.Background(), cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", phase, err)
		}
		all.absorb(rep)
	}
	if traced {
		path := filepath.Join(".bench_build", "spans", name+".jsonl")
		if err := cfg.spans.writeJSONL(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans %d (dropped %d) written to %s\n", len(cfg.spans.snapshot()), cfg.spans.dropped, path)
	}

	res := &result{Attempted: all.attempted, Failed: all.failed, Metrics: map[string]metricValue{}}
	for _, m := range reported(traced) {
		v, ok := all.metrics[m]
		if !ok {
			return nil, fmt.Errorf("workload %s did not measure %s", name, m)
		}
		if unit, _ := unitOf(m); unit != v.Unit {
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", m, v.Unit, unit)
		}
		res.Metrics[m] = v
	}
	for _, m := range all.order {
		v := all.metrics[m]
		fmt.Printf("  %-28s %14.6g %-9s %s\n", m, v.Value, v.Unit, all.notes[m])
	}
	for _, p := range all.problems {
		fmt.Printf("FAILED: %s\n", p)
	}
	res.Correct = all.failed == 0 && all.attempted > 0
	fmt.Printf("checks: %d attempted, %d failed\n", all.attempted, all.failed)
	return res, nil
}

// runAll runs every workload in a fresh process of this binary, so
// each gets its own heap and GC state, and prints one table.
func runAll(commit string, seed int64, seconds, traceFlag int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	all := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range workloads {
		cmd := exec.Command(self, "--commit", commit, "--workload", w.Name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(traceFlag))
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		err := cmd.Run()
		os.Stdout.Write(out.Bytes())
		if err != nil {
			return fmt.Errorf("workload %s: %w", w.Name, err)
		}
		var res result
		if err := json.Unmarshal(lastLine(out.Bytes()), &res); err != nil {
			return fmt.Errorf("workload %s: result line: %w", w.Name, err)
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[w.Name+"."+k] = v
		}
	}
	fmt.Println("summary:")
	for _, w := range workloads {
		for _, m := range reported(traceFlag == 1) {
			v := all.Metrics[w.Name+"."+m]
			fmt.Printf("  %-16s %-28s %14.6g %s\n", w.Name, m, v.Value, v.Unit)
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !all.Correct {
		return fmt.Errorf("%d of %d checks failed", all.Failed, all.Attempted)
	}
	return nil
}

// lastLine returns the last non-empty line of b.
func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = []byte(s)
		}
	}
	return last
}
