package main

import (
	"fmt"
	"math"
	"sort"
)

// failedLatency is the latency a failed or shed operation is given
// when percentiles are selected: larger than any measured value, so a
// failure counts as over every limit.
var failedLatency = math.Inf(1)

// latencies collects one workload's per-operation latencies in
// milliseconds. Failures are counted, not timed: each one sits above
// every measured sample when a percentile is selected.
type latencies struct {
	ms     []float64
	failed int
}

func (l *latencies) add(ms float64) { l.ms = append(l.ms, ms) }
func (l *latencies) fail()          { l.failed++ }

// merge appends o's samples and failures to l.
func (l *latencies) merge(o *latencies) {
	l.ms = append(l.ms, o.ms...)
	l.failed += o.failed
}

// count is the number of operations, timed or failed.
func (l *latencies) count() int { return len(l.ms) + l.failed }

// tail is one selected percentile with the evidence behind it.
type tail struct {
	// Value is the selected latency; failedLatency when the rank
	// landed on a failure.
	Value float64
	// Samples is the number of operations, failures included.
	Samples int
	// Beyond is how many operations lie strictly above Value (for a
	// rank that landed on a failure, the failures after it).
	Beyond int
}

// percentile selects the q-quantile (0 < q ≤ 1) by nearest rank over
// the samples plus the failures, the failures ranked last.
func (l *latencies) percentile(q float64) tail {
	n := l.count()
	if n == 0 {
		return tail{}
	}
	sorted := append([]float64(nil), l.ms...)
	sort.Float64s(sorted)
	for i := 0; i < l.failed; i++ {
		sorted = append(sorted, failedLatency)
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	v := sorted[rank]
	beyond := n - sort.Search(n, func(i int) bool { return sorted[i] > v })
	return tail{Value: v, Samples: n, Beyond: beyond}
}

// median returns the median of xs (the mean of the middle two for an
// even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// validName reports whether s is a legal metric or workload name: it
// starts with a letter or digit and has at most 64 letters, digits,
// '_', '.' and '-'.
func validName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case i > 0 && (r == '_' || r == '.' || r == '-'):
		default:
			return false
		}
	}
	return true
}

// validUnit reports whether s is a legal unit: at most 16 letters,
// digits, '_', '/', '%', '.' and '-'.
func validUnit(s string) bool {
	if s == "" || len(s) > 16 {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '_' || r == '/' || r == '%' || r == '.' || r == '-':
		default:
			return false
		}
	}
	return true
}

// metricValue is one reported metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a run's metrics in insertion order plus the
// correctness tally. Every name and unit is validated on the way in.
type report struct {
	order     []string
	metrics   map[string]metricValue
	notes     map[string]string
	attempted int
	failed    int
	problems  []string
}

func newReport() *report {
	return &report{metrics: map[string]metricValue{}, notes: map[string]string{}}
}

// set records a metric; note is printed beside it (sample counts and
// the like) but is not part of the result line.
func (r *report) set(name, unit string, v float64, note string) {
	if !validName(name) || !validUnit(unit) {
		panic(fmt.Sprintf("perfbench: invalid metric %q unit %q", name, unit))
	}
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metricValue{Value: v, Unit: unit}
	if note != "" {
		r.notes[name] = note
	}
}

// setTail records a latency percentile with its sample count and the
// number of samples beyond it.
func (r *report) setTail(name string, t tail) {
	v := t.Value
	if math.IsInf(v, 1) {
		v = math.MaxFloat64
	}
	r.set(name, "ms", v, fmt.Sprintf("n=%d beyond=%d", t.Samples, t.Beyond))
}

// absorb adds o's checks to r's and each of o's metrics r lacks.
func (r *report) absorb(o *report) {
	for _, m := range o.order {
		if _, ok := r.metrics[m]; !ok {
			r.set(m, o.metrics[m].Unit, o.metrics[m].Value, o.notes[m])
		}
	}
	r.attempted += o.attempted
	r.failed += o.failed
	r.problems = append(r.problems, o.problems...)
}

// check counts one attempted operation and, when ok is false, one
// failure with its reason.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// checkN counts n attempted operations of which bad failed.
func (r *report) checkN(n, bad int, format string, args ...any) {
	r.attempted += n
	if bad > 0 {
		r.failed += bad
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}
