package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	var l latencies
	for i := 1; i <= 100; i++ {
		l.add(float64(i))
	}
	for _, c := range []struct {
		q            float64
		value        float64
		beyond, samp int
	}{
		{0.50, 50, 50, 100},
		{0.99, 99, 1, 100},
		{1.00, 100, 0, 100},
		{0.001, 1, 99, 100},
	} {
		got := l.percentile(c.q)
		if got.Value != c.value || got.Beyond != c.beyond || got.Samples != c.samp {
			t.Errorf("p%g = %+v, want value %g beyond %d samples %d", c.q*100, got, c.value, c.beyond, c.samp)
		}
	}
}

func TestPercentileCountsFailuresOverTheLimit(t *testing.T) {
	var l latencies
	for i := 1; i <= 98; i++ {
		l.add(1)
	}
	l.fail()
	l.fail()
	// 100 operations, two failed: p98 is still a measured sample, p99
	// lands on a failure, which is over any limit.
	if got := l.percentile(0.98); got.Value != 1 || got.Beyond != 2 || got.Samples != 100 {
		t.Errorf("p98 = %+v, want 1 with 2 beyond of 100", got)
	}
	got := l.percentile(0.99)
	if !math.IsInf(got.Value, 1) || got.Samples != 100 {
		t.Errorf("p99 = %+v, want +Inf over 100 samples", got)
	}
	rep := newReport()
	rep.setTail("p99_ms", got)
	if v := rep.metrics["p99_ms"].Value; v != math.MaxFloat64 {
		t.Errorf("reported p99 = %g, want the largest finite value", v)
	}
	var none latencies
	if got := none.percentile(0.5); got.Samples != 0 {
		t.Errorf("empty percentile = %+v", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %g", got)
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"qps", "p99_ms", "stage.decode.p50_us", "capture-replay", "9lives", "a.b-c_d"} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	long := ""
	for len(long) < 65 {
		long += "x"
	}
	for _, bad := range []string{"", "_lead", ".lead", "-lead", "has space", "slash/ed", "ünï", "p99%", long} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	for _, ok := range []string{"ms", "s", "1/s", "count", "%", "Minstr/s", "B", "us"} {
		if !validUnit(ok) {
			t.Errorf("validUnit(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "m s", "µs", "a-very-long-unit-name"} {
		if validUnit(bad) {
			t.Errorf("validUnit(%q) = true", bad)
		}
	}
}

func TestReportRejectsInvalidNames(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("set accepted an invalid metric name")
		}
	}()
	newReport().set("bad name", "ms", 1, "")
}

func TestChecksCountAttemptsAndFailures(t *testing.T) {
	rep := newReport()
	rep.check(true, "fine")
	rep.check(false, "broke %d", 1)
	rep.checkN(10, 3, "three of ten")
	rep.checkN(5, 0, "none")
	if rep.attempted != 17 || rep.failed != 4 || len(rep.problems) != 2 {
		t.Fatalf("attempted %d failed %d problems %q", rep.attempted, rep.failed, rep.problems)
	}
}

func TestAbsorbKeepsTheFirstValueAndSumsChecks(t *testing.T) {
	a, b := newReport(), newReport()
	a.set("gc.cycles", "count", 3, "")
	a.check(true, "")
	b.set("gc.cycles", "count", 9, "")
	b.set("sql.parse_us", "us", 2, "")
	b.check(false, "lost")
	a.absorb(b)
	if a.metrics["gc.cycles"].Value != 3 || a.metrics["sql.parse_us"].Value != 2 {
		t.Errorf("metrics after absorb: %v", a.metrics)
	}
	if a.attempted != 2 || a.failed != 1 || len(a.problems) != 1 {
		t.Errorf("checks after absorb: %d attempted, %d failed, %v", a.attempted, a.failed, a.problems)
	}
}
