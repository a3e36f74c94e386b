package main

import (
	"math"
	"slices"
	"testing"
)

func TestCaptureScriptFollowsSeedAndWeights(t *testing.T) {
	a, classes := captureScript(1)
	b, again := captureScript(1)
	if !slices.Equal(a, b) || !slices.Equal(classes, again) {
		t.Fatal("one seed gave two scripts")
	}
	if c, _ := captureScript(2); slices.Equal(a, c) {
		t.Error("two seeds gave one script")
	}
	var n [len(captureClasses)]int
	for _, c := range classes {
		n[c]++
	}
	for c, w := range captureWeights {
		got, want := float64(n[c])/float64(len(classes)), float64(w)/captureWeightSum
		if math.Abs(got-want) > 0.03 {
			t.Errorf("%s: share %.3f, want about %.3f", captureClasses[c], got, want)
		}
	}
}
