package main

import (
	"context"
	"math"
	"testing"
)

// TestMirrorFidelity replays a sample of every workload's jobs through the
// traced mirror and through engine.Execute. The mirror must reproduce
// Execute's results field for field (timings aside), and its time must be
// within a tenth of Execute's, so the layer table never attributes time
// the program does not spend.
func TestMirrorFidelity(t *testing.T) {
	if testing.Short() {
		t.Skip("times real jobs")
	}
	for _, name := range workloadNames {
		w, err := buildWorkload(name, defaultSeed, 2)
		if err != nil {
			t.Fatal(err)
		}
		ratio, err := fidelity(context.Background(), fidelitySample(distinctJobs(w.jobs), 12), 9)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(ratio-1) > 0.1 {
			t.Errorf("%s: mirror takes %.3f× engine.Execute's time, want within 10%%", name, ratio)
		}
		t.Logf("%s: mirror/Execute time %.3f", name, ratio)
	}
}

// TestTracedRunCoversExecute checks the span bookkeeping on a small
// yield-table2 replay: every job has one root span, the named layers
// account for at least 90% of engine.execute, and Monte Carlo trials are
// counted as mapping calls.
func TestTracedRunCoversExecute(t *testing.T) {
	w, err := buildWorkload("yield-table2", defaultSeed, 1)
	if err != nil {
		t.Fatal(err)
	}
	jobs := w.jobs[:60]
	rep := tracedRun(context.Background(), jobs, 2)
	if got := rep.layers["engine.execute"].calls; got != int64(len(jobs)) {
		t.Fatalf("engine.execute calls %d, want %d", got, len(jobs))
	}
	if c := rep.coverage(); c < 0.9 {
		t.Errorf("named layers cover %.3f of engine.execute, want >= 0.9", c)
	}
	mapCalls := rep.layers["mapping.hba"].calls + rep.layers["mapping.exact"].calls
	if rep.counts.mapCalls != mapCalls || mapCalls == 0 {
		t.Errorf("mapping calls counted %d, spans %d", rep.counts.mapCalls, mapCalls)
	}
	roots := 0
	for _, s := range rep.spans {
		if s.Parent == -1 {
			roots++
			if s.Name != "engine.execute" {
				t.Fatalf("root span %q, want engine.execute", s.Name)
			}
		}
		if s.End < s.Start {
			t.Fatalf("span %q ends before it starts", s.Name)
		}
	}
	if roots != len(jobs) {
		t.Errorf("%d root spans for %d jobs", roots, len(jobs))
	}
	for i, r := range rep.results {
		if err := checkResult(jobs[i], r, nil); err != nil {
			t.Errorf("traced job %d: %v", i, err)
		}
	}
}
