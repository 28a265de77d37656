package main

import (
	"context"
	"encoding/json"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/engine"
)

// fakeRun returns a serve-repeat-shaped workload of the first n specs of
// the serve space, one job per batch, and a record holding the results
// engine.Execute gives for them, as if the server had streamed them.
func fakeRun(t *testing.T, n int) (*workload, *record) {
	t.Helper()
	w := closedWorkload("test", serveSpace()[:n])
	rec := &record{
		ref:  make([]time.Time, len(w.batches)),
		done: make([]time.Time, len(w.jobs)),
		raw:  make([][]byte, len(w.jobs)),
		ack:  make([]time.Duration, len(w.batches)),
		lag:  make([]time.Duration, len(w.batches)),
		errs: make([]string, len(w.batches)),
	}
	now := time.Now()
	rec.start, rec.end = now, now.Add(time.Second)
	for j, spec := range w.jobs {
		raw, err := json.Marshal(engine.Execute(context.Background(), spec))
		if err != nil {
			t.Fatal(err)
		}
		rec.ref[j], rec.done[j], rec.raw[j] = now, now.Add(time.Millisecond), raw
	}
	return w, rec
}

func loadTestExpected(t *testing.T) map[string]expectation {
	t.Helper()
	exp, err := loadExpected(filepath.Join(".", expectedFile))
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

func TestExpectedFileCoversServeSpace(t *testing.T) {
	exp := loadTestExpected(t)
	for _, spec := range serveSpace() {
		if _, ok := exp[specKey(spec)]; !ok {
			t.Fatalf("expected file lacks serve-repeat spec %s", specKey(spec))
		}
	}
	for _, name := range workloadNames {
		w, err := buildWorkload(name, defaultSeed, expectedSeconds)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range w.jobs {
			if _, ok := exp[specKey(spec)]; !ok {
				t.Fatalf("expected file lacks %s job %s of the default seed", name, specKey(spec))
			}
		}
	}
}

func TestTallyCountsCorrectResults(t *testing.T) {
	w, rec := fakeRun(t, 40)
	m := &measurement{attempted: len(w.jobs)}
	m.tally(w, rec, loadTestExpected(t))
	if m.failed != 0 || m.correct != len(w.jobs) {
		t.Fatalf("correct %d failed %d of %d, want all correct", m.correct, m.failed, len(w.jobs))
	}
	if got := m.endToEnd()["success_ratio"].Value; got != 1 {
		t.Fatalf("success_ratio %v, want 1", got)
	}
}

func TestTallyCountsTamperedErroredAndMissingResults(t *testing.T) {
	w, rec := fakeRun(t, 40)
	exp := loadTestExpected(t)

	// A tampered expectation: the file disagrees with the server's area.
	e := exp[specKey(w.jobs[0])]
	e.area++
	exp[specKey(w.jobs[0])] = e
	// An errored job.
	errored := engine.JobResult{ID: "j1", Kind: w.jobs[1].Kind, Err: "engine: boom"}
	raw, err := json.Marshal(errored)
	if err != nil {
		t.Fatal(err)
	}
	rec.raw[1] = raw
	// A job whose result never arrived.
	rec.raw[2] = nil

	m := &measurement{attempted: len(w.jobs)}
	m.tally(w, rec, exp)
	if m.failed != 3 || m.correct != len(w.jobs)-3 {
		t.Fatalf("correct %d failed %d, want %d and 3", m.correct, m.failed, len(w.jobs)-3)
	}
	want := float64(len(w.jobs)-3) / float64(len(w.jobs))
	if got := m.endToEnd()["success_ratio"].Value; got != want {
		t.Fatalf("success_ratio %v, want %v", got, want)
	}
	// Failed jobs count as missing every latency limit.
	if p99 := m.endToEnd()["completion_p99_ms"].Value; p99 != posInf {
		t.Fatalf("p99 %v with 3 of 40 failed, want +inf stand-in", p99)
	}
}

func TestCheckResultInvariants(t *testing.T) {
	spec := engine.JobSpec{Kind: engine.MonteCarloYield, Benchmark: "rd53", OpenRate: 0.1, Seed: 3, Samples: 20}
	good := engine.Execute(context.Background(), spec)
	if err := checkResult(spec, good, nil); err != nil {
		t.Fatalf("good result rejected: %v", err)
	}
	for name, mutate := range map[string]func(*engine.JobResult){
		"area":    func(r *engine.JobResult) { r.Area++ },
		"cols":    func(r *engine.JobResult) { r.Cols, r.Area = r.Cols+2, (r.Cols+2)*r.Rows },
		"ir":      func(r *engine.JobResult) { r.IR = 1.5 },
		"psucc":   func(r *engine.JobResult) { r.Psucc = -0.1 },
		"samples": func(r *engine.JobResult) { r.Samples = 19 },
		"kind":    func(r *engine.JobResult) { r.Kind = engine.MapEA },
	} {
		r := good
		mutate(&r)
		if checkResult(spec, r, nil) == nil {
			t.Errorf("%s: broken result accepted", name)
		}
	}
}

func TestAnchorsPinPaperAreas(t *testing.T) {
	exp := loadTestExpected(t)
	key := specKey(engine.JobSpec{Kind: engine.SynthTwoLevel, Benchmark: "rd53"})
	if exp[key].area != 544 {
		t.Fatalf("rd53 two-level area %d in expected file, Table I says 544", exp[key].area)
	}
	e := exp[key]
	e.area = 545
	exp[key] = e
	if checkAnchors(exp) == nil {
		t.Fatal("tampered Table I anchor accepted")
	}
}

func TestWorkloadsDeterministicAndSeeded(t *testing.T) {
	for _, name := range workloadNames {
		a, _ := buildWorkload(name, defaultSeed, 2)
		b, _ := buildWorkload(name, defaultSeed, 2)
		c, _ := buildWorkload(name, heldOutSeed, 2)
		long, _ := buildWorkload(name, defaultSeed, 30)
		same, prefix, differ := true, true, false
		for i := range a.jobs {
			ka := specKey(a.jobs[i])
			same = same && ka == specKey(b.jobs[i])
			differ = differ || ka != specKey(c.jobs[i])
			if !a.open {
				prefix = prefix && ka == specKey(long.jobs[i])
			}
		}
		if !same || !prefix || !differ {
			t.Errorf("%s: same seed repeats %t, longer list extends %t, held-out seed differs %t", name, same, prefix, differ)
		}
		if !a.open && !sameMix(a, c) {
			t.Errorf("%s: held-out seed changes the kind mix", name)
		}
	}
}

// sameMix reports whether two job lists carry the same count of each kind.
func sameMix(a, b *workload) bool {
	ma, mb := kindMix(a.jobs), kindMix(b.jobs)
	if len(ma) != len(mb) {
		return false
	}
	for k, n := range ma {
		if mb[k] != n {
			return false
		}
	}
	return true
}

func kindMix(jobs []engine.JobSpec) map[engine.Kind]int {
	m := map[engine.Kind]int{}
	for _, j := range jobs {
		m[j.Kind]++
	}
	return m
}
