package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/defect"
	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/logic"
	"repro/internal/mapping"
	"repro/internal/minimize"
	"repro/internal/montecarlo"
	"repro/internal/suite"
	"repro/internal/synth"
	"repro/internal/xbar"
)

// The traced run replays a workload's distinct jobs in this process. For
// each job it calls the public layer functions in the order engine.Execute
// does (jobs.go in internal/engine), with a span around each call. The
// mirror must stay in step with Execute; the fidelity check below (and
// mirror_test.go) compares results and time against Execute itself.

// layers are the spans the traced run records, outermost last.
var layers = []string{
	"logic.parse", "minimize", "synth.multilevel", "xbar.layout",
	"defect.generate", "mapping.problem", "mapping.hba", "mapping.exact",
	"montecarlo.harness", "engine.execute",
}

type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a job's root span
	Job    int    `json:"job"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// mapCounts are the exact counts taken at the mapper span boundaries.
type mapCounts struct {
	hbaCalls, matchChecks, backtracks int64
	mapCalls, mapValid                int64
}

func (c *mapCounts) add(o mapCounts) {
	c.hbaCalls += o.hbaCalls
	c.matchChecks += o.matchChecks
	c.backtracks += o.backtracks
	c.mapCalls += o.mapCalls
	c.mapValid += o.mapValid
}

// tracer records the spans of one goroutine's jobs, plus the mapping
// counts taken at the same boundaries.
type tracer struct {
	t0      time.Time
	job     int
	spans   []span
	stack   []int
	scratch *mapping.Scratch
	mapCounts
}

func newTracer(t0 time.Time) *tracer {
	return &tracer{t0: t0, scratch: mapping.NewScratch()}
}

func (t *tracer) begin(name string) {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Job: t.job, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
}

func (t *tracer) end() {
	id := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].End = int64(time.Since(t.t0))
}

// execute mirrors engine.Execute.
func (t *tracer) execute(ctx context.Context, spec engine.JobSpec) engine.JobResult {
	t.begin("engine.execute")
	defer t.end()
	start := time.Now()
	var res engine.JobResult
	var err error
	switch spec.Kind {
	case engine.SynthTwoLevel:
		res, err = t.synthTwoLevel(spec)
	case engine.SynthMultiLevel:
		res, err = t.synthMultiLevel(spec)
	case engine.MapHBA, engine.MapEA:
		res, err = t.mapOne(spec)
	case engine.MonteCarloYield:
		res, err = t.monteCarlo(ctx, spec)
	default:
		err = fmt.Errorf("engine: unknown job kind %q", spec.Kind)
	}
	res.Kind = spec.Kind
	res.Elapsed = time.Since(start)
	if err != nil {
		res.Err = err.Error()
	}
	return res
}

func (t *tracer) buildCover(spec engine.JobSpec) (*logic.Cover, error) {
	var c *logic.Cover
	switch {
	case spec.Benchmark != "":
		circuit, ok := suite.ByName(spec.Benchmark)
		if !ok {
			return nil, fmt.Errorf("engine: unknown benchmark %q", spec.Benchmark)
		}
		t.begin("logic.parse")
		c = circuit.Build()
		t.end()
	case len(spec.Rows) > 0:
		t.begin("logic.parse")
		parsed, err := logic.ParseCover(spec.Inputs, spec.Outputs, spec.Rows...)
		t.end()
		if err != nil {
			return nil, fmt.Errorf("engine: bad rows: %v", err)
		}
		c = parsed
	default:
		return nil, fmt.Errorf("engine: job has no function (set cover, benchmark, or rows)")
	}
	if spec.Minimize {
		t.begin("minimize")
		c = minimize.Minimize(c, minimize.Options{MaxIterations: 2})
		t.end()
	}
	return c, nil
}

func (t *tracer) buildLayout(spec engine.JobSpec) (*xbar.Layout, error) {
	c, err := t.buildCover(spec)
	if err != nil {
		return nil, err
	}
	switch spec.Style {
	case "", engine.StyleTwoLevel:
		t.begin("xbar.layout")
		defer t.end()
		return xbar.NewTwoLevel(c)
	case engine.StyleMultiLevel:
		t.begin("synth.multilevel")
		nw, err := synth.SynthesizeMultiLevel(c, synth.MultiLevelOptions{MaxFanin: spec.MaxFanin})
		t.end()
		if err != nil {
			return nil, err
		}
		t.begin("xbar.layout")
		defer t.end()
		return xbar.NewMultiLevel(nw)
	}
	return nil, fmt.Errorf("engine: unknown style %q", spec.Style)
}

func (t *tracer) synthTwoLevel(spec engine.JobSpec) (engine.JobResult, error) {
	c, err := t.buildCover(spec)
	if err != nil {
		return engine.JobResult{}, err
	}
	t.begin("xbar.layout")
	l, err := xbar.NewTwoLevel(c)
	t.end()
	if err != nil {
		return engine.JobResult{}, err
	}
	return engine.JobResult{Rows: l.Rows, Cols: l.Cols, Area: l.Area(), IR: l.InclusionRatio()}, nil
}

func (t *tracer) synthMultiLevel(spec engine.JobSpec) (engine.JobResult, error) {
	c, err := t.buildCover(spec)
	if err != nil {
		return engine.JobResult{}, err
	}
	t.begin("synth.multilevel")
	nw, err := synth.SynthesizeMultiLevel(c, synth.MultiLevelOptions{MaxFanin: spec.MaxFanin, Minimize: spec.Minimize})
	t.end()
	if err != nil {
		return engine.JobResult{}, err
	}
	t.begin("xbar.layout")
	l, err := xbar.NewMultiLevel(nw)
	t.end()
	if err != nil {
		return engine.JobResult{}, err
	}
	cost := synth.MultiLevel(nw)
	return engine.JobResult{
		Rows: l.Rows, Cols: l.Cols, Area: l.Area(), IR: l.InclusionRatio(),
		Gates: cost.Gates, Wires: cost.Wires, Depth: cost.Depth,
	}, nil
}

// mapAlgo resolves a mapper and the span it runs under.
func mapAlgo(name string) (func(*mapping.Problem, *mapping.Scratch) mapping.Result, string, error) {
	switch strings.ToUpper(name) {
	case "", "HBA":
		return mapping.HBAScratch, "mapping.hba", nil
	case "EA", "EXACT":
		return mapping.ExactScratch, "mapping.exact", nil
	case "NAIVE":
		return mapping.NaiveScratch, "mapping.naive", nil
	}
	return nil, "", fmt.Errorf("engine: unknown algorithm %q", name)
}

// runMapper calls one mapper under its span and books the counts.
func (t *tracer) runMapper(algo func(*mapping.Problem, *mapping.Scratch) mapping.Result, name string,
	p *mapping.Problem, s *mapping.Scratch) mapping.Result {
	t.begin(name)
	r := algo(p, s)
	t.end()
	t.mapCalls++
	if r.Valid {
		t.mapValid++
	}
	if name == "mapping.hba" {
		t.hbaCalls++
		t.matchChecks += int64(r.Stats.MatchChecks)
		t.backtracks += int64(r.Stats.Backtracks)
	}
	return r
}

func (t *tracer) mapOne(spec engine.JobSpec) (engine.JobResult, error) {
	if len(spec.DefectMap) > 0 {
		return engine.JobResult{}, fmt.Errorf("traced run: explicit defect maps are not mirrored")
	}
	l, err := t.buildLayout(spec)
	if err != nil {
		return engine.JobResult{}, err
	}
	t.begin("defect.generate")
	dm, err := defect.Generate(l.Rows+spec.SpareRows, l.Cols,
		defect.Params{POpen: spec.OpenRate, PClosed: spec.ClosedRate},
		rand.New(rand.NewSource(spec.Seed)))
	t.end()
	if err != nil {
		return engine.JobResult{}, err
	}
	t.begin("mapping.problem")
	p, err := mapping.NewProblem(l, dm)
	t.end()
	if err != nil {
		return engine.JobResult{}, err
	}
	algo, name := mapping.HBAScratch, "mapping.hba"
	if spec.Kind == engine.MapEA {
		algo, name = mapping.ExactScratch, "mapping.exact"
	}
	r := t.runMapper(algo, name, p, t.scratch)
	var assignment []int
	if r.Assignment != nil {
		assignment = append([]int(nil), r.Assignment...)
	}
	return engine.JobResult{
		Rows: l.Rows, Cols: l.Cols, Area: l.Area(), IR: l.InclusionRatio(),
		Valid: r.Valid, Assignment: assignment, Reason: r.Reason,
		Backtracks: r.Stats.Backtracks, MatchChecks: r.Stats.MatchChecks,
	}, nil
}

func (t *tracer) monteCarlo(ctx context.Context, spec engine.JobSpec) (engine.JobResult, error) {
	l, err := t.buildLayout(spec)
	if err != nil {
		return engine.JobResult{}, err
	}
	algo, name, err := mapAlgo(spec.Algorithm)
	if err != nil {
		return engine.JobResult{}, err
	}
	params := defect.Params{POpen: spec.OpenRate, PClosed: spec.ClosedRate}
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	var trialErr error
	fail := func(err error) {
		if trialErr == nil {
			trialErr = err
		}
		cancelRun()
	}
	t.begin("montecarlo.harness")
	sum, err := montecarlo.RunFactory(montecarlo.Options{
		Samples: spec.Samples,
		Seed:    spec.Seed,
		Context: runCtx,
	}, func() montecarlo.Trial {
		dm := defect.NewMap(l.Rows+spec.SpareRows, l.Cols)
		scratch := mapping.NewScratch()
		t.begin("mapping.problem")
		p, pErr := mapping.NewProblem(l, dm)
		t.end()
		if pErr != nil {
			fail(pErr)
			return func(int, *rand.Rand) montecarlo.Outcome { return montecarlo.Outcome{} }
		}
		return func(i int, rng *rand.Rand) montecarlo.Outcome {
			t.begin("defect.generate")
			genErr := dm.Regenerate(params, rng)
			t.end()
			if genErr != nil {
				fail(genErr)
				return montecarlo.Outcome{}
			}
			start := time.Now()
			r := t.runMapper(algo, name, p, scratch)
			return montecarlo.Outcome{Success: r.Valid, Elapsed: time.Since(start)}
		}
	})
	t.end()
	if trialErr != nil {
		return engine.JobResult{}, trialErr
	}
	if err != nil {
		return engine.JobResult{}, err
	}
	return engine.JobResult{
		Rows: l.Rows, Cols: l.Cols, Area: l.Area(), IR: l.InclusionRatio(),
		Samples: sum.Samples, Psucc: sum.SuccessRate, MeanTime: sum.MeanTime,
	}, nil
}

// layoutKey identifies the layout a job builds: its function, whether it
// is minimized, and the synthesis style. Jobs with equal keys rebuild the
// same layout, which a layout memo would share.
func layoutKey(s engine.JobSpec) string {
	style := s.Style
	switch s.Kind {
	case engine.SynthTwoLevel:
		style = "synth-two-level"
	case engine.SynthMultiLevel:
		style = "synth-multi-level"
	}
	fn := s.Benchmark
	if fn == "" {
		fn = fmt.Sprint(s.Inputs, s.Outputs, s.Rows)
	}
	return fmt.Sprint(fn, "|", s.Minimize, "|", style, "|", s.MaxFanin)
}

// layerStat is one layer's row of the traced-run table.
type layerStat struct {
	calls      int64
	busy, self time.Duration
}

type traceReport struct {
	jobs     int
	layers   map[string]*layerStat
	spans    []span
	results  []engine.JobResult
	counts   mapCounts
	layoutsN int // distinct layout keys
}

// tracedRun executes jobs on workers goroutines with spans and returns the
// per-layer totals and the spans.
func tracedRun(ctx context.Context, jobs []engine.JobSpec, workers int) *traceReport {
	t0 := time.Now()
	tracers := make([]*tracer, workers)
	results := make([]engine.JobResult, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range tracers {
		tr := newTracer(t0)
		tracers[w] = tr
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				tr.job = i
				results[i] = tr.execute(ctx, jobs[i])
			}
		}()
	}
	wg.Wait()
	rep := &traceReport{jobs: len(jobs), layers: make(map[string]*layerStat), results: results}
	for _, name := range layers {
		rep.layers[name] = &layerStat{}
	}
	for _, tr := range tracers {
		base := len(rep.spans)
		child := make([]time.Duration, len(tr.spans))
		for _, s := range tr.spans {
			if s.Parent >= 0 {
				child[s.Parent] += time.Duration(s.End - s.Start)
			}
		}
		for i, s := range tr.spans {
			st := rep.layers[s.Name]
			if st == nil {
				st = &layerStat{}
				rep.layers[s.Name] = st
			}
			d := time.Duration(s.End - s.Start)
			st.calls++
			st.busy += d
			st.self += d - child[i]
			s.ID += base
			if s.Parent >= 0 {
				s.Parent += base
			}
			rep.spans = append(rep.spans, s)
		}
		rep.counts.add(tr.mapCounts)
	}
	keys := make(map[string]bool)
	for _, j := range jobs {
		keys[layoutKey(j)] = true
	}
	rep.layoutsN = len(keys)
	return rep
}

// coverage is the share of engine.execute time its named child layers
// account for.
func (r *traceReport) coverage() float64 {
	ex := r.layers["engine.execute"]
	if ex.busy == 0 {
		return 0
	}
	return 1 - float64(ex.self)/float64(ex.busy)
}

func (r *traceReport) writeTable(w io.Writer, title string) {
	ex := r.layers["engine.execute"].busy
	fmt.Fprintf(w, "traced run: %s, %d jobs, named layers cover %.1f%% of engine.execute\n", title, r.jobs, 100*r.coverage())
	fmt.Fprintf(w, "%-20s %10s %12s %16s %10s\n", "layer", "calls", "busy_ms", "self_ms_per_job", "self_share")
	names := append([]string(nil), layers...)
	for name := range r.layers {
		if !slices.Contains(names, name) {
			names = append(names, name)
		}
	}
	for _, name := range names {
		st := r.layers[name]
		share := 0.0
		if ex > 0 {
			share = float64(st.self) / float64(ex)
		}
		fmt.Fprintf(w, "%-20s %10d %12.1f %16.3f %9.1f%%\n", name, st.calls,
			ms(st.busy), ms(st.self)/float64(max(r.jobs, 1)), 100*share)
	}
}

func (r *traceReport) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(bw)
	sort.SliceStable(r.spans, func(a, b int) bool { return r.spans[a].Start < r.spans[b].Start })
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			//xbar:allow errcheck-durable cleanup on the failed-write path; the write error is what the caller sees
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		//xbar:allow errcheck-durable cleanup on the failed-flush path; the flush error is what the caller sees
		f.Close()
		return err
	}
	return f.Close()
}

// fidelity runs a sample of jobs through engine.Execute and through the
// mirror, reps times each, interleaved. It returns the first result
// mismatch (timing fields aside) and the ratio of the mirror's summed best
// time to Execute's.
func fidelity(ctx context.Context, sample []engine.JobSpec, reps int) (ratio float64, err error) {
	var mirror, direct time.Duration
	tr := newTracer(time.Now())
	for _, spec := range sample {
		bestM, bestD := time.Duration(1<<62), time.Duration(1<<62)
		for range reps {
			// Each timed call starts on a freshly collected heap, so a
			// collection the previous call left due does not land in it.
			runtime.GC()
			start := time.Now()
			want := engine.Execute(ctx, spec)
			bestD = min(bestD, time.Since(start))
			tr.spans, tr.stack = tr.spans[:0], tr.stack[:0]
			runtime.GC()
			start = time.Now()
			got := tr.execute(ctx, spec)
			bestM = min(bestM, time.Since(start))
			if err == nil && !sameResult(got, want) {
				err = fmt.Errorf("mirror of %s job %s differs from engine.Execute:\n mirror %+v\n engine %+v",
					spec.Kind, specKey(spec), got, want)
			}
		}
		mirror += bestM
		direct += bestD
	}
	return float64(mirror) / float64(direct), err
}

// sameResult compares two results apart from their timing fields.
func sameResult(a, b engine.JobResult) bool {
	a.Elapsed, b.Elapsed = 0, 0
	a.MeanTime, b.MeanTime = 0, 0
	return reflect.DeepEqual(a, b)
}

// fidelitySample picks n jobs spread evenly over the list.
func fidelitySample(jobs []engine.JobSpec, n int) []engine.JobSpec {
	if len(jobs) <= n {
		return jobs
	}
	out := make([]engine.JobSpec, n)
	for i := range out {
		out[i] = jobs[i*len(jobs)/n]
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// traceLayers adds the traced replay's per-layer metrics, writes its span
// file and layer table, and times a replay of the seeded journal.
func traceLayers(ctx context.Context, cfg config, w *workload, out map[string]metric) error {
	jobs := distinctJobs(w.jobs)
	ratio, ferr := fidelity(ctx, fidelitySample(jobs, 16), 2)
	if ferr != nil {
		return ferr
	}
	rep := tracedRun(ctx, jobs, cfg.clients)
	stem := filepath.Join(buildDir, fmt.Sprintf("%s-seed%d", w.name, cfg.seed))
	if err := rep.writeSpans(stem + ".spans.jsonl"); err != nil {
		return err
	}
	var table strings.Builder
	rep.writeTable(&table, fmt.Sprintf("%s seed %d", w.name, cfg.seed))
	fmt.Fprintf(&table, "mirror/engine.Execute time on a 16-job sample: %.3f; spans in %s.spans.jsonl\n", ratio, stem)
	if err := os.WriteFile(stem+".layers.txt", []byte(table.String()), 0o644); err != nil {
		return err
	}
	fmt.Fprint(os.Stderr, table.String())

	n := float64(max(rep.jobs, 1))
	for _, name := range layers {
		st := rep.layers[name]
		out[name+".calls"] = metric{float64(st.calls), "count"}
		out[name+".self_ms_per_job"] = metric{ms(st.self) / n, "ms"}
	}
	c := rep.counts
	perCall := func(x int64) float64 { return float64(x) / float64(max(c.hbaCalls, 1)) }
	validRatio := 0.0
	if c.mapCalls > 0 {
		validRatio = float64(c.mapValid) / float64(c.mapCalls)
	}
	out["mapping.hba.match_checks_per_call"] = metric{perCall(c.matchChecks), "count"}
	out["mapping.hba.backtracks_per_call"] = metric{perCall(c.backtracks), "count"}
	out["mapping.valid_ratio"] = metric{validRatio, "ratio"}
	out["xbar.layout_rebuild_ratio"] = metric{float64(len(jobs)) / float64(max(rep.layoutsN, 1)), "ratio"}
	out["trace.layer_coverage"] = metric{rep.coverage(), "ratio"}
	out["trace.mirror_time_ratio"] = metric{ratio, "ratio"}

	seedJournal, err := ensureJournal(ctx, buildDir)
	if err != nil {
		return err
	}
	replay, err := timeReplay(seedJournal, buildDir)
	if err != nil {
		return err
	}
	out["journal.replay_s"] = metric{replay, "s"}
	return nil
}

// timeReplay opens fresh copies of the seeded journal in process and
// decodes every record the way engine start-up does; it returns the median
// of three replays.
func timeReplay(seedJournal, build string) (float64, error) {
	work, err := os.MkdirTemp(build, "replay-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(work)
	var times []float64
	for i := range 3 {
		dir := filepath.Join(work, fmt.Sprintf("replay-%d", i))
		if err := copyDir(seedJournal, dir); err != nil {
			return 0, err
		}
		start := time.Now()
		j, err := journal.Open(dir, journal.Options{})
		if err != nil {
			return 0, err
		}
		n := 0
		err = j.Replay(0, func(rec journal.Record) error {
			var r engine.JobResult
			if err := json.Unmarshal(rec.Value, &r); err != nil {
				return err
			}
			n++
			return nil
		})
		times = append(times, time.Since(start).Seconds())
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, err
		}
		if n != journalRecords {
			return 0, fmt.Errorf("seeded journal replayed %d records, want %d", n, journalRecords)
		}
		if err := os.RemoveAll(dir); err != nil {
			return 0, err
		}
	}
	return median(times), nil
}
