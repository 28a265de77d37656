package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/suite"
)

// expectation holds the paper-fixed fields of one result: geometry for
// every kind, validity for single mappings, Psucc for Monte Carlo. EA
// placements are not pinned: a different exact matcher may legitimately
// choose another valid assignment.
type expectation struct {
	kind             engine.Kind
	rows, cols, area int
	valid            bool
	psucc            float64
}

// expectedFile lists the expected fields of every job the default seed
// generates at the benchmark's run length, plus the whole serve-repeat
// spec space, keyed by the first 16 hex digits of the spec's canonical
// hash. It is written by -write-expected.
const expectedFile = "expected.tsv"

func specKey(s engine.JobSpec) string { return s.CanonicalHash()[:16] }

func loadExpected(path string) (map[string]expectation, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	exp := make(map[string]expectation)
	sc := bufio.NewScanner(bytes.NewReader(data))
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		f := strings.Split(line, "\t")
		if len(f) != 7 {
			return nil, fmt.Errorf("%s:%d: want 7 tab-separated fields", path, n)
		}
		var e expectation
		var errs [5]error
		e.kind = engine.Kind(f[1])
		e.rows, errs[0] = strconv.Atoi(f[2])
		e.cols, errs[1] = strconv.Atoi(f[3])
		e.area, errs[2] = strconv.Atoi(f[4])
		e.valid, errs[3] = strconv.ParseBool(f[5])
		e.psucc, errs[4] = strconv.ParseFloat(f[6], 64)
		for _, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %v", path, n, err)
			}
		}
		exp[f[0]] = e
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return exp, checkAnchors(exp)
}

// checkAnchors ties the expected file to the paper: the unminimized
// two-level areas of the Table I anchors it holds must be the published
// ones (rd53: 544).
func checkAnchors(exp map[string]expectation) error {
	for name, area := range table1Anchors {
		e, ok := exp[specKey(engine.JobSpec{Kind: engine.SynthTwoLevel, Benchmark: name})]
		if !ok {
			return fmt.Errorf("expected file lacks the Table I anchor %s", name)
		}
		if e.area != area {
			return fmt.Errorf("expected file gives %s two-level area %d; Table I says %d", name, e.area, area)
		}
	}
	return nil
}

func formatExpectation(key string, r engine.JobResult) string {
	return fmt.Sprintf("%s\t%s\t%d\t%d\t%d\t%t\t%s", key, r.Kind, r.Rows, r.Cols, r.Area, r.Valid,
		strconv.FormatFloat(r.Psucc, 'g', -1, 64))
}

// checkResult applies the structural invariants to every result and, when
// the spec is in exp, compares the paper-fixed fields.
func checkResult(spec engine.JobSpec, r engine.JobResult, exp map[string]expectation) error {
	if r.Err != "" {
		return fmt.Errorf("job failed: %s", r.Err)
	}
	if r.Kind != spec.Kind {
		return fmt.Errorf("kind %q, submitted %q", r.Kind, spec.Kind)
	}
	if r.Rows <= 0 || r.Cols <= 0 || r.Area != r.Rows*r.Cols {
		return fmt.Errorf("area %d != rows %d × cols %d", r.Area, r.Rows, r.Cols)
	}
	if !(r.IR > 0 && r.IR <= 1) {
		return fmt.Errorf("inclusion ratio %v outside (0, 1]", r.IR)
	}
	if twoLevelLayout(spec) {
		in, out, err := dims(spec)
		if err != nil {
			return err
		}
		if r.Cols != 2*(in+out) {
			return fmt.Errorf("two-level cols %d != 2(in %d + out %d)", r.Cols, in, out)
		}
	}
	switch spec.Kind {
	case engine.MonteCarloYield:
		want := spec.Samples
		if want == 0 {
			want = 200
		}
		if r.Samples != want {
			return fmt.Errorf("samples %d echoed, %d requested", r.Samples, want)
		}
		if !(r.Psucc >= 0 && r.Psucc <= 1) {
			return fmt.Errorf("psucc %v outside [0, 1]", r.Psucc)
		}
	case engine.MapHBA:
		if r.Valid {
			if err := checkPlacement(r.Assignment, r.Rows, r.Rows+spec.SpareRows); err != nil {
				return err
			}
		}
	}
	e, ok := exp[specKey(spec)]
	if !ok {
		return nil
	}
	if e.kind != r.Kind || e.rows != r.Rows || e.cols != r.Cols || e.area != r.Area {
		return fmt.Errorf("got %s %dx%d area %d, expected %s %dx%d area %d",
			r.Kind, r.Rows, r.Cols, r.Area, e.kind, e.rows, e.cols, e.area)
	}
	if e.valid != r.Valid {
		return fmt.Errorf("valid %t, expected %t", r.Valid, e.valid)
	}
	if e.psucc != r.Psucc {
		return fmt.Errorf("psucc %v, expected %v", r.Psucc, e.psucc)
	}
	return nil
}

// checkPlacement: a valid HBA placement puts each of the layout's rows on
// a distinct physical row.
func checkPlacement(a []int, rows, physical int) error {
	if len(a) != rows {
		return fmt.Errorf("placement of %d rows for a %d-row layout", len(a), rows)
	}
	used := make([]bool, physical)
	for _, p := range a {
		if p < 0 || p >= physical || used[p] {
			return fmt.Errorf("placement row %d out of range or reused", p)
		}
		used[p] = true
	}
	return nil
}

func twoLevelLayout(s engine.JobSpec) bool {
	switch s.Kind {
	case engine.SynthTwoLevel:
		return true
	case engine.MapHBA, engine.MapEA, engine.MonteCarloYield:
		return s.Style == "" || s.Style == engine.StyleTwoLevel
	}
	return false
}

func dims(s engine.JobSpec) (in, out int, err error) {
	if s.Benchmark == "" {
		return s.Inputs, s.Outputs, nil
	}
	c, ok := suite.ByName(s.Benchmark)
	if !ok {
		return 0, 0, fmt.Errorf("unknown benchmark %q", s.Benchmark)
	}
	return c.Inputs, c.Outputs, nil
}

// writeExpectedFile runs every job the default seed generates at the
// benchmark's run length, and the serve-repeat spec space, through
// engine.Execute and writes their paper-fixed fields.
func writeExpectedFile(ctx context.Context, path string) error {
	var specs []engine.JobSpec
	for _, name := range workloadNames {
		w, err := buildWorkload(name, defaultSeed, expectedSeconds)
		if err != nil {
			return err
		}
		specs = append(specs, w.jobs...)
	}
	specs = distinctJobs(append(specs, serveSpace()...))
	lines := make([]string, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	var errOnce sync.Once
	var firstErr error
	for range runtime.NumCPU() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(specs) {
					return
				}
				r := engine.Execute(ctx, specs[i])
				if err := checkResult(specs[i], r, nil); err != nil {
					errOnce.Do(func() { firstErr = fmt.Errorf("job %s: %w", specKey(specs[i]), err) })
				}
				lines[i] = formatExpectation(specKey(specs[i]), r)
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	sort.Strings(lines)
	header := fmt.Sprintf("# key\tkind\trows\tcols\tarea\tvalid\tpsucc — default seed %d at --seconds %d, plus the serve-repeat spec space; written by e2ebench -write-expected\n",
		defaultSeed, expectedSeconds)
	if err := os.WriteFile(path, []byte(header+strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		return err
	}
	_, err := loadExpected(path)
	return err
}

// expectedSeconds is the run length the expected file covers; it matches
// run_seconds in BENCHMARK.json.
const expectedSeconds = 30
