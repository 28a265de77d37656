// Command e2ebench is the repository's end-to-end benchmark: it boots
// xbarserver as a separate process on a seeded journal, drives one
// workload's fixed job list through the HTTP API, checks every result and
// prints submit→result latency, throughput, server CPU and memory per job.
// With --trace 1 it prints the per-layer metrics instead: server-side
// counters from /metrics and MemStats, and a traced in-process replay of
// the same jobs split by layer. Run it from the repository root through
// run.sh, which builds both programs from source:
//
//	bash e2ebench/run.sh --workload synth-unique --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct","attempted","failed","metrics":{name:{"value","unit"}}}.
// See README.md for the workloads, metrics and seeds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/engine"
)

// bootCount servers are booted per run; setup_s is the median of their
// start-up times and the last one serves the workload.
const bootCount = 7

// Paths relative to the repository root, where run.sh starts the
// benchmark: the build and scratch directory, and the expected results.
const (
	buildDir     = ".bench_build"
	expectedPath = "e2ebench/" + expectedFile
)

// journalRecords is the size of the seeded journal every boot replays.
const journalRecords = 40000

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	clients  int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace, steady int
	var writeExpected bool
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, fmt.Sprintf("job-list seed (pinned default %d, held-out %d)", defaultSeed, heldOutSeed))
	flag.IntVar(&cfg.seconds, "seconds", expectedSeconds, "nominal run length in seconds; sizes the job list")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics (server counters and a traced replay) instead of end-to-end ones")
	flag.IntVar(&steady, "steady", 0, "steadiness mode: run the workload this many times on successive seeds and print each metric's median, quartiles and spread against its bound")
	flag.BoolVar(&writeExpected, "write-expected", false, "regenerate "+expectedFile+" from the default seed and exit")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.clients = runtime.NumCPU()
	ctx := context.Background()

	var err error
	switch {
	case writeExpected:
		err = writeExpectedFile(ctx, expectedPath)
	case steady > 0:
		err = steadiness(ctx, cfg, steady, os.Stdout)
	default:
		var res *result
		if res, err = runOnce(ctx, cfg); err == nil {
			var line []byte
			if line, err = json.Marshal(res); err == nil {
				fmt.Println(string(line))
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// runOnce performs one run and assembles the printed result: end-to-end
// metrics, or with cfg.trace the per-layer ones.
func runOnce(ctx context.Context, cfg config) (*result, error) {
	w, m, err := serveRun(ctx, cfg)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: m.attempted, Failed: m.failed, Correct: m.failed == 0}
	if !cfg.trace {
		res.Metrics = m.endToEnd()
		return res, nil
	}
	res.Metrics = m.serverLayers()
	if err := traceLayers(ctx, cfg, w, res.Metrics); err != nil {
		return nil, err
	}
	return res, nil
}

// serveRun boots bootCount servers on copies of the seeded journal, runs
// the timed phase against the last one and checks every result.
func serveRun(ctx context.Context, cfg config) (*workload, *measurement, error) {
	w, err := buildWorkload(cfg.workload, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, nil, err
	}
	exp, err := loadExpected(expectedPath)
	if err != nil {
		return nil, nil, err
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "xbarserver"))
	if err != nil {
		return nil, nil, err
	}
	if _, err := os.Stat(bin); err != nil {
		return nil, nil, fmt.Errorf("xbarserver not built (run through run.sh): %w", err)
	}
	// run.sh has just rewritten both binaries. Writing them back during the
	// timed phase would stall the server's journal fsyncs, so flush them now.
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	for _, path := range []string{bin, exe} {
		if err := syncPath(path); err != nil {
			return nil, nil, err
		}
	}
	seedJournal, err := ensureJournal(ctx, buildDir)
	if err != nil {
		return nil, nil, err
	}
	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(work)

	setups := make([]float64, 0, bootCount)
	var srv *server
	for i := range bootCount {
		s, d, err := bootServer(bin, seedJournal, work, i)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
		if i < bootCount-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	m, err := measure(ctx, cfg, w, srv, exp)
	srv.stop()
	if err != nil {
		return nil, nil, err
	}
	m.setupS = median(setups)
	fmt.Fprintf(os.Stderr, "e2ebench: %s seed %d: boots %.3f s, median %.3f s\n", w.name, cfg.seed, setups, m.setupS)
	return w, m, nil
}

// measurement is everything the timed phase yields.
type measurement struct {
	attempted, completed, correct, failed int
	wall                                  time.Duration
	// latMS holds the completion latencies of each window, sorted;
	// ackMS and lagMS are sorted per batch.
	latMS                 [][]float64
	ackMS, lagMS          []float64
	serverCPU, genCPU     time.Duration
	heapBefore, heapAfter map[string]float64
	metBefore, metAfter   map[string]float64
	setupS                float64
	stealRatio            float64
}

// measure warms the server's connections, then runs the timed phase with
// counters read on both sides, then checks every result.
func measure(ctx context.Context, cfg config, w *workload, srv *server, exp map[string]expectation) (*measurement, error) {
	clients := make([]*client, cfg.clients)
	for i := range clients {
		clients[i] = newClient(srv.base)
		defer clients[i].close()
	}
	// Warm-up jobs come from the journal's stream, past the records the
	// journal holds, so they are new to the server and to every workload.
	var warmJobs []engine.JobSpec
	for i := range 4 * len(clients) {
		warmJobs = append(warmJobs, journalJob(journalRecords+i))
	}
	warm := closedWorkload("warm-up", warmJobs)
	for b, e := range drive(ctx, warm, clients).errs {
		if e != "" {
			return nil, fmt.Errorf("warm-up batch %d: %s", b, e)
		}
	}
	m := &measurement{attempted: len(w.jobs)}
	var err error
	if m.metBefore, err = srv.scrape(ctx); err != nil {
		return nil, err
	}
	if m.heapBefore, err = srv.memStats(ctx); err != nil {
		return nil, err
	}
	cpu0, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	gen0, host0 := selfCPU(), hostCPU()

	rec := drive(ctx, w, clients)

	gen1, host1 := selfCPU(), hostCPU()
	cpu1, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	if m.heapAfter, err = srv.memStats(ctx); err != nil {
		return nil, err
	}
	if m.metAfter, err = srv.scrape(ctx); err != nil {
		return nil, err
	}
	m.serverCPU, m.genCPU = cpu1-cpu0, gen1-gen0
	if total := host1.total - host0.total; total > 0 {
		m.stealRatio = float64(host1.steal-host0.steal) / float64(total)
	}
	m.tally(w, rec, exp)
	return m, nil
}

// tally checks every job's result and collects the latency samples. A job
// whose result is missing, errored or wrong counts as failed and as
// missing every latency limit.
func (m *measurement) tally(w *workload, rec *record, exp map[string]expectation) {
	m.wall = rec.end.Sub(rec.start)
	batchOf := make([]int, len(w.jobs))
	for b, p := range w.batches {
		for j := p.lo; j < p.hi; j++ {
			batchOf[j] = b
		}
		m.ackMS = append(m.ackMS, ms(rec.ack[b]))
		m.lagMS = append(m.lagMS, ms(rec.lag[b]))
		if rec.errs[b] != "" {
			fmt.Fprintf(os.Stderr, "e2ebench: batch %d: %s\n", b, rec.errs[b])
		}
	}
	m.latMS = make([][]float64, windows(w))
	for j, spec := range w.jobs {
		win := &m.latMS[windowOf(w, batchOf[j])]
		if rec.raw[j] == nil {
			m.failed++
			*win = append(*win, posInf)
			continue
		}
		m.completed++
		var r engine.JobResult
		err := json.Unmarshal(rec.raw[j], &r)
		if err == nil {
			err = checkResult(spec, r, exp)
		}
		if err != nil {
			if m.failed < 5 {
				fmt.Fprintf(os.Stderr, "e2ebench: job %d (%s %s): %v\n", j, spec.Kind, specKey(spec), err)
			}
			m.failed++
			*win = append(*win, posInf)
			continue
		}
		m.correct++
		*win = append(*win, ms(rec.done[j].Sub(rec.ref[batchOf[j]])))
	}
	for _, win := range m.latMS {
		sort.Float64s(win)
	}
	sort.Float64s(m.ackMS)
	sort.Float64s(m.lagMS)
}

// An open-loop run is cut into windows of openWindow by scheduled send
// time, and its latency percentiles are the median over windows of each
// window's percentile: a second of host or disk stall then moves one
// window, not the reported figure. Every window holds about 1,750 jobs,
// so each window's p99 has more than ten samples beyond it. A closed-loop
// run is one window.
const openWindow = 2500 * time.Millisecond

func windows(w *workload) int {
	if !w.open {
		return 1
	}
	last := w.batches[len(w.batches)-1].at
	return max(1, int(math.Round(float64(last)/float64(openWindow))))
}

// windowOf folds the schedule's ragged end into the last window.
func windowOf(w *workload, b int) int {
	if !w.open {
		return 0
	}
	return min(int(w.batches[b].at/openWindow), windows(w)-1)
}

func (m *measurement) windowPercentile(q float64) float64 {
	var per []float64
	for _, win := range m.latMS {
		if len(win) > 0 {
			per = append(per, percentile(win, q))
		}
	}
	return median(per)
}

// posInf stands in for the latency of a failed job: it sorts above every
// real sample and stays finite for JSON.
var posInf = float64(1 << 62)

func (m *measurement) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":           {m.setupS, "s"},
		"completion_p50_ms": {m.windowPercentile(0.50), "ms"},
		"completion_p99_ms": {m.windowPercentile(0.99), "ms"},
		"jobs_per_s":        {float64(m.correct) / m.wall.Seconds(), "1/s"},
		"success_ratio":     {float64(m.correct) / float64(m.attempted), "ratio"},
		"cpu_ms_per_job":    {ms(m.serverCPU) / float64(max(m.completed, 1)), "ms"},
		"live_heap_mb":      {m.heapAfter["HeapInuse"] / (1 << 20), "MiB"},
	}
}

// serverLayers are the per-layer metrics of the server run: deltas of the
// server's own counters around the timed phase, and the generator's
// health.
func (m *measurement) serverLayers() map[string]metric {
	d := func(name string) float64 { return sumSeries(m.metAfter, name) - sumSeries(m.metBefore, name) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	jobs := float64(max(m.completed, 1))
	hits, misses := d("xbar_engine_cache_hits_total"), d("xbar_engine_cache_misses_total")
	heap := func(k string) float64 { return m.heapAfter[k] - m.heapBefore[k] }
	out := map[string]metric{
		"engine.queue_wait_ms":       {1000 * ratio(d("xbar_engine_queue_wait_seconds_sum"), d("xbar_engine_queue_wait_seconds_count")), "ms"},
		"engine.cache_hit_ratio":     {ratio(hits, hits+misses), "ratio"},
		"engine.dedup_joins":         {d("xbar_engine_dedup_total"), "count"},
		"http.ack_ms_p50":            {percentile(m.ackMS, 0.50), "ms"},
		"http.ack_ms_p99":            {percentile(m.ackMS, 0.99), "ms"},
		"journal.commit_ms":          {1000 * ratio(d("xbar_journal_commit_seconds_sum"), d("xbar_journal_commit_seconds_count")), "ms"},
		"journal.records_per_commit": {ratio(d("xbar_journal_commit_records_sum"), d("xbar_journal_commit_records_count")), "count"},
		"runtime.allocs_per_job":     {heap("Mallocs") / jobs, "count"},
		"runtime.alloc_kb_per_job":   {heap("TotalAlloc") / 1024 / jobs, "KiB"},
		// The closing MemStats read forces two collections; they are not
		// the workload's.
		"runtime.gc_per_1k_jobs":  {1000 * (heap("NumGC") - 2) / jobs, "count"},
		"loadgen.cpu_ms_per_job":  {ms(m.genCPU) / jobs, "ms"},
		"loadgen.send_lag_p99_ms": {percentile(m.lagMS, 0.99), "ms"},
		// CPU time the hypervisor gave to other guests: a run that lost
		// much of it is slow for reasons outside the program.
		"host.steal_ratio": {m.stealRatio, "ratio"},
	}
	for _, k := range []engine.Kind{engine.SynthTwoLevel, engine.SynthMultiLevel, engine.MapHBA, engine.MapEA, engine.MonteCarloYield} {
		label := fmt.Sprintf(`{kind=%q}`, k)
		out["engine.exec_ms."+string(k)] = metric{1000 * ratio(
			d("xbar_engine_job_seconds_sum"+label), d("xbar_engine_job_seconds_count"+label)), "ms"}
	}
	return out
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type cpuTicks struct{ total, steal int64 }

// hostCPU reads the machine-wide CPU tick counters from /proc/stat.
func hostCPU() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var t cpuTicks
	for i, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil || i >= 8 {
			break // guest time is already counted in user time
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
