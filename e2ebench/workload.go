package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"time"

	"repro/internal/engine"
)

// A workload is a fixed job list generated from the seed before timing
// starts, cut into batches whose request bodies are encoded up front. The
// same seed and length always give the same list. In the closed-loop
// workloads job i depends only on (seed, i), so a longer list extends a
// shorter one, and every block of jobs carries the workload's exact kind
// mix, so any seed runs the same mix.
type workload struct {
	name string
	// open selects an open loop that sends each batch at its scheduled
	// time; otherwise clients each keep one batch in flight.
	open bool
	jobs []engine.JobSpec
	// batches holds job index ranges [lo, hi) in submission order.
	batches []batchPlan
}

type batchPlan struct {
	lo, hi int
	body   []byte
	// at is the scheduled send offset from the start of an open-loop run.
	at time.Duration
}

// Seeds. defaultSeed is the pinned seed the expected-results file covers;
// heldOutSeed gives a different job list with the same mix and is kept out
// of tuning so a claimed gain can be re-checked on it. journalSeed drives
// the untimed journal every boot replays; it is fixed so set-up does the
// same work whatever --seed a run uses.
const (
	defaultSeed = 1
	heldOutSeed = 7
	journalSeed = 0x5eed
)

// Job-list sizes. Closed-loop lists are sized from --seconds at a nominal
// rate close to the measured throughput on a 2-CPU x86-64 box, so a run
// lasts about --seconds there and does identical work everywhere; minJobs
// keeps at least ten samples beyond p99. Lists are whole blocks, so every
// seed runs exactly the same mix.
const (
	minJobs            = 1100
	synthJobsPerSecond = 70
	yieldJobsPerSecond = 50
	// serveBatchesPerSecond is the open-loop arrival rate. The generator's
	// nproc connections each hold a batch until its last result, and every
	// miss waits for its own journal fsync; on the same box 250 batches/s
	// already left the generator far behind schedule whenever fsyncs slowed.
	serveBatchesPerSecond = 100
)

var workloadNames = []string{"synth-unique", "yield-table2", "serve-repeat"}

func buildWorkload(name string, seed int64, seconds int) (*workload, error) {
	switch name {
	case "synth-unique":
		return closedWorkload(name, synthUniqueJobs(seed, closedJobCount(synthJobsPerSecond, seconds, synthBlock))), nil
	case "yield-table2":
		return closedWorkload(name, yieldTable2Jobs(seed, closedJobCount(yieldJobsPerSecond, seconds, len(yieldSlots())))), nil
	case "serve-repeat":
		return serveRepeat(seed, seconds), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func closedJobCount(perSecond, seconds, block int) int {
	n := max(minJobs, perSecond*seconds)
	return (n + block - 1) / block * block
}

// closedWorkload submits every job as its own single-job batch.
func closedWorkload(name string, jobs []engine.JobSpec) *workload {
	w := &workload{name: name, jobs: jobs}
	for i := range jobs {
		w.batches = append(w.batches, batchPlan{lo: i, hi: i + 1, body: encodeBatch(jobs[i : i+1])})
	}
	return w
}

func encodeBatch(specs []engine.JobSpec) []byte {
	body, err := json.Marshal(engine.SubmitRequest{Jobs: specs})
	if err != nil {
		panic(err) // plain data: cannot fail
	}
	return body
}

// subRand is the deterministic stream for element i of a seeded sequence;
// stream separates independent uses of one seed.
func subRand(seed int64, stream, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)*7_919_000_001 + int64(i)))
}

// blockSlot returns the position job i takes in its block's mix: each
// block of n jobs is a seeded permutation of the n mix slots.
func blockSlot(seed int64, stream, i, n int) int {
	return subRand(seed, stream, i/n).Perm(n)[i%n]
}

// randomPLA draws a multi-output function as PLA rows: each input literal
// is a don't-care with probability dontCare, else 0 or 1; each product
// drives one chosen output plus each other output with probability 1/3.
func randomPLA(r *rand.Rand, in, out, products int, dontCare float64) []string {
	rows := make([]string, products)
	var b strings.Builder
	for p := range rows {
		b.Reset()
		for range in {
			switch x := r.Float64(); {
			case x < dontCare:
				b.WriteByte('-')
			case x < dontCare+(1-dontCare)/2:
				b.WriteByte('0')
			default:
				b.WriteByte('1')
			}
		}
		b.WriteByte(' ')
		must := r.Intn(out)
		for o := range out {
			if o == must || r.Intn(3) == 0 {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		rows[p] = b.String()
	}
	return rows
}

// synthUniqueJobs: distinct random functions of 10–12 inputs, 2–5
// outputs and 40–90 products, minimized, half two-level and half
// multi-level. Every function is unseen, so every job misses the cache and
// runs parse, minimize, synthesis and layout. Each block of synthBlock
// jobs takes the same 10 function sizes for each kind, so seeds differ
// only in the functions' literals, not in how large they are.
const synthBlock = 20

func synthUniqueJobs(seed int64, n int) []engine.JobSpec {
	jobs := make([]engine.JobSpec, n)
	for i := range jobs {
		slot := blockSlot(seed, 2, i, synthBlock)
		kind, size := engine.SynthTwoLevel, slot/2
		if slot%2 == 1 {
			kind = engine.SynthMultiLevel
		}
		in, out, products := 10+size%3, 2+size%4, 40+50*size/9
		jobs[i] = engine.JobSpec{
			Kind:     kind,
			Inputs:   in,
			Outputs:  out,
			Rows:     randomPLA(subRand(seed, 1, i), in, out, products, 0.6),
			Minimize: true,
		}
	}
	return jobs
}

// table2Circuits are the Table II circuits from rd53 through ex1010; the
// three whose minimization alone takes 0.15–1.8 s (table3, apex4, alu4)
// would set p99 by themselves and are left out, as are misex3c and exp5
// that follow table3 in the paper's order.
var table2Circuits = []string{"rd53", "squar5", "bw", "inc", "misex1", "sqrt8", "sao2", "rd73", "clip", "rd84", "ex1010"}

// yieldMix is one circuit's share of a yield-table2 block. EA carries the
// largest weight so the exact mapper holds about a third of the CPU.
var yieldMix = []struct {
	kind  engine.Kind
	count int
}{{engine.MonteCarloYield, 4}, {engine.MapHBA, 3}, {engine.MapEA, 13}}

// yieldTable2Jobs: Monte Carlo yield (HBA, 50 samples) and single HBA/EA
// mappings of the minimized Table II circuits at 10% stuck-open defects,
// each with a fresh defect seed so no job repeats.
func yieldTable2Jobs(seed int64, n int) []engine.JobSpec {
	slots := yieldSlots()
	jobs := make([]engine.JobSpec, n)
	for i := range jobs {
		s := slots[blockSlot(seed, 3, i, len(slots))]
		spec := engine.JobSpec{
			Kind:      s.kind,
			Benchmark: s.circuit,
			Minimize:  true,
			OpenRate:  0.10,
			Seed:      subRand(seed, 4, i).Int63(),
		}
		if s.kind == engine.MonteCarloYield {
			spec.Samples = 50
			spec.Algorithm = "HBA"
		}
		jobs[i] = spec
	}
	return jobs
}

type yieldSlot struct {
	kind    engine.Kind
	circuit string
}

// yieldSlots is one yield-table2 block: every circuit's share of the mix.
func yieldSlots() []yieldSlot {
	var slots []yieldSlot
	for _, c := range table2Circuits {
		for _, m := range yieldMix {
			for range m.count {
				slots = append(slots, yieldSlot{m.kind, c})
			}
		}
	}
	return slots
}

// Serve-repeat spec space: fixed, whatever the seed, so every result it
// can produce is in the expected file. It is about four times the
// server's default 1024-entry result cache.
const (
	serveSpecs     = 4096
	serveSpaceSeed = 0x5e7e
	// Spec popularity is Zipf-like, P(rank k) ∝ (serveZipfV+k)^−serveZipfS;
	// against the server's sharded 1024-entry cache about half the jobs hit
	// the cache or join an in-flight twin.
	serveZipfS = 1.1
	serveZipfV = 100
)

// table1Anchors are Table I circuits whose unminimized two-level area the
// paper publishes; they sit in the serve-repeat spec space so the expected
// file is tied to the paper (see checkAnchors).
var table1Anchors = map[string]int{"rd53": 544, "con1": 198, "misex1": 570, "bw": 3300, "rd84": 6216, "b12": 2496}

var serveMapCircuits = []string{"rd53", "squar5", "misex1", "inc", "sqrt8", "con1"}

// serveSpace returns the cheap specs serve-repeat draws from: the Table I
// anchors, unminimized two-level synthesis of small random functions, and
// single HBA mappings of small circuits under seeded defects.
func serveSpace() []engine.JobSpec {
	var specs []engine.JobSpec
	for _, name := range slices.Sorted(maps.Keys(table1Anchors)) {
		specs = append(specs, engine.JobSpec{Kind: engine.SynthTwoLevel, Benchmark: name})
	}
	for i := 0; len(specs) < serveSpecs; i++ {
		r := subRand(serveSpaceSeed, 5, i)
		if i%2 == 0 {
			in, out, products := 6+r.Intn(4), 1+r.Intn(4), 8+r.Intn(17)
			specs = append(specs, engine.JobSpec{
				Kind: engine.SynthTwoLevel, Inputs: in, Outputs: out,
				Rows: randomPLA(r, in, out, products, 0.4),
			})
			continue
		}
		specs = append(specs, engine.JobSpec{
			Kind:      engine.MapHBA,
			Benchmark: serveMapCircuits[r.Intn(len(serveMapCircuits))],
			OpenRate:  0.10,
			Seed:      r.Int63(),
		})
	}
	return specs
}

// serveRepeat: an open loop of batches of 1, 4 or 16 jobs, one size of
// each per block of three batches, drawn Zipf-like from serveSpace with a
// seeded popularity order, sent on a seeded Poisson schedule.
func serveRepeat(seed int64, seconds int) *workload {
	space := serveSpace()
	rank := subRand(seed, 6, 0).Perm(len(space))
	w := &workload{name: "serve-repeat", open: true}
	nBatches := serveBatchesPerSecond * max(seconds, 1)
	sizes := []int{1, 4, 16}
	zr := subRand(seed, 7, 0)
	zipf := rand.NewZipf(zr, serveZipfS, serveZipfV, uint64(len(space)-1))
	sched := subRand(seed, 8, 0)
	var at float64
	for b := range nBatches {
		size := sizes[blockSlot(seed, 9, b, len(sizes))]
		lo := len(w.jobs)
		for range size {
			w.jobs = append(w.jobs, space[rank[zipf.Uint64()]])
		}
		w.batches = append(w.batches, batchPlan{
			lo: lo, hi: len(w.jobs),
			body: encodeBatch(w.jobs[lo:]),
			at:   time.Duration(at * float64(time.Second)),
		})
		at += sched.ExpFloat64() / serveBatchesPerSecond
	}
	return w
}

// journalJob is job i of the cheap, distinct jobs whose results fill the
// journal every boot replays. They come from journalSeed, so none of them
// is a workload job.
func journalJob(i int) engine.JobSpec {
	r := subRand(journalSeed, 10, i)
	if i%2 == 0 {
		in, out, products := 5+r.Intn(4), 1+r.Intn(3), 4+r.Intn(9)
		return engine.JobSpec{Kind: engine.SynthTwoLevel, Inputs: in, Outputs: out,
			Rows: randomPLA(r, in, out, products, 0.4)}
	}
	return engine.JobSpec{Kind: engine.MapHBA, Benchmark: serveMapCircuits[r.Intn(len(serveMapCircuits))],
		OpenRate: 0.10, Seed: r.Int63()}
}

// distinctJobs returns the first occurrence of every distinct spec, in
// list order: the work the engine executes when its cache keeps
// everything.
func distinctJobs(jobs []engine.JobSpec) []engine.JobSpec {
	seen := make(map[string]bool, len(jobs))
	var out []engine.JobSpec
	for _, j := range jobs {
		if k := j.CanonicalHash(); !seen[k] {
			seen[k] = true
			out = append(out, j)
		}
	}
	return out
}

// percentile returns the q-quantile (0..1) of sorted xs by nearest rank.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}
