package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// steadiness runs the workload n times on seeds cfg.seed, cfg.seed+1, …
// and prints, for every end-to-end metric and every server-side per-layer
// metric (the generator's own health among them), the median, the
// quartiles and the spread (q3−q1)/median, against the metric's bound in
// BENCHMARK.json where it has one. A spread near its bound means the
// metric cannot resolve a change of that size; a large generator lag or
// CPU per job means the generator, not the server, is noisy, and a noisy
// layer metric shows where an end-to-end spread comes from.
func steadiness(ctx context.Context, cfg config, n int, out io.Writer) error {
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := range n {
		run := cfg
		run.seed = cfg.seed + int64(i)
		_, m, err := serveRun(ctx, run)
		if err != nil {
			return err
		}
		ms := m.endToEnd()
		for k, v := range m.serverLayers() {
			ms[k] = v
		}
		for k, v := range ms {
			values[k] = append(values[k], v.Value)
			units[k] = v.Unit
		}
		fmt.Fprintf(os.Stderr, "steady: run %d/%d seed %d: p50 %.2f ms, jobs/s %.2f, failed %d\n",
			i+1, n, run.seed, ms["completion_p50_ms"].Value, ms["jobs_per_s"].Value, m.failed)
	}
	fmt.Fprintf(out, "%s: %d runs from seed %d\n", cfg.workload, n, cfg.seed)
	fmt.Fprintf(out, "%-26s %6s %12s %12s %12s %8s %7s\n", "metric", "unit", "median", "q1", "q3", "spread", "bound")
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		med := median(values[k])
		q1, q3 := quartiles(values[k])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		bound := "-"
		if b, ok := bounds[k]; ok {
			bound = fmt.Sprintf("%.3f", b)
			if spread > b/3 {
				bound += " !"
			}
		}
		fmt.Fprintf(out, "%-26s %6s %12.4f %12.4f %12.4f %8.4f %7s\n", k, units[k], med, q1, q3, spread, bound)
	}
	return nil
}

// quartiles follows Python's statistics.quantiles(xs, n=4), the
// 'exclusive' method.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	q := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func readBounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]float64, len(b.EndToEnd))
	for _, m := range b.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}
