package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// manifestPath is BENCHMARK.json at the root of the checkout the benchmark
// is run from.
const manifestPath = "BENCHMARK.json"

// runSeconds is the measured length the manifest asks the driver for.
const runSeconds = 10

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestE2E struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestE2E      `json:"end_to_end"`
	PerLayer   []manifestLayer    `json:"per_layer"`
}

// writeManifest rewrites BENCHMARK.json from this program's tables. A bound
// comes from bounds if given there, else from the existing file, else from
// the metric's floor.
func writeManifest(path string, bounds map[string]float64) error {
	old := map[string]float64{}
	if b, err := os.ReadFile(path); err == nil {
		var m manifest
		if err := json.Unmarshal(b, &m); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for _, e := range m.EndToEnd {
			old[e.Name] = e.Bound
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{w.name, w.why})
	}
	for _, d := range endToEnd {
		bound := d.floor
		if v, ok := old[d.name]; ok {
			bound = v
		}
		if v, ok := bounds[d.name]; ok {
			bound = v
		}
		m.EndToEnd = append(m.EndToEnd, manifestE2E{d.name, d.unit, d.better, bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestLayer{d.name, d.unit, d.better})
	}
	return writeJSON(path, m)
}

// calibrate runs the untraced suite N times on one commit with seeds
// seed..seed+N-1, prints per metric × workload the median and the spread,
// and writes each bound as max(floor, 3 × widest spread), capped at the
// contract's 0.25. The spread is (max − min) ÷ median, or with four runs
// or more the interquartile distance ÷ median, which is what the driver
// checks.
func calibrate(o options, out io.Writer) error {
	env := printHeader(out, o)
	if env.Dirty {
		return errors.New("-calibrate refused: the tree is dirty or the commit unknown, so the bounds could not be tied to a commit")
	}
	if o.calibrate < 2 {
		return errors.New("-calibrate needs at least 2 runs")
	}
	values := map[string]map[string][]float64{} // workload → metric → one value per run
	for i := 0; i < o.calibrate; i++ {
		for _, w := range o.workloads {
			r, err := run(runConfig{w: w, seed: o.seed + uint64(i), seconds: o.seconds, setups: o.setups})
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if r.Failed > 0 {
				return fmt.Errorf("%s seed %d: %d of %d ops failed: %v", w.name, r.Seed, r.Failed, r.Attempted, r.Errors)
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for name, v := range r.E2E {
				values[w.name][name] = append(values[w.name][name], v)
			}
			fmt.Fprintf(out, "run %d/%d %s done\n", i+1, o.calibrate, w.name)
		}
	}
	bounds := map[string]float64{}
	fmt.Fprintf(out, "\n%-26s %-18s %14s %8s\n", "metric", "workload", "median", "spread")
	for _, d := range endToEnd {
		widest := 0.0
		for _, w := range o.workloads {
			vs := values[w.name][d.name]
			s := spread(vs)
			widest = math.Max(widest, s)
			fmt.Fprintf(out, "%-26s %-18s %14.6g %7.2f%%\n", d.name, w.name, medianOf(vs), 100*s)
		}
		bounds[d.name] = math.Min(maxBound, math.Max(d.floor, math.Ceil(3*widest*1000)/1000))
		fmt.Fprintf(out, "%-26s bound %.3f (floor %.2f, widest spread %.2f%%)\n", d.name, bounds[d.name], d.floor, 100*widest)
		// The driver does not hold set-up time to the spread rule.
		if d.name != "setup_s" && 3*widest > maxBound {
			fmt.Fprintf(out, "%-26s SPREAD TOO WIDE for any accepted bound: lengthen the segments or demote the metric\n", d.name)
		}
	}
	return writeManifest(manifestPath, bounds)
}

// spread is the run-to-run spread of vs as a share of their median.
func spread(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	med := medianOf(s)
	if len(s) < 4 {
		return (s[len(s)-1] - s[0]) / med
	}
	q1, q3 := quartiles(s)
	return (q3 - q1) / med
}

// quartiles returns the first and third quartile of sorted values the way
// Python's statistics.quantiles(values, n=4) does (exclusive method).
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
	}
	return at(1), at(3)
}
