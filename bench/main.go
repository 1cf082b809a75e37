// Command bench is the repository's layered cost/performance benchmark: six
// workloads from device to wire, each measured end to end and, in a traced
// run, layer by layer. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	o, code := parseOptions(os.Args[1:])
	if code == 0 {
		code = dispatch(o, os.Stdout)
	}
	os.Exit(code)
}

type options struct {
	workloads []workload
	seed      uint64
	seconds   float64
	trace     bool
	jsonPath  string
	outDir    string
	smoke     bool
	calibrate int
	manifest  bool
	single    bool // exactly one workload was named: print the driver's result line
	setups    int
	opts      buildOpts // tests inject faults through opts.wrap
}

// parseOptions returns the options and a non-zero exit code on bad usage.
func parseOptions(args []string) (options, int) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	names := fs.String("workload", "", "comma-separated workloads (default: all six)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the op generator")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run (five segments)")
	trace := fs.String("trace", "1", "1: also make the traced run (with one workload: only it); 0: skip it")
	fs.StringVar(&o.jsonPath, "json", "", "write the suite summary JSON here (default <out>/summary.json)")
	fs.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for traces and the summary")
	fs.BoolVar(&o.smoke, "smoke", false, "every workload and the traced run at 1/50 scale: checks wiring, not a measurement")
	fs.IntVar(&o.calibrate, "calibrate", 0, "run the suite N times (seeds seed..seed+N-1) and write bounds into BENCHMARK.json")
	fs.BoolVar(&o.manifest, "manifest", false, "rewrite BENCHMARK.json from this program's tables, keeping its bounds")
	if err := fs.Parse(args); err != nil {
		return o, 2
	}
	switch *trace {
	case "1", "true":
		o.trace = true
	case "0", "false":
	default:
		fmt.Fprintf(os.Stderr, "bench: -trace takes 0 or 1, not %q\n", *trace)
		return o, 2
	}
	if *names == "" {
		o.workloads = workloads
	}
	for _, name := range strings.Split(*names, ",") {
		if name == "" {
			continue
		}
		w, ok := findWorkload(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
			return o, 2
		}
		o.workloads = append(o.workloads, w)
	}
	o.single = len(o.workloads) == 1 && !o.smoke
	o.setups = setups
	if o.smoke {
		o.setups, o.seconds = 1, 0.5
		scaled := make([]workload, len(o.workloads))
		for i, w := range o.workloads {
			scaled[i] = w.scaled(50)
		}
		o.workloads = scaled
	}
	return o, 0
}

func dispatch(o options, out io.Writer) int {
	var err error
	switch {
	case o.manifest:
		err = writeManifest(manifestPath, nil)
	case o.calibrate > 0:
		err = calibrate(o, out)
	case o.single:
		return single(o, out)
	default:
		return suite(o, out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// --- one workload: the driver's contract ---

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverResult is the last line of standard output of a one-workload run.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// countShare is the part of -seconds the traced invocation spends on the
// two-client counted segments; the rest of its time goes to the one-client
// spans, ladder and probes, whose op counts are fixed.
const countShare = 0.4

// single runs one workload. With -trace 0 it measures and prints every
// end-to-end metric; with -trace 1 it prints every per-layer metric.
func single(o options, out io.Writer) int {
	w := o.workloads[0]
	printHeader(out, o)
	cfg := runConfig{w: w, seed: o.seed, seconds: o.seconds, setups: o.setups, opts: o.opts}
	res := driverResult{Metrics: map[string]metricValue{}}
	if !o.trace {
		r, err := run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		printRun(out, r)
		res.Attempted, res.Failed = r.Attempted, r.Failed
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{r.E2E[m.name], m.unit}
		}
	} else {
		cfg.seconds, cfg.setups = o.seconds*countShare, 1
		r, err := run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		t, err := traced(cfg, o.outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		layers := mergeLayers(r, t)
		printLayers(out, t, layers)
		res.Attempted, res.Failed = r.Attempted+t.Attempted, r.Failed+t.Failed
		printErrors(out, append(r.Errors, t.Errors...))
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{layers[m.name], m.unit}
		}
	}
	res.Correct = res.Failed == 0
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "bench: metric %s is not a number\n", name)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// mergeLayers joins the counted figures of a measured run with the traced
// run's. Where both have a figure the traced one wins: it comes from one
// client and a fixed op count, so it repeats.
func mergeLayers(r *runResult, t *tracedResult) map[string]float64 {
	layers := map[string]float64{}
	for _, m := range perLayer {
		layers[m.name] = 0
	}
	for k, v := range r.Layers {
		layers[k] = v
	}
	if t != nil {
		for k, v := range t.Layers {
			layers[k] = v
		}
	}
	return layers
}

// --- the whole suite ---

type workloadSummary struct {
	Run    *runResult         `json:"run"`
	Traced *tracedResult      `json:"traced,omitempty"`
	Layers map[string]float64 `json:"per_layer"`
}

// suiteSummary is the JSON the suite writes. It makes no claim: this
// benchmark defines the baseline later changes are judged with.
type suiteSummary struct {
	Header    envHeader         `json:"header"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Smoke     bool              `json:"smoke,omitempty"`
	Workloads []workloadSummary `json:"workloads"`
	Correct   bool              `json:"correct"`
	Claim     *string           `json:"claim"`
}

// suite runs the selected workloads untraced and then, unless -trace 0,
// traced.
func suite(o options, out io.Writer) int {
	env := printHeader(out, o)
	if o.smoke {
		fmt.Fprintln(out, "SMOKE RUN at 1/50 scale: checks wiring and verification only — not a measurement")
	}
	sum := suiteSummary{Header: env, Seed: o.seed, Seconds: o.seconds, Smoke: o.smoke, Correct: true}
	for _, w := range o.workloads {
		cfg := runConfig{w: w, seed: o.seed, seconds: o.seconds, setups: o.setups, opts: o.opts}
		r, err := run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		printRun(out, r)
		ws := workloadSummary{Run: r}
		failed := r.Failed
		if o.trace {
			t, err := traced(cfg, o.outDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			ws.Traced = t
			failed += t.Failed
			printErrors(out, t.Errors)
		}
		ws.Layers = mergeLayers(r, ws.Traced)
		printLayers(out, ws.Traced, ws.Layers)
		if failed > 0 {
			sum.Correct = false
		}
		sum.Workloads = append(sum.Workloads, ws)
	}
	path := o.jsonPath
	if path == "" {
		path = filepath.Join(o.outDir, "summary.json")
	}
	if err := writeJSON(path, sum); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if o.smoke {
		fmt.Fprintln(out, "SMOKE RUN: not a measurement")
	}
	fmt.Fprintf(out, `{"correct": %v, "workloads": %d, "dirty": %v, "summary": %q, "claim": null}`+"\n",
		sum.Correct, len(sum.Workloads), env.Dirty, path)
	if !sum.Correct {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// --- printing ---

func printHeader(out io.Writer, o options) envHeader {
	env := readEnv()
	fmt.Fprintf(out, "bench: %s | %d cpus, GOMAXPROCS %d | %s | %.1f GiB | %s | commit %s",
		env.CPUModel, env.NumCPU, env.GOMAXPROCS, env.Kernel, float64(env.RAMBytes)/(1<<30), env.GoVersion, env.GitCommit)
	if env.Dirty {
		fmt.Fprint(out, " | DIRTY OR UNKNOWN TREE: numbers from this run must not be committed")
	}
	fmt.Fprintf(out, "\nfixed: %s\n", strings.Join(env.Conditions, "; "))
	fmt.Fprintf(out, "seed %d, %.3g s per run in %d segments, closed loop\n", o.seed, o.seconds, segments)
	return env
}

func printRun(out io.Writer, r *runResult) {
	fmt.Fprintf(out, "\n== %s (seed %d) ==\n", r.Workload, r.Seed)
	fmt.Fprintf(out, "set-ups: %s s\n", fmtFloats(r.SetupS))
	fmt.Fprintf(out, "%-4s %12s %10s | %-30s | %-30s | %s\n", "seg", "ops/s", "cpu us/op",
		"read p50/p99 us (samples)", "write p50/p99 us (samples)", "scan p50/p99 us (samples)")
	for i, s := range r.Segments {
		fmt.Fprintf(out, "%-4d %12.0f %10.3f", i+1, s.Throughput, s.CPUUsPerOp)
		for k := opKind(0); k < numKinds; k++ {
			fmt.Fprintf(out, " | %-30s", fmt.Sprintf("%.2f / %.2f (%d)", s.P50Us[k], s.P99Us[k], s.Samples[k]))
			if s.Samples[k] > 0 && s.Samples[k] < 1000 && r.Seconds >= 5 {
				fmt.Fprintf(out, " [<1000 samples]")
			}
		}
		if s.StolenFrac > maxStolen {
			fmt.Fprintf(out, " | %.1f %% of the CPU stolen by other guests", 100*s.StolenFrac)
			if s.SetAside {
				fmt.Fprint(out, ": set aside")
			}
		}
		fmt.Fprintln(out)
	}
	for _, m := range endToEnd {
		fmt.Fprintf(out, "  %-26s %14.6g %s\n", m.name, r.E2E[m.name], m.unit)
	}
	fmt.Fprintf(out, "  attempted %d, failed %d\n", r.Attempted, r.Failed)
	printErrors(out, r.Errors)
}

func printErrors(out io.Writer, errs []string) {
	for _, e := range errs {
		fmt.Fprintf(out, "  FAILED %s\n", e)
	}
}

func printLayers(out io.Writer, t *tracedResult, layers map[string]float64) {
	if t != nil {
		if len(t.Ladder) > 0 {
			fmt.Fprintf(out, "ladder (1 client): %-8s %10s %10s %10s %12s %10s\n", "rung", "read p50", "write p50", "allocs/op", "alloc B/op", "cpu us/op")
			for _, g := range t.Ladder {
				fmt.Fprintf(out, "                   %-8s %10.3f %10.3f %10.2f %12.1f %10.3f\n", g.Name, g.ReadUs, g.WriteUs, g.AllocsPerOp, g.BytesPerOp, g.CPUUsPerOp)
			}
		}
		names := make([]string, 0, len(t.Spans))
		for name := range t.Spans {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(out, "spans (1 client):  %-16s %10s %12s %12s\n", "name", "calls", "mean us", "self us")
		for _, name := range names {
			s := t.Spans[name]
			fmt.Fprintf(out, "                   %-16s %10d %12.3f %12.3f\n", name, s.Calls,
				float64(s.TotalNs)/1e3/float64(s.Calls), float64(s.SelfNs)/1e3/float64(s.Calls))
		}
		if t.TracePath != "" {
			fmt.Fprintf(out, "trace written to %s\n", t.TracePath)
		}
	}
	for _, m := range perLayer {
		fmt.Fprintf(out, "  %-34s %14.6g %s\n", m.name, layers[m.name], m.unit)
	}
}

func fmtFloats(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.3f", v)
	}
	return strings.Join(parts, " ")
}
