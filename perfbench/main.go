// Command perfbench is T-DAT's end-to-end and per-layer benchmark: it
// generates a seeded workload with tracegen as in-memory pcap (and MRT)
// bytes, analyzes it in a closed loop through the analyzer's public entry
// points, checks every report against a reference digest and the
// simulator's ground truth, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload full-tables --seed 1 --seconds 10 --trace 0
//
// With --trace 1 it instead replays the same inputs through each layer's
// public functions, prints the per-layer metrics and writes the spans as a
// Chrome trace_event file. Metric names and units come from BENCHMARK.json.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(run())
}

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

func run() int {
	var o options
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: full-tables, session-storm or archive-pinned")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measurement time in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer replay instead of the end-to-end loop")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = traceFlag == 1
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res, err := bench(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	want := spec.EndToEnd
	if o.trace {
		want = spec.PerLayer
	}
	line, err := res.line(want)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(line)
	if !res.correct {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed")
		return 1
	}
	return 0
}

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the command reads: the workload
// and metric names, and the units it must print.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

//go:embed layers.json
var layersJSON []byte

// layerMap is layers.json: for each group of per-layer metrics, the
// end-to-end metrics and workloads it should move.
type layerMap struct {
	Groups []struct {
		Metrics []string `json:"metrics"`
		Moves   []struct {
			Metric   string `json:"metric"`
			Workload string `json:"workload"`
		} `json:"moves"`
	} `json:"groups"`
}

// loadSpec reads BENCHMARK.json and checks layers.json against it: every
// per-layer metric is mapped exactly once, onto end-to-end metrics and
// workloads that exist.
func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var lm layerMap
	if err := json.Unmarshal(layersJSON, &lm); err != nil {
		return nil, fmt.Errorf("layers.json: %w", err)
	}
	known := map[string]bool{}
	for _, w := range s.Workloads {
		known["workload "+w.Name] = true
	}
	for _, m := range s.EndToEnd {
		known["metric "+m.Name] = true
	}
	mapped := map[string]int{}
	for _, g := range lm.Groups {
		for _, m := range g.Metrics {
			mapped[m]++
		}
		for _, mv := range g.Moves {
			if !known["metric "+mv.Metric] || !known["workload "+mv.Workload] {
				return nil, fmt.Errorf("layers.json: %s on %s is not in %s", mv.Metric, mv.Workload, path)
			}
		}
	}
	for _, m := range s.PerLayer {
		if mapped[m.Name] != 1 {
			return nil, fmt.Errorf("layers.json maps %s %d times, want once", m.Name, mapped[m.Name])
		}
		delete(mapped, m.Name)
	}
	if len(mapped) > 0 {
		return nil, fmt.Errorf("layers.json maps metrics %s does not list: %v", path, mapped)
	}
	return &s, nil
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int
	metrics           map[string]float64
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line renders the result line with exactly the wanted metrics; a metric
// computed but not wanted, or wanted but not computed, is an error.
func (r *result) line(want []metricSpec) (string, error) {
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]metricValue{}}
	for _, m := range want {
		v, ok := r.metrics[m.Name]
		if !ok {
			return "", fmt.Errorf("metric %s not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", m.Name, v)
		}
		out.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	if len(out.Metrics) != len(r.metrics) {
		var extra []string
		for k := range r.metrics {
			if _, ok := out.Metrics[k]; !ok {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		return "", fmt.Errorf("metrics %v missing from BENCHMARK.json", extra)
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// setupReps is how many times a run generates its workload; setup_s is the
// median. The last repetition uses another seed, for the determinism check.
const setupReps = 3

// setup generates the workload setupReps times, checks that the same seed
// gives the same bytes and another seed different bytes, and returns the
// workload with the median generation time in seconds.
func setup(name string, seed int64) (*workload, float64, error) {
	var w *workload
	var times []float64
	var first [32]byte
	for i := 0; i < setupReps; i++ {
		s := seed
		if i == setupReps-1 {
			s = seed + 1
		}
		t0 := time.Now()
		g, err := generate(name, s)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		sum := g.digest()
		switch {
		case i == 0:
			w, first = g, sum
			fmt.Printf("input: %d pcap bytes, %d mrt bytes, %d sessions, %d connections, sha256 %x\n",
				len(g.pcap), len(g.mrt), len(g.sessions), g.expected, sum)
		case s == seed && sum != first:
			return nil, 0, fmt.Errorf("seed %d generated different bytes twice", seed)
		case s != seed && sum == first:
			return nil, 0, fmt.Errorf("seeds %d and %d generated the same bytes", seed, s)
		}
	}
	fmt.Printf("determinism: seed %d repeats its bytes; seed %d differs\n", seed, seed+1)
	return w, median(times), nil
}

func bench(o options) (*result, error) {
	h := hostInfo()
	hb, _ := json.Marshal(h)
	fmt.Printf("host: %s\n", hb)
	fmt.Printf("run: workload=%s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	w, setupS, err := setup(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		return traced(w, budget, o)
	}
	r, err := endToEnd(w, budget)
	if err != nil {
		return nil, err
	}
	r.metrics["setup_s"] = setupS
	return r, nil
}

// median returns the median of vs (0 for none).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantile returns the q-quantile of sorted vs by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

// div is a/b, or 0 when there is nothing to divide by (a layer that is not
// on the workload's path).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// nproc is the parallel worker count: one per CPU.
func nproc() int { return runtime.NumCPU() }
