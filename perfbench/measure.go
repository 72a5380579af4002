package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"tdat/internal/core"
	"tdat/internal/obs"
)

// loop is the record of one worker count's closed-loop iterations: each
// a whole-capture analysis started when the previous one finished, each
// checked against the reference report.
type loop struct {
	a       *core.Analyzer
	walls   []float64 // seconds per iteration
	lat     []time.Duration
	mallocs uint64
	bytes   uint64
	iters   int
	failed  int
}

// runLoops analyzes w for about d (at least minIters times per worker
// count), alternating one iteration at one worker with one at nproc
// workers so that both see the same machine over the same period. With
// wantLat the one-worker iterations time every per-connection call; extra,
// when set, runs once per round after the two iterations. Allocation counts
// are MemStats deltas around each analysis call only, so the digest check
// in between is not counted.
func runLoops(w *workload, ref reportDigest, d time.Duration, wantLat bool, extra func() error) (one, par *loop, err error) {
	const minIters = 5
	one = &loop{a: core.New(core.Config{Workers: 1})}
	par = &loop{a: core.New(core.Config{Workers: nproc()})}
	var ms runtime.MemStats
	start := time.Now()
	for one.iters < minIters || time.Since(start) < d {
		for _, l := range []*loop{one, par} {
			var lat *[]time.Duration
			if wantLat && l == one {
				l.lat = grow(l.lat, w.expected)
				lat = &l.lat
			}
			// Every iteration starts from a collected heap, as a fresh
			// process would, so the collections it triggers do not depend
			// on the garbage the previous iteration left.
			runtime.GC()
			runtime.ReadMemStats(&ms)
			m0, b0 := ms.Mallocs, ms.TotalAlloc
			t0 := time.Now()
			rep, err := analyze(l.a, w, lat)
			wall := time.Since(t0)
			runtime.ReadMemStats(&ms)
			if err != nil {
				return nil, nil, err
			}
			l.mallocs += ms.Mallocs - m0
			l.bytes += ms.TotalAlloc - b0
			l.walls = append(l.walls, wall.Seconds())
			l.iters++
			l.failed += checkReport(w, rep) + mismatches(ref, digestReport(rep))
		}
		if extra != nil {
			if err := extra(); err != nil {
				return nil, nil, err
			}
		}
	}
	return one, par, nil
}

// grow makes room for n more elements without a later reallocation.
func grow[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return append(make([]T, 0, 2*cap(s)+n), s...)
}

// reference analyzes w once at one worker: the report every later analysis
// must reproduce exactly.
func reference(w *workload) (*core.Report, reportDigest, int, error) {
	rep, err := analyze(core.New(core.Config{Workers: 1}), w, nil)
	if err != nil {
		return nil, reportDigest{}, 0, err
	}
	return rep, digestReport(rep), checkReport(w, rep), nil
}

// replayCheck replays w through the layers once and counts the transfers
// whose verdict differs from the reference report's.
func replayCheck(w *workload, t *tracer, ref reportDigest) (int, error) {
	trs, err := replay(w, t)
	if err != nil {
		return 0, err
	}
	lines := make([]string, len(trs))
	for i, t := range trs {
		lines[i] = transferLine(t)
	}
	return lineMismatches(ref.lines, lines), nil
}

// endToEnd measures the untraced closed loop at one worker and at nproc
// workers, the report's retained heap, and the ground-truth scores.
func endToEnd(w *workload, budget time.Duration) (*result, error) {
	rep, ref, bad, err := reference(w)
	if err != nil {
		return nil, err
	}
	res := &result{attempted: w.expected, failed: bad, metrics: map[string]float64{}}
	sc := scoreReport(w, rep)
	rep = nil

	one, par, err := runLoops(w, ref, budget*90/100, true, nil)
	if err != nil {
		return nil, err
	}
	heap, err := reportHeap(w)
	if err != nil {
		return nil, err
	}
	replayBad, err := replayCheck(w, &tracer{stats: newStats()}, ref)
	if err != nil {
		return nil, err
	}
	res.attempted += (one.iters + par.iters + 1) * w.expected
	res.failed += one.failed + par.failed + replayBad

	conns := float64(w.expected)
	m := res.metrics
	m["conns_per_s"] = conns / median(one.walls)
	m["mb_per_s"] = float64(w.inputBytes()) / 1e6 / median(one.walls)
	m["conns_per_s_par"] = conns / median(par.walls)
	lat := make([]float64, len(one.lat))
	for i, d := range one.lat {
		lat[i] = float64(d.Nanoseconds()) / 1e6
	}
	sort.Float64s(lat)
	m["conn_ms_p50"] = quantile(lat, 0.50)
	m["conn_ms_p90"] = quantile(lat, 0.90)
	analyses := float64(one.iters) * conns
	m["allocs_per_conn"] = float64(one.mallocs) / analyses
	m["alloc_kb_per_conn"] = float64(one.bytes) / 1024 / analyses
	m["report_heap_mb"] = heap
	m["verdict_acc"] = div(float64(sc.verdictOK), float64(sc.verdictN))
	m["end_err_med"] = median(sc.endErrs)
	res.correct = res.failed == 0

	fmt.Printf("loop: workers=1 %d iterations, workers=%d %d iterations; %d per-connection samples\n",
		one.iters, nproc(), par.iters, len(lat))
	fmt.Printf("iteration ms, workers=1: %s; workers=%d: %s\n", spreadLine(one.walls), nproc(), spreadLine(par.walls))
	fmt.Printf("failed_frac: %g (%d of %d analyzed connections missing, failed or mismatched; replay mismatches %d)\n",
		div(float64(res.failed), float64(res.attempted)), res.failed, res.attempted, replayBad)
	fmt.Printf("verdict_acc: %d/%d scored transfers\n", sc.verdictOK, sc.verdictN)
	fmt.Printf("end_err_med: over %d scored transfers\n", len(sc.endErrs))
	printMetrics(m)
	return res, nil
}

// reportHeap is the live heap, after a GC, that one report retains: the
// heap with the report held minus the heap once it is released (MiB,
// median of three).
func reportHeap(w *workload) (float64, error) {
	a := core.New(core.Config{Workers: 1})
	var vals []float64
	var ms runtime.MemStats
	for i := 0; i < 3; i++ {
		rep, err := analyze(a, w, nil)
		if err != nil {
			return 0, err
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		held := ms.HeapAlloc
		runtime.KeepAlive(rep)
		rep = nil
		runtime.GC()
		runtime.ReadMemStats(&ms)
		vals = append(vals, (float64(held)-float64(ms.HeapAlloc))/(1<<20))
	}
	return median(vals), nil
}

func newStats() *replayStats { return &replayStats{phases: map[string]*phase{}} }

// Phase groups the summary reports shares of.
var (
	transferEndPhases = []string{phReassembly, phConvert, phFindEnd}
	ingestPhases      = []string{phPcapio, phDecode, phDemux, phSeries}
	archivePhases     = []string{phMRT, phParse}
)

// traced runs the per-layer replay in rounds with the untraced loop, whose
// one-worker time the layer self times are checked against.
func traced(w *workload, budget time.Duration, o options) (*result, error) {
	_, ref, bad, err := reference(w)
	if err != nil {
		return nil, err
	}
	res := &result{attempted: w.expected, failed: bad, metrics: map[string]float64{}}
	// Each round runs the untraced loop's two iterations, then a timed
	// replay and an allocation-counting one, so the layer times and the
	// end-to-end time they are checked against come from the same period.
	var rounds [][2]*replayStats
	var events []obs.TraceEvent
	one, par, err := runLoops(w, ref, budget*90/100, false, func() error {
		var st [2]*replayStats
		for i, allocs := range []bool{false, true} {
			runtime.GC()
			t := &tracer{stats: newStats(), allocs: allocs, keep: len(rounds) == 0 && !allocs, origin: time.Now()}
			bad, err := replayCheck(w, t, ref)
			if err != nil {
				return err
			}
			res.attempted += w.expected
			res.failed += bad
			if t.keep {
				events = t.events
			}
			st[i] = t.stats
		}
		rounds = append(rounds, st)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.attempted += (one.iters + par.iters) * w.expected
	res.failed += one.failed + par.failed
	e2e := median(one.walls) * 1e9
	pairs := make([]map[string]float64, len(rounds))
	for i, st := range rounds {
		pairs[i] = layerMetrics(st[0], st[1], e2e)
	}
	m := res.metrics
	for k := range pairs[0] {
		vs := make([]float64, len(pairs))
		for i, it := range pairs {
			vs[i] = it[k]
		}
		m[k] = median(vs)
	}
	conns := float64(w.expected)
	m["core.analyze_ns_per_conn"] = e2e / conns
	m["core.par_efficiency"] = (conns / median(par.walls)) / (float64(nproc()) * conns / median(one.walls))
	res.correct = res.failed == 0

	path, err := writeTrace(o, w, events)
	if err != nil {
		return nil, err
	}
	fmt.Printf("trace: %d rounds of untraced, timed and allocation-counting iterations; spans of the first timed one in %s\n", len(rounds), path)
	fmt.Printf("failed_frac: %g (%d of %d analyzed connections missing, failed or mismatched)\n",
		div(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	printShares(m)
	if u := m["core.unattributed_frac"]; u > 0.15 {
		fmt.Printf("WARNING: %s core.unattributed_frac %.3f > 0.15: the layer self times do not add up to the end-to-end time\n", w.name, u)
	}
	printMetrics(m)
	return res, nil
}

// layerMetrics turns a timed and an allocation-counting iteration into the
// per-layer metrics. e2e is the untraced one-worker iteration time in ns.
// Self times split off the probed inner calls: series without ackshift,
// reassembly without the BGP split, mct.convert without bgp.Parse.
func layerMetrics(s, a *replayStats, e2e float64) map[string]float64 {
	ns := func(name string) float64 {
		if ph := s.phases[name]; ph != nil {
			return float64(ph.ns)
		}
		return 0
	}
	al := func(name string) float64 {
		if ph := a.phases[name]; ph != nil {
			return float64(ph.allocs)
		}
		return 0
	}
	conns := float64(s.conns)
	recs, pkts := float64(s.records), float64(s.packets)
	m := map[string]float64{
		"pcapio.read_ns_per_rec":        div(ns(phPcapio), recs),
		"pcapio.read_allocs_per_rec":    div(al(phPcapio), recs),
		"packet.decode_ns_per_pkt":      div(ns(phDecode), recs),
		"packet.decode_allocs_per_pkt":  div(al(phDecode), recs),
		"packet.undecodable":            float64(s.undecodable),
		"flows.demux_ns_per_pkt":        div(ns(phDemux), pkts),
		"flows.demux_allocs_per_pkt":    div(al(phDemux), pkts),
		"flows.conns_opened":            float64(s.opened),
		"flows.early_emits":             float64(s.earlyEmits),
		"flows.evicted":                 float64(s.evicted),
		"ackshift.ns_per_conn":          div(ns(phAckShift), conns),
		"ackshift.allocs_per_conn":      div(al(phAckShift), conns),
		"series.ns_per_conn":            div(ns(phSeries)-ns(phAckShift), conns),
		"series.allocs_per_conn":        div(al(phSeries)-al(phAckShift), conns),
		"series.ranges_per_conn":        div(float64(s.ranges), conns),
		"reassembly.ns_per_conn":        div(ns(phReassembly)-ns(phSplit), conns),
		"reassembly.allocs_per_conn":    div(al(phReassembly)-al(phSplit), conns),
		"reassembly.stream_kb_per_conn": div(float64(s.streamBytes)/1024, conns),
		"reassembly.missing_ranges":     float64(s.missingRanges),
		"reassembly.bgp_frac":           div(float64(s.bgpConns), conns),
		"bgp.split_ns_per_conn":         div(ns(phSplit), conns),
		"bgp.split_allocs_per_conn":     div(al(phSplit), conns),
		"bgp.msgs_per_conn":             div(float64(s.msgs), conns),
		"bgp.ns_per_msg":                div(ns(phSplit), float64(s.msgs)),
		"bgp.parse_ns_per_rec":          div(ns(phParse), float64(s.parseRecs)),
		"bgp.parse_allocs_per_rec":      div(al(phParse), float64(s.parseRecs)),
		"mrt.read_ns_per_rec":           div(ns(phMRT), float64(s.mrtRecs)),
		"mrt.read_allocs_per_rec":       div(al(phMRT), float64(s.mrtRecs)),
		"cmd.archive_index_ns_per_rec":  div(ns(phIndex), float64(s.mrtRecs)),
		"mct.convert_ns_per_conn":       div(ns(phConvert)-ns(phParse), conns),
		"mct.findend_ns_per_conn":       div(ns(phFindEnd), conns),
		"mct.findend_allocs_per_conn":   div(al(phFindEnd), conns),
		"mct.updates_per_conn":          div(float64(s.updates), conns),
		"mct.used_frac":                 div(float64(s.usedUpdates), float64(s.updates)),
		"factors.ns_per_conn":           div(ns(phFactors), conns),
		"factors.allocs_per_conn":       div(al(phFactors), conns),
		"detect.ns_per_conn":            div(ns(phDetect), conns),
		"detect.allocs_per_conn":        div(al(phDetect), conns),
	}
	// The self times of all layers sum to the non-probe phases.
	var self float64
	for _, ph := range []string{phMRT, phIndex, phPcapio, phDecode, phDemux, phSeries, phReassembly,
		phConvert, phFindEnd, phFactors, phDetect} {
		self += ns(ph)
	}
	m["core.unattributed_frac"] = 1 - div(self, e2e)
	m["core.trace_overhead_frac"] = div(float64(s.wall)-e2e, e2e)
	// Shares of traced self time, for the summary only.
	for _, ph := range []string{phMRT, phIndex, phPcapio, phDecode, phDemux, phFactors, phDetect, phFindEnd} {
		m["share."+ph] = div(ns(ph), self)
	}
	m["share."+phAckShift] = div(ns(phAckShift), self)
	m["share."+phSeries] = div(ns(phSeries)-ns(phAckShift), self)
	m["share."+phReassembly] = div(ns(phReassembly)-ns(phSplit), self)
	m["share."+phSplit] = div(ns(phSplit), self)
	m["share."+phParse] = div(ns(phParse), self)
	m["share."+phConvert] = div(ns(phConvert)-ns(phParse), self)
	return m
}

// printShares prints each layer's share of the traced self time, then the
// groups the workloads are meant to separate, and removes the shares from
// the metric set.
func printShares(m map[string]float64) {
	var keys []string
	for k := range m {
		if strings.HasPrefix(k, "share.") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	fmt.Println("share of traced self time:")
	for _, k := range keys {
		fmt.Printf("  %-20s %6.1f%%\n", strings.TrimPrefix(k, "share."), 100*m[k])
	}
	group := func(phs []string) float64 {
		var s float64
		for _, ph := range phs {
			s += m["share."+ph]
		}
		return s
	}
	fmt.Printf("  transfer end (reassembly+bgp.split+mct.convert+mct.findend) %.1f%%\n",
		100*(group(transferEndPhases)+m["share."+phSplit]))
	fmt.Printf("  ingest+series (pcapio+packet.decode+flows.demux+series) %.1f%%\n", 100*group(ingestPhases))
	fmt.Printf("  archive (mrt.read+bgp.parse) %.1f%%\n", 100*group(archivePhases))
	for _, k := range keys {
		delete(m, k)
	}
}

// spreadLine renders min, quartiles and max of iteration times in ms.
func spreadLine(walls []float64) string {
	s := append([]float64(nil), walls...)
	sort.Float64s(s)
	return fmt.Sprintf("min %.2f p25 %.2f p50 %.2f p75 %.2f max %.2f",
		1e3*s[0], 1e3*quantile(s, 0.25), 1e3*quantile(s, 0.5), 1e3*quantile(s, 0.75), 1e3*s[len(s)-1])
}

func printMetrics(m map[string]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-32s %.6g\n", k, m[k])
	}
}

// writeTrace writes the first traced iteration's spans as a Chrome
// trace_event file, the format `tdat -trace-json` writes.
func writeTrace(o options, w *workload, events []obs.TraceEvent) (string, error) {
	dir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", w.name, o.seed))
	all := []obs.TraceEvent{
		obs.MetaEvent("process_name", 1, 0, "perfbench "+w.name),
		obs.MetaEvent("thread_name", 1, 0, "batch layers"),
	}
	named := map[int64]bool{}
	for _, e := range events {
		if c, ok := e.Args["conn"].(string); ok && e.Tid != 0 && !named[e.Tid] {
			named[e.Tid] = true
			all = append(all, obs.MetaEvent("thread_name", 1, e.Tid, c))
		}
	}
	all = append(all, events...)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	if err := obs.WriteTrace(bw, all); err != nil {
		f.Close()
		return "", err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// host is the result's host block.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
}

func hostInfo() host {
	return host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     gitCommit(),
		SourceHash: sourceHash(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from the checkout's .git directory, or "unknown"
// outside a git checkout (the source hash then identifies the code).
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(l, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceHash is the SHA-256 over the checkout's Go sources and module
// files, in path order.
func sourceHash() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
