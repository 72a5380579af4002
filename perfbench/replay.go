package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"runtime"
	"sort"
	"time"

	"tdat/internal/ackshift"
	"tdat/internal/bgp"
	"tdat/internal/core"
	"tdat/internal/detect"
	"tdat/internal/factors"
	"tdat/internal/flows"
	"tdat/internal/mct"
	"tdat/internal/mrt"
	"tdat/internal/obs"
	"tdat/internal/packet"
	"tdat/internal/pcapio"
	"tdat/internal/reassembly"
	"tdat/internal/series"
	"tdat/internal/timerange"
)

// Layer phases the traced replay times. A phase is one call into a layer's
// public function; per-packet layers get one batch phase per capture.
const (
	phPcapio     = "pcapio.read"
	phDecode     = "packet.decode"
	phDemux      = "flows.demux"
	phMRT        = "mrt.read"
	phIndex      = "archive.index" // glue: per-router archive buckets
	phAnalysis   = "analysis"      // one connection's whole analysis (parent span)
	phAckShift   = "ackshift"      // probe: ackshift.Shift, which series.Generate runs inside
	phSeries     = "series"
	phReassembly = "reassembly"
	phSplit      = "bgp.split" // probe: bgp.SplitStream, which reassembly runs inside
	phConvert    = "mct.convert"
	phParse      = "bgp.parse" // probe: bgp.Parse, which mct.FromMRT runs inside
	phFindEnd    = "mct.findend"
	phFactors    = "factors"
	phDetect     = "detect"
)

// phase accumulates one phase's wall time or heap allocations.
type phase struct {
	ns     int64
	allocs uint64
}

// replayStats is one traced iteration's per-layer totals and counters.
type replayStats struct {
	phases map[string]*phase
	// wall is the traced iteration's wall time without the probes and
	// untimed preparation: the batch phases plus every analysis span.
	wall int64

	records, packets, undecodable int
	opened, earlyEmits, evicted   int
	conns                         int
	ranges                        int
	streamBytes                   int64
	missingRanges, bgpConns, msgs int
	updates, usedUpdates, mrtRecs int
	parseRecs                     int
}

func (s *replayStats) get(name string) *phase {
	p := s.phases[name]
	if p == nil {
		p = &phase{}
		s.phases[name] = p
	}
	return p
}

// tracer times calls into the layers. Reading runtime.MemStats stops the
// world and flushes the allocation caches, which slows the next call, so a
// tracer either times calls (one clock read before and after each) or
// counts their allocations (a MemStats read before and after each), never
// both. A timing tracer with keep set also records every call as a span.
type tracer struct {
	stats  *replayStats
	allocs bool
	keep   bool
	origin time.Time
	events []obs.TraceEvent
	nextID int64
	parent int64 // id of the span the next span is a child of (0: none)
	ms     runtime.MemStats
}

// span runs fn as one call of the named phase on lane tid, as a child of
// t.parent, and returns the span's id and duration in ns.
func (t *tracer) span(name string, tid int64, conn string, fn func()) (int64, int64) {
	t.nextID++
	id, parent := t.nextID, t.parent
	t.parent = id
	defer func() { t.parent = parent }()
	p := t.stats.get(name)
	if t.allocs {
		runtime.ReadMemStats(&t.ms)
		m0 := t.ms.Mallocs
		fn()
		runtime.ReadMemStats(&t.ms)
		p.allocs += t.ms.Mallocs - m0
		return id, 0
	}
	t0 := time.Now()
	fn()
	ns := time.Since(t0).Nanoseconds()
	p.ns += ns
	if t.keep {
		args := map[string]any{"span_id": id, "ns": ns}
		if conn != "" {
			args["conn"] = conn
		}
		if parent != 0 {
			args["parent_id"] = parent
		}
		t.events = append(t.events, obs.TraceEvent{
			Name: name, Cat: "perfbench", Ph: "X",
			Ts: t0.Sub(t.origin).Microseconds(), Dur: max(ns/1000, 1),
			Pid: 1, Tid: tid, Args: args,
		})
	}
	return id, ns
}

// replay drives one iteration of the workload through each layer's public
// functions in pipeline order, mirroring core.Analyzer with its default
// Config at one worker. It returns the transfers in report order.
func replay(w *workload, t *tracer) ([]*core.TransferReport, error) {
	st := t.stats
	var byPeer map[netip.Addr][]mrt.Record
	if w.archive {
		var recs []mrt.Record
		var err error
		_, ns := t.span(phMRT, 0, "", func() { recs, err = mrt.ReadAll(bytes.NewReader(w.mrt)) })
		if err != nil {
			return nil, fmt.Errorf("reading archive: %w", err)
		}
		st.mrtRecs = len(recs)
		st.wall += ns
		// The per-router index `tdat -mrt` builds before analysis.
		_, ns = t.span(phIndex, 0, "", func() { byPeer = bucketByPeer(recs) })
		st.wall += ns
	}

	// pcapio: the reused-buffer record read the streaming ingest uses.
	var readErr error
	_, ns := t.span(phPcapio, 0, "", func() {
		pr, err := pcapio.NewReader(bytes.NewReader(w.pcap))
		if err != nil {
			readErr = err
			return
		}
		var rec pcapio.Record
		for {
			if err := pr.ReadInto(&rec); err != nil {
				if !errors.Is(err, io.EOF) {
					readErr = err
				}
				return
			}
			st.records++
		}
	})
	if readErr != nil {
		return nil, fmt.Errorf("reading pcap: %w", readErr)
	}
	st.wall += ns
	// Untimed: owned records, so decode and demux can be timed apart.
	recs, err := pcapio.ReadAll(bytes.NewReader(w.pcap))
	if err != nil {
		return nil, fmt.Errorf("reading pcap: %w", err)
	}

	// packet: zero-copy decode into one reused packet, as ingest does.
	_, ns = t.span(phDecode, 0, "", func() {
		var pkt packet.Packet
		for i := range recs {
			if packet.DecodeInto(recs[i].Data, &pkt) != nil {
				st.undecodable++
			}
		}
	})
	st.wall += ns
	pkts := make([]packet.Packet, 0, len(recs))
	times := make([]Micros, 0, len(recs))
	for i := range recs {
		var p packet.Packet
		if packet.DecodeInto(recs[i].Data, &p) == nil {
			pkts = append(pkts, p)
			times = append(times, recs[i].TimeMicros)
		}
	}
	st.packets = len(pkts)

	// flows: demux of the decoded packets into connections.
	var conns []*flows.Connection
	var ds flows.DemuxStats
	_, ns = t.span(phDemux, 0, "", func() {
		d := flows.NewDemuxer(flows.Options{}, func(_ int, c *flows.Connection) { conns = append(conns, c) })
		for i := range pkts {
			d.AddSeq(int64(i), times[i], &pkts[i])
		}
		d.Finish()
		ds = d.Stats()
	})
	st.wall += ns
	st.opened, st.earlyEmits, st.evicted = ds.Opened, ds.EarlyEmits, ds.Evicted
	// Reports merge in first-packet arrival order.
	sort.SliceStable(conns, func(i, j int) bool { return conns[i].ArrivalSeq() < conns[j].ArrivalSeq() })

	out := make([]*core.TransferReport, len(conns))
	for i, c := range conns {
		tid := int64(i + 1)
		label := c.Sender.String() + "->" + c.Receiver.String()
		var tr *core.TransferReport
		var probes []func()
		id, ns := t.span(phAnalysis, tid, label, func() {
			if w.archive {
				tr, probes = replayArchiveConn(t, tid, label, c, byPeer)
			} else {
				tr, probes = replayConn(t, tid, label, c)
			}
		})
		st.wall += ns
		// Probes re-run, after the analysis span, the layer calls that other
		// layers make internally, so their time can be split off; they are
		// children of the connection's analysis span all the same.
		t.parent = id
		for _, p := range probes {
			p()
		}
		t.parent = 0
		st.conns++
		for _, n := range series.All {
			st.ranges += tr.Catalog.Get(n).Len()
		}
		out[i] = tr
	}
	return out, nil
}

// replayConn mirrors core.Analyzer.AnalyzeConnection. The returned probes
// time ackshift (inside series.Generate) and the BGP split (inside
// reassembly) on their own.
func replayConn(t *tracer, tid int64, label string, c *flows.Connection) (*core.TransferReport, []func()) {
	st := t.stats
	tr := &core.TransferReport{Conn: c}
	t.span(phSeries, tid, label, func() { tr.Catalog = series.Generate(c, series.Config{}) })

	var res *reassembly.Result
	var rerr error
	t.span(phReassembly, tid, label, func() { res, rerr = reassembly.ReassembleOpts(c, reassembly.Options{}) })
	if rerr != nil && (res.LooksLikeBGP || len(res.Messages) > 0) {
		tr.ReassemblyError = rerr.Error()
	}
	tr.ReassemblyTruncated = res.TruncatedBytes
	st.streamBytes += res.StreamBytes
	st.missingRanges += len(res.MissingRanges)
	var end mct.Result
	found := false
	if rerr == nil && len(res.Messages) > 0 {
		st.bgpConns++
		st.msgs += len(res.Messages)
		tr.Messages = len(res.Messages)
		var ups []mct.Update
		t.span(phConvert, tid, label, func() {
			times := make([]Micros, len(res.Messages))
			msgs := make([]bgp.Message, len(res.Messages))
			for i, m := range res.Messages {
				times[i] = m.Time
				msgs[i] = m.Msg
			}
			ups = mct.FromMessages(times, msgs)
		})
		if len(ups) > 0 {
			t.span(phFindEnd, tid, label, func() { end, found = mct.FindEnd(ups, mct.Config{}) })
			st.updates += len(ups)
			if found {
				st.usedUpdates += end.Updates
			}
		}
	}
	setWindow(tr, c, end, found)
	finish(t, tid, label, tr)

	probes := []func(){
		func() { probeAckShift(t, tid, label, c) },
		func() {
			// Untimed: the recovered stream, rebuilt from the wire bytes.
			full, err := reassembly.ReassembleOpts(c, reassembly.Options{KeepRaw: true})
			if err != nil {
				return
			}
			var stream []byte
			for _, m := range full.Messages {
				stream = append(stream, m.Raw...)
			}
			t.span(phSplit, tid, label, func() { _, _, _ = bgp.SplitStream(stream) })
		},
	}
	return tr, probes
}

// replayArchiveConn mirrors the archive composition: mct.FromMRT over the
// router's archive window, then AnalyzeConnectionWithUpdates. The returned
// probes time ackshift and the bgp.Parse calls FromMRT makes.
func replayArchiveConn(t *tracer, tid int64, label string, c *flows.Connection, byPeer map[netip.Addr][]mrt.Record) (*core.TransferReport, []func()) {
	st := t.stats
	tr := &core.TransferReport{Conn: c}
	var recs []mrt.Record
	var ups []mct.Update
	t.span(phConvert, tid, label, func() {
		recs = archiveWindow(byPeer, c)
		ups = mct.FromMRT(recs)
	})
	var end mct.Result
	found := false
	t.span(phFindEnd, tid, label, func() { end, found = mct.FindEnd(ups, mct.Config{}) })
	st.updates += len(ups)
	if found {
		st.usedUpdates += end.Updates
	}
	t.span(phSeries, tid, label, func() { tr.Catalog = series.Generate(c, series.Config{}) })
	setWindow(tr, c, end, found)
	finish(t, tid, label, tr)

	probes := []func(){
		func() { probeAckShift(t, tid, label, c) },
		func() {
			st.parseRecs += len(recs)
			t.span(phParse, tid, label, func() {
				for i := range recs {
					_, _ = bgp.Parse(recs[i].Raw)
				}
			})
		},
	}
	return tr, probes
}

func probeAckShift(t *tracer, tid int64, label string, c *flows.Connection) {
	t.span(phAckShift, tid, label, func() { _ = ackshift.Shift(c, ackshift.Config{}) })
}

// setWindow sets the transfer window as core does: TCP start to the MCT end,
// else to the last data packet.
func setWindow(tr *core.TransferReport, c *flows.Connection, end mct.Result, found bool) {
	start, stop := c.Profile.Start, c.Profile.End
	if found {
		tr.MCT = &end
		stop = end.End
	} else if len(c.Data) > 0 {
		stop = c.Data[len(c.Data)-1].Time
	}
	if stop <= start {
		stop = start + 1
	}
	tr.Transfer = timerange.R(start, stop)
}

// finish mirrors the analyzer's shared tail: factor classification, then
// the detectors, with the default thresholds.
func finish(t *tracer, tid int64, label string, tr *core.TransferReport) {
	t.span(phFactors, tid, label, func() { tr.Factors = factors.AnalyzeEv(tr.Catalog, tr.Transfer, 0, nil) })
	t.span(phDetect, tid, label, func() {
		if res, ok := detect.TimerGapsEv(tr.Catalog, tr.Transfer, 0, nil); ok {
			tr.Timer = &res
		}
		tr.ConsecLoss = detect.ConsecutiveLossesEv(tr.Catalog, tr.Transfer, 0, nil)
		_, tr.ZeroAckBug = detect.ZeroAckBugEv(tr.Catalog, nil)
	})
}
