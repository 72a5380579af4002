package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"net/netip"
	"sort"

	"tdat/internal/mrt"
	"tdat/internal/pcapio"
	"tdat/internal/timerange"
	"tdat/internal/tracegen"
)

// Micros is the trace time unit.
type Micros = timerange.Micros

// collectorAddr is the collector side of every generated session.
var collectorAddr = netip.MustParseAddr("10.0.0.2")

// session is one generated BGP session: its dialled pathology, the router
// address it was rewritten to, and its start offset in the merged capture.
type session struct {
	kind   tracegen.Kind
	routes int
	rtt    Micros
	// reset sessions are killed mid-transfer and redialled on the same
	// 4-tuple (tracegen.RunWithReset): one session, two connections.
	reset  bool
	seed   int64
	offset Micros
	addr   netip.Addr
	// ground is the true transfer duration (Trace.GroundDuration), or 0 for
	// a reset session: the collector archives none of the killed first
	// connection's updates, so its true end is unknown.
	ground Micros
}

// conns is how many connections the session contributes to the report.
func (s *session) conns() int {
	if s.reset {
		return 2
	}
	return 1
}

// workload is one generated input set: the sessions with their ground
// truth, and the bytes the analyzer sees.
type workload struct {
	name     string
	archive  bool // analyzed through the MRT archive pipeline
	sessions []*session
	byAddr   map[netip.Addr]*session
	pcap     []byte
	mrt      []byte // collector archive; archive-pinned only
	expected int    // connections the report must contain
}

// inputBytes is the capture input size the analyzer reads per iteration.
func (w *workload) inputBytes() int { return len(w.pcap) + len(w.mrt) }

// digest is the SHA-256 of the generated input bytes.
func (w *workload) digest() [32]byte {
	h := sha256.New()
	h.Write(w.pcap)
	h.Write(w.mrt)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

var workloadNames = []string{"full-tables", "session-storm", "archive-pinned"}

// plan draws the session list of a workload from the seed. The mix of
// kinds, sizes and RTTs is the same for every seed (a full factorial), so
// seeds change only the simulations and the start order; that keeps the
// amount of work per iteration, and so every rate, comparable across seeds.
func plan(name string, seed int64) ([]*session, error) {
	rng := rand.New(rand.NewSource(seed))
	var ss []*session
	var gap Micros
	switch name {
	case "full-tables", "archive-pinned":
		kinds := []tracegen.Kind{tracegen.KindClean, tracegen.KindPaced, tracegen.KindBandwidth,
			tracegen.KindSlowReceiver, tracegen.KindSmallWindow}
		for _, k := range kinds {
			for _, routes := range []int{12_000, 21_000, 30_000, 39_000, 48_000} {
				ss = append(ss, &session{kind: k, routes: routes})
			}
		}
		gap = 1_000_000
	case "session-storm":
		kinds := []tracegen.Kind{tracegen.KindClean, tracegen.KindPaced, tracegen.KindUpstreamLoss,
			tracegen.KindDownstreamLoss, tracegen.KindSmallWindow, tracegen.KindZeroAckBug,
			tracegen.KindHeavyTailApp}
		for _, k := range kinds {
			for j := 0; j < 42; j++ {
				ss = append(ss, &session{kind: k, routes: 500 + 50*(j%5), rtt: rttOf(j)})
			}
		}
		// A quarter of the sessions are reset mid-transfer and redialled.
		// RunWithReset models only the pacing pathology, so they are paced.
		for j := 0; j < 98; j++ {
			ss = append(ss, &session{kind: tracegen.KindPaced, routes: 500 + 50*(j%5), rtt: rttOf(j), reset: true})
		}
		gap = 20_000
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	rng.Shuffle(len(ss), func(i, j int) { ss[i], ss[j] = ss[j], ss[i] })
	for i, s := range ss {
		s.seed = rng.Int63()
		s.offset = Micros(i) * gap
		if name != "session-storm" {
			s.offset += Micros(rng.Int63n(250_000)) // staggered, not lock-step
		}
		s.addr = netip.AddrFrom4([4]byte{10, 1, byte((i + 1) >> 8), byte(i + 1)})
	}
	return ss, nil
}

// rttOf puts half of a group's sessions on a 300 ms path.
func rttOf(j int) Micros {
	if j%2 == 1 {
		return 300_000
	}
	return 8_000
}

// generate simulates every session of the workload and renders the merged
// capture (and, for archive-pinned, the collector's MRT archive) to bytes.
func generate(name string, seed int64) (*workload, error) {
	ss, err := plan(name, seed)
	if err != nil {
		return nil, err
	}
	w := &workload{name: name, archive: name == "archive-pinned", sessions: ss,
		byAddr: make(map[netip.Addr]*session, len(ss))}
	type frame struct {
		t    Micros
		data []byte
	}
	var frames []frame
	var recs []mrt.Record
	for _, s := range ss {
		sc := tracegen.Scenario{Kind: s.kind, Seed: s.seed, Routes: s.routes, RTT: s.rtt}
		var tr *tracegen.Trace
		if s.reset {
			tr = tracegen.RunWithReset(sc, 3*s.rtt+400_000)
		} else {
			tr = tracegen.Run(sc)
			s.ground = tr.GroundDuration
		}
		if tr.RoutesDelivered == 0 {
			return nil, fmt.Errorf("%s session %s: no routes delivered", name, s.addr)
		}
		w.byAddr[s.addr] = s
		w.expected += s.conns()
		// Every scenario simulates the same address pair; give each session
		// its own router address so the capture holds distinct connections.
		for _, c := range tr.Captures {
			if c.Pkt.TCP.SrcPort == 179 {
				c.Pkt.IP.Src = s.addr
			} else {
				c.Pkt.IP.Dst = s.addr
			}
			data, err := c.Pkt.Marshal()
			if err != nil {
				return nil, fmt.Errorf("marshaling packet: %w", err)
			}
			frames = append(frames, frame{t: c.Time + s.offset, data: data})
		}
		if w.archive {
			for _, e := range tr.Archive {
				recs = append(recs, mrt.Record{TimeMicros: e.Time + s.offset, PeerAS: e.PeerAS,
					LocalAS: 65000, PeerIP: s.addr, LocalIP: collectorAddr, Raw: e.Raw})
			}
		}
	}
	sort.SliceStable(frames, func(i, j int) bool { return frames[i].t < frames[j].t })
	var pb bytes.Buffer
	pw := pcapio.NewWriter(&pb)
	for _, f := range frames {
		if err := pw.WritePacket(f.t, f.data); err != nil {
			return nil, err
		}
	}
	if err := pw.Flush(); err != nil {
		return nil, err
	}
	w.pcap = pb.Bytes()
	if w.archive {
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].TimeMicros < recs[j].TimeMicros })
		var mb bytes.Buffer
		mw := mrt.NewWriter(&mb)
		for _, r := range recs {
			if err := mw.Write(r); err != nil {
				return nil, err
			}
		}
		if err := mw.Flush(); err != nil {
			return nil, err
		}
		w.mrt = mb.Bytes()
	}
	return w, nil
}
