package core

import (
	"bytes"
	"fmt"
	"net/netip"
	"strings"
	"testing"

	"tdat/internal/bgp"
	"tdat/internal/flows"
	"tdat/internal/mct"
	"tdat/internal/packet"
	"tdat/internal/reassembly"
	"tdat/internal/tracegen"
)

// parsedChainEnd is the transfer-end chain the NLRI walk replaced:
// reassemble and parse every message, convert with mct.FromMessages, then
// mct.FindEnd. It fills the report fields reassembleEnd fills.
func parsedChainEnd(c *flows.Connection, cfg Config) *TransferReport {
	tr := &TransferReport{Conn: c}
	res, err := reassembly.ReassembleOpts(c, reassembly.Options{MaxBytes: cfg.MaxReassemblyBytes})
	if err != nil && (res.LooksLikeBGP || len(res.Messages) > 0) {
		tr.ReassemblyError = err.Error()
	}
	tr.ReassemblyTruncated = res.TruncatedBytes
	if err != nil || len(res.Messages) == 0 {
		return tr
	}
	tr.Messages = len(res.Messages)
	times := make([]Micros, len(res.Messages))
	msgs := make([]bgp.Message, len(res.Messages))
	for i, m := range res.Messages {
		times[i], msgs[i] = m.Time, m.Msg
	}
	if ups := mct.FromMessages(times, msgs); len(ups) > 0 {
		if r, ok := mct.FindEnd(ups, mct.Config{}); ok {
			tr.MCT = &r
		}
	}
	return tr
}

// endDivergence runs reassembleEnd and the parsed chain on c and describes
// the first report field they disagree on.
func endDivergence(a *Analyzer, c *flows.Connection) error {
	want := parsedChainEnd(c, a.cfg)
	got := &TransferReport{Conn: c}
	if r, ok := a.reassembleEnd(c, got); ok {
		got.MCT = &r
	}
	switch {
	case (got.MCT == nil) != (want.MCT == nil) || (got.MCT != nil && *got.MCT != *want.MCT):
		return fmt.Errorf("MCT = %+v, parsed chain %+v", got.MCT, want.MCT)
	case got.Messages != want.Messages:
		return fmt.Errorf("Messages = %d, parsed chain %d", got.Messages, want.Messages)
	case got.ReassemblyError != want.ReassemblyError:
		return fmt.Errorf("ReassemblyError = %q, parsed chain %q", got.ReassemblyError, want.ReassemblyError)
	case got.ReassemblyTruncated != want.ReassemblyTruncated:
		return fmt.Errorf("ReassemblyTruncated = %d, parsed chain %d", got.ReassemblyTruncated, want.ReassemblyTruncated)
	}
	return nil
}

// TestTransferEndMatchesParsedChain compares the NLRI walk with the parsed
// chain on every connection of every tracegen scenario kind, small
// instances of the three paper dataset profiles, a reset-and-redial
// session, and the adversarial pcap corpus.
func TestTransferEndMatchesParsedChain(t *testing.T) {
	var conns []*flows.Connection
	for k := tracegen.KindClean; k <= tracegen.KindFanout; k++ {
		sc := tracegen.Scenario{Kind: k, Seed: int64(100 + k), Routes: 1_500}
		if k == tracegen.KindUpstreamLoss || k == tracegen.KindDownstreamLoss {
			sc.LossRate = 0.05
		}
		conns = append(conns, flows.Extract(tracegen.Run(sc).Packets())...)
	}
	for _, p := range []tracegen.DatasetProfile{
		tracegen.ISPAVendor(2, 2, 31), tracegen.ISPAQuagga(2, 2, 32), tracegen.RouteViews(2, 2, 33),
	} {
		p.Generate(func(tr tracegen.Transfer) {
			conns = append(conns, flows.Extract(tr.Trace.Packets())...)
		})
	}
	reset := tracegen.RunWithReset(tracegen.Scenario{Kind: tracegen.KindPaced, Seed: 34, Routes: 3_000}, 400_000)
	conns = append(conns, flows.Extract(reset.Packets())...)
	for _, name := range corpusNames {
		rep, err := New(Config{}).AnalyzePcapWith(bytes.NewReader(corpusTrace(t, name)),
			func(c *flows.Connection) *TransferReport { return &TransferReport{Conn: c} })
		if err != nil {
			continue
		}
		for _, tr := range rep.Transfers {
			conns = append(conns, tr.Conn)
		}
	}
	if len(conns) < 20 {
		t.Fatalf("only %d connections to compare", len(conns))
	}
	for _, a := range []*Analyzer{New(Config{}), New(Config{MaxReassemblyBytes: 50_000})} {
		for i, c := range conns {
			if err := endDivergence(a, c); err != nil {
				t.Errorf("connection %d (%s, cap %d): %v", i, connLabel(c), a.cfg.MaxReassemblyBytes, err)
			}
		}
	}
}

// streamConn turns a BGP byte stream into one connection's data packets of
// segSize bytes; segment i arrives at times(i).
func streamConn(t *testing.T, stream []byte, segSize int, times func(i int) Micros) *flows.Connection {
	t.Helper()
	snd := netip.MustParseAddr("10.0.0.1")
	rcv := netip.MustParseAddr("10.0.0.2")
	var pkts []flows.TimedPacket
	for i, off := 0, 0; off < len(stream); i, off = i+1, off+segSize {
		end := min(off+segSize, len(stream))
		pkts = append(pkts, flows.TimedPacket{Time: times(i), Pkt: &packet.Packet{
			IP: packet.IPv4{ID: uint16(i + 1), Src: snd, Dst: rcv},
			TCP: packet.TCP{
				SrcPort: 179, DstPort: 41000, Seq: 1001 + uint32(off), Ack: 1,
				Flags: packet.FlagACK, Window: 65535,
			},
			Payload: append([]byte(nil), stream[off:end]...),
		}})
	}
	conns := flows.Extract(pkts)
	if len(conns) != 1 {
		t.Fatalf("extracted %d connections, want 1", len(conns))
	}
	return conns[0]
}

// TestTransferEndEdgeCases pins the walk to the parsed chain on the streams
// where the two could part ways: non-monotone completion times, a byte cap
// inside a message, framing and attribute errors mid-stream, a non-BGP
// payload, and streams with no announcements at all.
func TestTransferEndEdgeCases(t *testing.T) {
	marshal := func(ms ...bgp.Message) []byte {
		var out []byte
		for _, m := range ms {
			raw, err := m.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, raw...)
		}
		return out
	}
	attrs := &bgp.PathAttrs{Origin: bgp.OriginIGP, ASPath: []uint16{7018}, NextHop: netip.MustParseAddr("10.0.0.9")}
	prefixes := func(from, n int) []netip.Prefix {
		var ps []netip.Prefix
		for i := from; i < from+n; i++ {
			ps = append(ps, netip.PrefixFrom(netip.AddrFrom4([4]byte{20, byte(i >> 8), byte(i), 0}), 24))
		}
		return ps
	}
	var table []bgp.Message
	table = append(table, &bgp.Open{AS: 7018, HoldTime: 180, Identifier: netip.MustParseAddr("10.0.0.1")}, &bgp.Keepalive{})
	for i := 0; i < 40; i++ {
		table = append(table, &bgp.Update{Attrs: attrs, NLRI: prefixes(i*10, 10)})
	}
	clean := marshal(table...)
	steady := func(i int) Micros { return Micros(i) * 1000 }
	// completed is when a steady 300-byte-segment stream has delivered off
	// bytes.
	completed := func(off int) Micros { return steady((off - 1) / 300) }

	// A length field 0xFFFF in the 20th update's header, and an ORIGIN
	// attribute length of 2 in the 30th: both damage a BGP stream mid-way.
	updateOff := func(n int) int { return len(marshal(table[:2+n]...)) }
	badFrame := append([]byte(nil), clean...)
	badFrame[updateOff(20)+16], badFrame[updateOff(20)+17] = 0xFF, 0xFF
	badAttr := append([]byte(nil), clean...)
	badAttr[updateOff(30)+bgp.HeaderLen+4+2] = 2

	var withdrawals []bgp.Message
	for i := 0; i < 10; i++ {
		withdrawals = append(withdrawals, &bgp.Update{Withdrawn: prefixes(i*10, 10)})
	}
	keepalives := marshal(&bgp.Keepalive{}, &bgp.Keepalive{}, &bgp.Keepalive{})

	cases := []struct {
		name   string
		stream []byte
		seg    int
		times  func(i int) Micros
		cap    int64
		end    Micros // the transfer end the walk must find (0: none)
		errSub string // ReassemblyError must contain it ("" means clean)
	}{
		{"clean", clean, 300, steady, 0, completed(len(clean)), ""},
		// Segment 3 arrives last, so the updates it completes carry a later
		// time than the updates after them.
		{"out of order", clean, 300, func(i int) Micros {
			if i == 3 {
				return 900_000
			}
			return steady(i)
		}, 0, 900_000, ""},
		{"byte cap", clean, 300, steady, int64(updateOff(25) + 7), completed(updateOff(25)), ""},
		{"framing error", badFrame, 300, steady, 0, 0, "bad length: 65535"},
		{"bad attribute", badAttr, 300, steady, 0, 0, "ORIGIN length 2"},
		{"non-BGP payload", make([]byte, 600), 300, steady, 0, 0, ""},
		{"withdraw only", marshal(withdrawals...), 300, steady, 0, 0, ""},
		{"keepalive only", keepalives, 20, steady, 0, 0, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := streamConn(t, tc.stream, tc.seg, tc.times)
			if tc.name == "out of order" {
				res, err := reassembly.Reassemble(c)
				if err != nil {
					t.Fatal(err)
				}
				monotone := true
				for i := 1; i < len(res.Messages); i++ {
					monotone = monotone && res.Messages[i].Time >= res.Messages[i-1].Time
				}
				if monotone {
					t.Fatal("completion times are monotone; the case tests nothing")
				}
			}
			a := New(Config{MaxReassemblyBytes: tc.cap})
			if err := endDivergence(a, c); err != nil {
				t.Fatal(err)
			}
			tr := &TransferReport{Conn: c}
			res, ended := a.reassembleEnd(c, tr)
			if ended != (tc.end != 0) || res.End != tc.end {
				t.Errorf("transfer end = %d (found %v), want %d", res.End, ended, tc.end)
			}
			if (tc.errSub == "") != (tr.ReassemblyError == "") || !strings.Contains(tr.ReassemblyError, tc.errSub) {
				t.Errorf("ReassemblyError = %q, want it to mention %q", tr.ReassemblyError, tc.errSub)
			}
			if (tc.cap > 0) != (tr.ReassemblyTruncated > 0) {
				t.Errorf("ReassemblyTruncated = %d under cap %d", tr.ReassemblyTruncated, tc.cap)
			}
		})
	}
}
