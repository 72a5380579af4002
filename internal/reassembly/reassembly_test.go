package reassembly

import (
	"fmt"
	"net/netip"
	"testing"

	"tdat/internal/bgp"
	"tdat/internal/flows"
	"tdat/internal/packet"
)

var (
	sndEP = flows.Endpoint{Addr: netip.MustParseAddr("10.0.0.1"), Port: 179}
	rcvEP = flows.Endpoint{Addr: netip.MustParseAddr("10.0.0.2"), Port: 41000}
)

// bgpStream builds a serialized stream of n updates plus a leading OPEN and
// KEEPALIVE, returning the bytes and the message count.
func bgpStream(t testing.TB, n int) []byte {
	t.Helper()
	var stream []byte
	open := &bgp.Open{AS: 7018, HoldTime: 180, Identifier: netip.MustParseAddr("10.0.0.1")}
	raw, err := open.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	stream = append(stream, raw...)
	raw, _ = (&bgp.Keepalive{}).Marshal()
	stream = append(stream, raw...)
	attrs := &bgp.PathAttrs{Origin: bgp.OriginIGP, ASPath: []uint16{7018}, NextHop: netip.MustParseAddr("10.0.0.9")}
	for i := 0; i < n; i++ {
		u := &bgp.Update{Attrs: attrs, NLRI: []netip.Prefix{
			netip.PrefixFrom(netip.AddrFrom4([4]byte{20, byte(i >> 8), byte(i), 0}), 24),
		}}
		raw, err := u.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, raw...)
	}
	return stream
}

// segment turns stream bytes into TimedPackets of fixed size, returning
// them in the given order permutation.
func packetsFor(stream []byte, segSize int, times func(i int) flows.Micros) []flows.TimedPacket {
	var pkts []flows.TimedPacket
	isn := uint32(1000)
	for i, off := 0, 0; off < len(stream); i, off = i+1, off+segSize {
		end := off + segSize
		if end > len(stream) {
			end = len(stream)
		}
		p := &packet.Packet{
			IP: packet.IPv4{ID: uint16(i + 1), Src: sndEP.Addr, Dst: rcvEP.Addr},
			TCP: packet.TCP{
				SrcPort: sndEP.Port, DstPort: rcvEP.Port,
				Seq: isn + 1 + uint32(off), Ack: 1, Flags: packet.FlagACK, Window: 65535,
			},
			Payload: append([]byte(nil), stream[off:end]...),
		}
		pkts = append(pkts, flows.TimedPacket{Time: times(i), Pkt: p})
	}
	return pkts
}

func extractOne(t *testing.T, pkts []flows.TimedPacket) *flows.Connection {
	t.Helper()
	conns := flows.Extract(pkts)
	if len(conns) != 1 {
		t.Fatalf("extracted %d connections", len(conns))
	}
	return conns[0]
}

func TestReassembleInOrder(t *testing.T) {
	stream := bgpStream(t, 20)
	pkts := packetsFor(stream, 700, func(i int) flows.Micros { return flows.Micros(i) * 1000 })
	res, err := Reassemble(extractOne(t, pkts))
	if err != nil {
		t.Fatal(err)
	}
	if res.StreamBytes != int64(len(stream)) {
		t.Errorf("stream bytes = %d, want %d", res.StreamBytes, len(stream))
	}
	if len(res.Messages) != 22 { // OPEN + KEEPALIVE + 20 updates
		t.Fatalf("messages = %d, want 22", len(res.Messages))
	}
	if _, ok := res.Messages[0].Msg.(*bgp.Open); !ok {
		t.Errorf("first message = %T", res.Messages[0].Msg)
	}
	updates := 0
	for _, m := range res.Messages {
		if _, ok := m.Msg.(*bgp.Update); ok {
			updates++
		}
	}
	if updates != 20 {
		t.Errorf("updates = %d", updates)
	}
	if len(res.MissingRanges) != 0 {
		t.Errorf("missing ranges = %v", res.MissingRanges)
	}
	// Timestamps non-decreasing for in-order arrival.
	for i := 1; i < len(res.Messages); i++ {
		if res.Messages[i].Time < res.Messages[i-1].Time {
			t.Fatalf("message %d time regressed", i)
		}
	}
}

func TestReassembleOutOfOrder(t *testing.T) {
	stream := bgpStream(t, 30)
	pkts := packetsFor(stream, 200, func(i int) flows.Micros { return flows.Micros(i) * 1000 })
	// Swap two adjacent packets' arrival order (times swapped too).
	if len(pkts) < 4 {
		t.Fatal("not enough packets for the swap")
	}
	pkts[1].Time, pkts[2].Time = pkts[2].Time, pkts[1].Time
	res, err := Reassemble(extractOne(t, pkts))
	if err != nil {
		t.Fatal(err)
	}
	if res.StreamBytes != int64(len(stream)) {
		t.Errorf("stream bytes = %d, want %d", res.StreamBytes, len(stream))
	}
	if len(res.Messages) != 32 {
		t.Errorf("messages = %d, want 32", len(res.Messages))
	}
}

func TestReassembleWithRetransmissions(t *testing.T) {
	stream := bgpStream(t, 30)
	pkts := packetsFor(stream, 200, func(i int) flows.Micros { return flows.Micros(i) * 1000 })
	// Duplicate packet 3 later in time (a retransmission the receiver also
	// saw).
	dup := *pkts[3].Pkt
	pkts = append(pkts, flows.TimedPacket{Time: 900_000, Pkt: &dup})
	res, err := Reassemble(extractOne(t, pkts))
	if err != nil {
		t.Fatal(err)
	}
	if res.StreamBytes != int64(len(stream)) {
		t.Errorf("stream bytes = %d", res.StreamBytes)
	}
	if len(res.Messages) != 32 {
		t.Errorf("messages = %d, want 32", len(res.Messages))
	}
}

func TestReassembleReportsHoles(t *testing.T) {
	stream := bgpStream(t, 30)
	pkts := packetsFor(stream, 200, func(i int) flows.Micros { return flows.Micros(i) * 1000 })
	// Remove a middle packet entirely (sniffer drop, never retransmitted in
	// the capture).
	missingStart := int64(2 * 200)
	pkts = append(pkts[:2], pkts[3:]...)
	res, err := Reassemble(extractOne(t, pkts))
	if err != nil {
		t.Fatal(err)
	}
	if res.StreamBytes != missingStart {
		t.Errorf("contiguous bytes = %d, want %d", res.StreamBytes, missingStart)
	}
	if len(res.MissingRanges) != 1 || res.MissingRanges[0].Start != missingStart {
		t.Errorf("missing = %v", res.MissingRanges)
	}
	// Only messages wholly inside the contiguous prefix decode.
	for _, m := range res.Messages {
		if m.Raw == nil {
			t.Error("nil raw message")
		}
	}
}

func TestReassembleEmptyConnection(t *testing.T) {
	c := &flows.Connection{}
	res, err := Reassemble(c)
	if err != nil || len(res.Messages) != 0 || res.StreamBytes != 0 {
		t.Errorf("empty reassembly: %+v err=%v", res, err)
	}
}

func TestReassembleGarbageStream(t *testing.T) {
	// Payload bytes that are not BGP: framing error reported, no panic.
	junk := make([]byte, 100)
	for i := range junk {
		junk[i] = byte(i)
	}
	pkts := packetsFor(junk, 50, func(i int) flows.Micros { return flows.Micros(i) })
	_, err := Reassemble(extractOne(t, pkts))
	if err == nil {
		t.Error("garbage stream reassembled without error")
	}
}

func TestReassembleSegmentBeforeStreamStart(t *testing.T) {
	// A mid-stream capture anchors the stream on its first data packet, so
	// a later retransmission of earlier bytes carries a negative offset.
	// Only its tail belongs to the stream; the bytes before offset 0 are
	// dropped rather than indexing out of the buffer.
	stream := bgpStream(t, 20)
	pkts := packetsFor(stream, 700, func(i int) flows.Micros { return flows.Micros(i) * 1000 })
	early := *pkts[0].Pkt
	early.TCP.Seq -= 40
	early.Payload = append(make([]byte, 40), stream[:100]...)
	pkts = append(pkts, flows.TimedPacket{Time: flows.Micros(len(pkts)) * 1000, Pkt: &early})
	c := extractOne(t, pkts)
	if c.Data[len(c.Data)-1].Seq >= 0 {
		t.Fatalf("retransmission offset = %d, want negative", c.Data[len(c.Data)-1].Seq)
	}
	res, err := Reassemble(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.StreamBytes != int64(len(stream)) || len(res.Messages) != 22 {
		t.Errorf("stream bytes = %d, messages = %d; want %d, 22", res.StreamBytes, len(res.Messages), len(stream))
	}
	res, msgs, err := WalkUpdates(c, 0, func(flows.Micros, []byte) {})
	if err != nil || msgs != 22 || res.StreamBytes != int64(len(stream)) {
		t.Errorf("walk: msgs = %d, stream bytes = %d, err = %v", msgs, res.StreamBytes, err)
	}
}

func TestReassembleLimitedTruncates(t *testing.T) {
	// A byte cap below the stream size: decoding covers only the capped
	// prefix and the excess is reported, not silently dropped.
	stream := bgpStream(t, 20)
	pkts := packetsFor(stream, 200, func(i int) flows.Micros { return flows.Micros(i) })
	c := extractOne(t, pkts)
	full, err := Reassemble(c)
	if err != nil {
		t.Fatal(err)
	}
	cap := full.StreamBytes / 2
	res, err := ReassembleOpts(c, Options{MaxBytes: cap, KeepRaw: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.TruncatedBytes != full.StreamBytes-cap {
		t.Errorf("TruncatedBytes = %d, want %d", res.TruncatedBytes, full.StreamBytes-cap)
	}
	if len(res.Messages) == 0 || len(res.Messages) >= len(full.Messages) {
		t.Errorf("capped decode recovered %d of %d messages", len(res.Messages), len(full.Messages))
	}
	if !res.LooksLikeBGP {
		t.Error("BGP stream not recognized as BGP")
	}
}

func TestReassembleNonBGPNotFlagged(t *testing.T) {
	// A connection carrying something other than BGP: the framing error is
	// expected, and LooksLikeBGP must stay false so callers can tell
	// "damaged BGP" from "not BGP at all".
	payload := make([]byte, 64) // zeros: no marker, framing fails
	pkts := packetsFor(payload, 64, func(i int) flows.Micros { return flows.Micros(i) })
	res, err := ReassembleOpts(extractOne(t, pkts), Options{KeepRaw: true})
	if err == nil {
		t.Fatal("zero-filled stream framed as BGP")
	}
	if res.LooksLikeBGP {
		t.Error("zero-filled stream flagged as BGP")
	}
}

// TestWalkUpdatesMatchesReassemble checks the walk against the parsed
// reassembly on clean, reordered, capped and damaged streams: the same
// Result, message count and error, and one callback per UPDATE carrying
// its completion time and NLRI bytes.
func TestWalkUpdatesMatchesReassemble(t *testing.T) {
	stream := bgpStream(t, 30)
	// Break the marker of the 11th update (OPEN and KEEPALIVE take 48 bytes,
	// the 30 updates are equal-sized).
	damaged := append([]byte(nil), stream...)
	damaged[48+10*(len(stream)-48)/30] = 0
	reordered := func(i int) flows.Micros {
		if i == 2 {
			return 90_000
		}
		return flows.Micros(i) * 1000
	}
	cases := []struct {
		name     string
		stream   []byte
		times    func(i int) flows.Micros
		maxBytes int64
	}{
		{"clean", stream, func(i int) flows.Micros { return flows.Micros(i) * 1000 }, 0},
		{"reordered", stream, reordered, 0},
		{"capped", stream, reordered, int64(len(stream)/3 + 5)},
		{"damaged", damaged, reordered, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := extractOne(t, packetsFor(tc.stream, 150, tc.times))
			want, werr := ReassembleOpts(c, Options{MaxBytes: tc.maxBytes, KeepRaw: true})
			type call struct {
				time flows.Micros
				nlri string
			}
			var calls []call
			got, msgs, err := WalkUpdates(c, tc.maxBytes, func(tm flows.Micros, nlri []byte) {
				calls = append(calls, call{tm, string(nlri)})
			})
			if fmt.Sprint(err) != fmt.Sprint(werr) {
				t.Fatalf("err = %v, ReassembleOpts err = %v", err, werr)
			}
			if got.StreamBytes != want.StreamBytes || got.TruncatedBytes != want.TruncatedBytes ||
				got.LooksLikeBGP != want.LooksLikeBGP || len(got.MissingRanges) != len(want.MissingRanges) || got.Messages != nil {
				t.Errorf("result = %+v, ReassembleOpts %+v", got, want)
			}
			if (werr != nil) != (tc.name == "damaged") {
				t.Fatalf("ReassembleOpts err = %v", werr)
			}
			if werr != nil {
				return
			}
			var wantCalls []call
			for _, m := range want.Messages {
				if _, ok := m.Msg.(*bgp.Update); ok {
					// No withdrawn routes; the attribute block is under 256 bytes.
					nlri := m.Raw[bgp.HeaderLen+4+int(m.Raw[bgp.HeaderLen+3]):]
					wantCalls = append(wantCalls, call{m.Time, string(nlri)})
				}
			}
			if msgs != len(want.Messages) || fmt.Sprint(calls) != fmt.Sprint(wantCalls) {
				t.Errorf("walked %d messages, calls %v; ReassembleOpts %d messages, updates %v",
					msgs, calls, len(want.Messages), wantCalls)
			}
		})
	}
}
