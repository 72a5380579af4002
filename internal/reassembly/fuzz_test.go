package reassembly

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"tdat/internal/bgp"
	"tdat/internal/flows"
)

// segSpecLen is the size of one encoded segment in a fuzz spec.
const segSpecLen = 5

// Segment spec flags.
const (
	segLengthOnly = 1 << iota // nil payload, as in a length-only trace
	segCorrupt                // payload bytes differ from the stream's
	segShort                  // payload shorter than the segment length
)

// fuzzConn builds a connection from a fuzz spec: each 5-byte record is a
// signed 16-bit stream offset, a length, an arrival-time step in µs, and
// flags. Payload bytes come from stream, repeated to cover any offset, so
// overlapping segments carry consistent bytes unless flagged corrupt.
func fuzzConn(spec, stream []byte) *flows.Connection {
	c := &flows.Connection{Sender: sndEP, Receiver: rcvEP}
	var now flows.Micros
	for ; len(spec) >= segSpecLen; spec = spec[segSpecLen:] {
		off := int64(int16(binary.BigEndian.Uint16(spec)))
		n, flags := int(spec[2]), spec[4]
		now += flows.Micros(spec[3])
		var payload []byte
		if flags&segLengthOnly == 0 {
			payload = make([]byte, n)
			for i := range payload {
				if len(stream) > 0 {
					j := (off + int64(i)) % int64(len(stream))
					payload[i] = stream[(j+int64(len(stream)))%int64(len(stream))]
				}
				if flags&segCorrupt != 0 {
					payload[i] ^= 0xFF
				}
			}
			if flags&segShort != 0 {
				payload = payload[:n/2]
			}
		}
		c.Data = append(c.Data, flows.DataEvent{Time: now, Seq: off, SeqEnd: off + int64(n), Len: n, Payload: payload})
	}
	return c
}

// segSpec encodes one segment record for fuzzConn.
func segSpec(off int16, n, dt, flags byte) []byte {
	return append(binary.BigEndian.AppendUint16(nil, uint16(off)), n, dt, flags)
}

// reassembleDivergence runs WalkUpdates and ReassembleOpts on c with the
// same byte cap and describes the first way they disagree: the framing
// error, the Result fields both fill, the message count, or the completion
// time and NLRI section of any UPDATE.
func reassembleDivergence(c *flows.Connection, maxBytes int64) error {
	want, werr := ReassembleOpts(c, Options{MaxBytes: maxBytes, KeepRaw: true})
	type call struct {
		time flows.Micros
		nlri string
	}
	var calls []call
	got, msgs, err := WalkUpdates(c, maxBytes, func(t flows.Micros, nlri []byte) {
		calls = append(calls, call{t, string(nlri)})
	})
	switch {
	case fmt.Sprint(err) != fmt.Sprint(werr):
		return fmt.Errorf("WalkUpdates err = %v, ReassembleOpts err = %v", err, werr)
	case got.StreamBytes != want.StreamBytes:
		return fmt.Errorf("StreamBytes = %d, ReassembleOpts %d", got.StreamBytes, want.StreamBytes)
	case !slices.Equal(got.MissingRanges, want.MissingRanges):
		return fmt.Errorf("MissingRanges = %v, ReassembleOpts %v", got.MissingRanges, want.MissingRanges)
	case got.TruncatedBytes != want.TruncatedBytes:
		return fmt.Errorf("TruncatedBytes = %d, ReassembleOpts %d", got.TruncatedBytes, want.TruncatedBytes)
	case got.LooksLikeBGP != want.LooksLikeBGP:
		return fmt.Errorf("LooksLikeBGP = %v, ReassembleOpts %v", got.LooksLikeBGP, want.LooksLikeBGP)
	case got.Messages != nil:
		return fmt.Errorf("WalkUpdates built %d messages", len(got.Messages))
	case werr != nil:
		return nil
	case msgs != len(want.Messages):
		return fmt.Errorf("walked %d messages, ReassembleOpts %d", msgs, len(want.Messages))
	}
	var wantCalls []call
	var wire int64
	for _, m := range want.Messages {
		wire += int64(len(m.Raw))
		if _, ok := m.Msg.(*bgp.Update); !ok {
			continue
		}
		nlri, _, err := bgp.UpdateNLRI(m.Raw)
		if err != nil {
			return fmt.Errorf("ReassembleOpts kept an invalid UPDATE: %v", err)
		}
		wantCalls = append(wantCalls, call{m.Time, string(nlri)})
	}
	if !slices.Equal(calls, wantCalls) {
		return fmt.Errorf("UPDATE calls %v, ReassembleOpts %v", calls, wantCalls)
	}
	if decoded := want.StreamBytes - want.TruncatedBytes; wire > decoded {
		return fmt.Errorf("messages span %d bytes of a %d-byte decoded prefix", wire, decoded)
	}
	return nil
}

// FuzzReassemble is the differential target over the one reassembler:
// arbitrary segment offsets (negative ones included), overlaps, lengths,
// payloads and byte caps must never panic, and WalkUpdates must agree with
// ReassembleOpts on everything both report. CI runs it for a short smoke
// window; run locally with
//
//	go test -run='^$' -fuzz=FuzzReassemble -fuzztime=30s ./internal/reassembly
func FuzzReassemble(f *testing.F) {
	stream := bgpStream(f, 12)
	var inOrder, reordered, retrans, holed, early, corrupt, lengthOnly []byte
	for off := 0; off < len(stream); off += 200 {
		seg := segSpec(int16(off), byte(min(200, len(stream)-off)), 10, 0)
		inOrder = append(inOrder, seg...)
		if off == 400 {
			holed = append(holed, segSpec(int16(off), 100, 10, 0)...)
		} else {
			holed = append(holed, seg...)
		}
		lengthOnly = append(lengthOnly, segSpec(int16(off), seg[2], 10, segLengthOnly)...)
	}
	reordered = append(reordered, inOrder...)
	copy(reordered[segSpecLen:], inOrder[2*segSpecLen:3*segSpecLen])
	copy(reordered[2*segSpecLen:], inOrder[segSpecLen:2*segSpecLen])
	retrans = append(append(retrans, inOrder...), segSpec(150, 120, 200, 0)...)
	early = append(append(early, inOrder...), segSpec(-40, 140, 5, 0)...)
	corrupt = append(append(corrupt, segSpec(0, 100, 1, segCorrupt)...), inOrder...)
	for _, spec := range [][]byte{inOrder, reordered, retrans, holed, early, corrupt, lengthOnly} {
		f.Add(spec, stream, uint16(0))
		f.Add(spec, stream, uint16(len(stream)/3))
	}
	f.Add(append(bytes.Clone(inOrder), segSpec(300, 50, 0, segShort)...), stream, uint16(0))
	f.Add(inOrder, []byte("not bgp at all"), uint16(0))

	f.Fuzz(func(t *testing.T, spec, stream []byte, maxBytes uint16) {
		if err := reassembleDivergence(fuzzConn(spec, stream), int64(maxBytes)); err != nil {
			t.Fatal(err)
		}
	})
}
