// Package reassembly reconstructs the sender→receiver TCP byte stream of an
// extracted connection, tolerating out-of-order delivery and
// retransmissions, and extracts the BGP messages it carries. This is the
// core of the paper's pcap2bgp side tool (§II-A): for vendor collectors
// that keep no MRT archive, it recovers the BGP message stream (with
// arrival timestamps) straight from the packet trace.
package reassembly

import (
	"bytes"
	"fmt"
	"sort"
	"sync"

	"tdat/internal/bgp"
	"tdat/internal/flows"
	"tdat/internal/timerange"
)

// Message is one BGP message recovered from the stream, stamped with the
// arrival time of the packet that completed it.
type Message struct {
	Time timerange.Micros
	Msg  bgp.Message
	Raw  []byte
}

// Result is the reassembly outcome for one connection.
type Result struct {
	Messages []Message
	// StreamBytes is the number of contiguous stream bytes recovered from
	// offset zero.
	StreamBytes int64
	// MissingRanges lists sequence ranges never captured (tcpdump drops or
	// pre-capture history); decoding stops at the first persistent hole so
	// framing is never guessed.
	MissingRanges []timerange.Range
	// TruncatedBytes counts recovered contiguous bytes beyond the caller's
	// byte cap that were left undecoded — the lenient resource cap a
	// corrupt-sequence capture cannot blow past.
	TruncatedBytes int64
	// LooksLikeBGP reports that the recovered stream opens with the BGP
	// synchronization marker (or decoded at least one message): a framing
	// error then means a damaged BGP transfer, not some other protocol on
	// the wire.
	LooksLikeBGP bool
}

// bgpMarker is the all-ones synchronization marker opening every BGP
// message header.
var bgpMarker = bytes.Repeat([]byte{0xFF}, 16)

// span records when the stream bytes up to end first became available.
type span struct {
	end  int64
	time timerange.Micros
}

// Options tunes batch reassembly; the zero value matches Reassemble.
type Options struct {
	// MaxBytes caps the linearized contiguous prefix (0 means unlimited);
	// the overflow is reported in Result.TruncatedBytes.
	MaxBytes int64
	// KeepRaw populates Message.Raw with a private copy of each message's
	// wire bytes. Callers that only read the parsed messages leave it off
	// and skip one stream-sized set of copies per connection; tools that
	// re-emit wire bytes (pcap2bgp, MRT conversion) turn it on.
	KeepRaw bool
}

// Reassemble rebuilds the byte stream of c and splits it into BGP messages.
func Reassemble(c *flows.Connection) (*Result, error) {
	return ReassembleOpts(c, Options{KeepRaw: true})
}

// seg is one first-arrival payload at a stream offset.
type seg struct {
	off  int64
	data []byte
	time timerange.Micros
}

// streamPool recycles the linearization buffer across connections: the
// parsed messages never alias it (bgp.Parse copies what it keeps, Raw is an
// explicit copy) and WalkUpdates' callback views end with the walk, so each
// buffer can be handed to the next connection once its result is built.
var streamPool = sync.Pool{New: func() any { return new([]byte) }}

// getStream returns a buffer of length n, zeroed unless the caller promises
// to overwrite every byte. Zeroing matters when coverage has holes: a longer
// duplicate of a segment start may have been deduplicated away, and bytes
// only the duplicate covered must read as zero — the same bytes a freshly
// allocated buffer would have shown.
func getStream(n int64, fullyCovered bool) *[]byte {
	bp := streamPool.Get().(*[]byte)
	if int64(cap(*bp)) < n {
		*bp = make([]byte, n)
		return bp
	}
	*bp = (*bp)[:n]
	if !fullyCovered {
		clear(*bp)
	}
	return bp
}

// ReassembleOpts is Reassemble with explicit options.
func ReassembleOpts(c *flows.Connection, opts Options) (*Result, error) {
	return linearize(c, opts.MaxBytes, func(res *Result, stream []byte, spans []span) error {
		msgs, consumed, err := bgp.SplitStream(stream)
		if err != nil {
			return framingError(consumed, err)
		}
		res.Messages = make([]Message, 0, len(msgs))
		off := int64(0)
		for _, m := range msgs {
			length := int64(uint16(stream[off+16])<<8 | uint16(stream[off+17]))
			var raw []byte
			if opts.KeepRaw {
				raw = append([]byte(nil), stream[off:off+length]...)
			}
			res.Messages = append(res.Messages, Message{
				Time: timeAt(spans, off+length),
				Msg:  m,
				Raw:  raw,
			})
			off += length
		}
		return nil
	})
}

// WalkUpdates reassembles c as ReassembleOpts does with maxBytes as
// Options.MaxBytes, but walks the recovered stream with bgp.WalkUpdates
// instead of parsing it: fn receives each UPDATE's completion time and NLRI
// section, and no Messages are built. nlri aliases the pooled stream buffer
// and is valid only during the call, so fn must copy what it keeps. It
// returns the count of whole messages walked; the Result and error match
// ReassembleOpts.
func WalkUpdates(c *flows.Connection, maxBytes int64, fn func(t timerange.Micros, nlri []byte)) (*Result, int, error) {
	msgs := 0
	res, err := linearize(c, maxBytes, func(_ *Result, stream []byte, spans []span) error {
		n, consumed, err := bgp.WalkUpdates(stream, func(end int, nlri []byte) {
			fn(timeAt(spans, int64(end)), nlri)
		})
		msgs = n
		if err != nil {
			return framingError(consumed, err)
		}
		return nil
	})
	return res, msgs, err
}

// framingError wraps the BGP error that stopped a stream split at offset.
func framingError(offset int, err error) error {
	return fmt.Errorf("reassembly: BGP framing at offset %d: %w", offset, err)
}

// linearize rebuilds the contiguous stream prefix of c, capped at maxBytes
// when positive, in a pooled buffer and hands it to decode with the
// per-segment arrival boundaries timeAt reads; the buffer returns to the
// pool when decode does. decode is not called when c carries no payload.
func linearize(c *flows.Connection, maxBytes int64, decode func(res *Result, stream []byte, spans []span) error) (*Result, error) {
	firstAt := make(map[int64]struct{}, len(c.Data))
	segs := make([]seg, 0, len(c.Data))
	covered := timerange.NewSet()
	var limit int64
	for i := range c.Data {
		d := &c.Data[i]
		if d.Len == 0 {
			continue
		}
		// First arrival wins: retransmissions carry identical bytes.
		if _, ok := firstAt[d.Seq]; !ok {
			firstAt[d.Seq] = struct{}{}
			payload := d.Payload
			if payload == nil {
				payload = make([]byte, d.Len) // length-only traces
			}
			segs = append(segs, seg{off: d.Seq, data: payload, time: d.Time})
		}
		covered.Add(timerange.R(d.Seq, d.SeqEnd))
		if d.SeqEnd > limit {
			limit = d.SeqEnd
		}
	}

	res := &Result{}
	if limit == 0 {
		return res, nil
	}
	contig := int64(0)
	if r, ok := covered.CoveringRange(0); ok {
		contig = r.End
	}
	res.StreamBytes = contig
	res.MissingRanges = covered.Complement(timerange.R(0, limit)).Ranges()
	if maxBytes > 0 && contig > maxBytes {
		res.TruncatedBytes = contig - maxBytes
		contig = maxBytes
	}

	// Linearize the contiguous prefix, remembering per-segment arrival
	// boundaries for message timestamping. Segments are copied in ascending
	// offset order (they usually already are — capture order), not map
	// order, so overlapping segments with inconsistent payloads in an
	// adversarial trace still linearize deterministically.
	sorted := true
	for i := 1; i < len(segs); i++ {
		if segs[i].off < segs[i-1].off {
			sorted = false
			break
		}
	}
	if !sorted {
		sort.SliceStable(segs, func(i, j int) bool { return segs[i].off < segs[j].off })
	}
	// The copy loop below overwrites every byte of [0, contig) iff the kept
	// first-arrival segments leave no hole — the usual case, which lets
	// getStream skip zeroing a recycled buffer.
	var keptTo int64
	for _, s := range segs {
		if s.off > keptTo {
			break
		}
		if end := s.off + int64(len(s.data)); end > keptTo {
			keptTo = end
		}
	}
	streamBuf := getStream(contig, keptTo >= contig)
	stream := *streamBuf
	spans := make([]span, 0, len(segs))
	for _, s := range segs {
		start, end := s.off, s.off+int64(len(s.data))
		if start >= contig || end <= 0 {
			continue
		}
		// Sequence numbers before ISN+1 (a damaged capture, or a mid-stream
		// one anchored after the segment was first sent) precede the
		// stream's first byte: only the segment's tail belongs to it.
		start = max(start, 0)
		end = min(end, contig)
		copy(stream[start:end], s.data[start-s.off:end-s.off])
		spans = append(spans, span{end: end, time: s.time})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].end < spans[j].end })

	res.LooksLikeBGP = len(stream) >= len(bgpMarker) && bytes.Equal(stream[:len(bgpMarker)], bgpMarker)
	err := decode(res, stream, spans)
	streamPool.Put(streamBuf)
	return res, err
}

// timeAt returns the arrival time of the segment containing stream position
// pos-1, i.e. when the message ending at pos became complete.
func timeAt(spans []span, pos int64) timerange.Micros {
	i := sort.Search(len(spans), func(i int) bool { return spans[i].end >= pos })
	if i < len(spans) {
		return spans[i].time
	}
	if len(spans) > 0 {
		return spans[len(spans)-1].time
	}
	return 0
}
