// Package mrt implements the subset of the MRT export format (RFC 6396)
// that BGP collectors such as Quagga use to archive received updates:
// BGP4MP/BGP4MP_MESSAGE records wrapping raw BGP messages, with one-second
// timestamps (the classic format the paper's MRT archives use) plus the
// microsecond BGP4MP_ET extension for lossless round-trips of simulator
// output.
package mrt

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/netip"
)

// MRT type and subtype codes (RFC 6396).
const (
	TypeBGP4MP   = 16
	TypeBGP4MPET = 17 // extended timestamp (adds microseconds)

	SubtypeMessage = 1 // BGP4MP_MESSAGE, 2-byte AS numbers
)

// Errors returned by the codec.
var (
	ErrTruncated = errors.New("mrt: truncated record")
	ErrBadRecord = errors.New("mrt: malformed record")
)

// Record is one archived BGP message with collection metadata.
type Record struct {
	// TimeMicros is the collection timestamp in microseconds. Classic
	// BGP4MP records carry second resolution only; reading one yields a
	// timestamp rounded down to the second.
	TimeMicros int64
	PeerAS     uint16
	LocalAS    uint16
	PeerIP     netip.Addr
	LocalIP    netip.Addr
	// Raw is the full BGP message bytes (header included). ReadAll's
	// records alias the archive buffer it read (see ReadAll).
	Raw []byte
}

// Writer appends MRT records to a stream using BGP4MP_ET (microsecond)
// framing.
type Writer struct {
	w *bufio.Writer
}

// NewWriter creates a Writer.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// Write appends one record.
func (w *Writer) Write(rec Record) error {
	if !rec.PeerIP.Is4() || !rec.LocalIP.Is4() {
		return fmt.Errorf("%w: non-IPv4 peer addresses", ErrBadRecord)
	}
	// BGP4MP_MESSAGE body: peer AS(2) local AS(2) ifindex(2) AFI(2)
	// peer IP(4) local IP(4) message.
	body := make([]byte, 16+len(rec.Raw))
	binary.BigEndian.PutUint16(body[0:2], rec.PeerAS)
	binary.BigEndian.PutUint16(body[2:4], rec.LocalAS)
	binary.BigEndian.PutUint16(body[4:6], 0) // ifindex
	binary.BigEndian.PutUint16(body[6:8], 1) // AFI IPv4
	peer := rec.PeerIP.As4()
	local := rec.LocalIP.As4()
	copy(body[8:12], peer[:])
	copy(body[12:16], local[:])
	copy(body[16:], rec.Raw)

	var hdr [16]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(rec.TimeMicros/1_000_000))
	binary.BigEndian.PutUint16(hdr[4:6], TypeBGP4MPET)
	binary.BigEndian.PutUint16(hdr[6:8], SubtypeMessage)
	binary.BigEndian.PutUint32(hdr[8:12], uint32(4+len(body))) // + usec field
	binary.BigEndian.PutUint32(hdr[12:16], uint32(rec.TimeMicros%1_000_000))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("mrt: writing header: %w", err)
	}
	if _, err := w.w.Write(body); err != nil {
		return fmt.Errorf("mrt: writing body: %w", err)
	}
	return nil
}

// Flush writes buffered records through to the underlying stream.
func (w *Writer) Flush() error { return w.w.Flush() }

// ReadAll reads the whole input once and decodes every BGP4MP/BGP4MP_ET +
// BGP4MP_MESSAGE record from that one buffer; records of other types or
// subtypes, and non-IPv4 peers, are skipped. Each Record.Raw aliases the
// buffer, capped at the message end so an append cannot overwrite the next
// record — which means any live record keeps the whole archive buffer
// alive. A truncated or malformed record, or a read error, ends the decode:
// the records before it are returned together with the error.
func ReadAll(r io.Reader) ([]Record, error) {
	// MinRead headroom lets the final read see EOF without growing (and so
	// copying) an exactly presized buffer.
	data := make([]byte, 0, sizeHint(r)+bytes.MinRead)
	for {
		if len(data) == cap(data) {
			data = append(data, 0)[:len(data)]
		}
		n, err := r.Read(data[len(data):cap(data)])
		data = data[:len(data)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return decode(data, err)
		}
	}
}

// sizeHint is the input size when r can tell it cheaply, else 0.
func sizeHint(r io.Reader) int {
	switch v := r.(type) {
	case interface{ Len() int }: // bytes.Reader, bytes.Buffer, strings.Reader
		return v.Len()
	case interface{ Stat() (fs.FileInfo, error) }: // *os.File
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() {
			return int(fi.Size())
		}
	}
	return 0
}

const (
	// headerLen is the MRT common header: timestamp(4) type(2) subtype(2)
	// length(4).
	headerLen = 12
	// maxBodyLen bounds a record body; a longer declared length is taken
	// as corruption rather than read.
	maxBodyLen = 1 << 20
)

// decode decodes the records in data, which ended with readErr (nil at a
// clean end of input). A record cut short by the end of data fails the way
// a streaming read of the same input would: with readErr, or with io.EOF /
// io.ErrUnexpectedEOF when none or part of the needed bytes are present.
func decode(data []byte, readErr error) ([]Record, error) {
	shortErr := func(have int) error {
		switch {
		case readErr != nil:
			return readErr
		case have == 0:
			return io.EOF
		}
		return io.ErrUnexpectedEOF
	}
	// Pre-walk the headers to size the result once; the count can only
	// overestimate (a non-IPv4 record is skipped after its body is seen).
	count := 0
	for off := 0; len(data)-off >= headerLen; {
		typ, sub, length := header(data[off:])
		if length > maxBodyLen || int(length) > len(data)-off-headerLen {
			break
		}
		if (typ == TypeBGP4MP || typ == TypeBGP4MPET) && sub == SubtypeMessage {
			count++
		}
		off += headerLen + int(length)
	}
	out := make([]Record, 0, count)
	for off := 0; ; {
		rest := data[off:]
		if len(rest) < headerLen {
			if len(rest) == 0 && readErr == nil {
				return out, nil
			}
			return out, fmt.Errorf("%w: header: %v", ErrTruncated, shortErr(len(rest)))
		}
		typ, sub, length := header(rest)
		if length > maxBodyLen {
			return out, fmt.Errorf("%w: implausible length %d", ErrBadRecord, length)
		}
		if have := len(rest) - headerLen; have < int(length) {
			return out, fmt.Errorf("%w: body: %v", ErrTruncated, shortErr(have))
		}
		start, end := off+headerLen, off+headerLen+int(length)
		off = end
		isET := typ == TypeBGP4MPET
		if (typ != TypeBGP4MP && !isET) || sub != SubtypeMessage {
			continue // skip unknown record types
		}
		micros := int64(binary.BigEndian.Uint32(rest[0:4])) * 1_000_000
		if isET {
			if end-start < 4 {
				return out, fmt.Errorf("%w: ET timestamp", ErrTruncated)
			}
			micros += int64(binary.BigEndian.Uint32(data[start : start+4]))
			start += 4
		}
		body := data[start:end:end]
		if len(body) < 16 {
			return out, fmt.Errorf("%w: BGP4MP body %d bytes", ErrTruncated, len(body))
		}
		if afi := binary.BigEndian.Uint16(body[6:8]); afi != 1 {
			continue // IPv4 only
		}
		out = append(out, Record{
			TimeMicros: micros,
			PeerAS:     binary.BigEndian.Uint16(body[0:2]),
			LocalAS:    binary.BigEndian.Uint16(body[2:4]),
			PeerIP:     netip.AddrFrom4([4]byte(body[8:12])),
			LocalIP:    netip.AddrFrom4([4]byte(body[12:16])),
			Raw:        body[16:],
		})
	}
}

// header decodes the type, subtype and body length of the record header at
// the start of b, which holds at least headerLen bytes.
func header(b []byte) (typ, sub uint16, length uint32) {
	return binary.BigEndian.Uint16(b[4:6]), binary.BigEndian.Uint16(b[6:8]), binary.BigEndian.Uint32(b[8:12])
}
