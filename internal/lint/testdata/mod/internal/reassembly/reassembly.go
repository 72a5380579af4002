// Package reassembly is the fixture stand-in for the real stream
// reassembler: WalkUpdates hands its callback NLRI views of a pooled stream
// buffer that is recycled once the walk returns, which is the contract the
// aliasretain analyzer enforces on callers (matched by module-relative path).
package reassembly

// Conn is one captured connection's sender payload.
type Conn struct {
	Payload []byte
}

// stream is the recycled linearization buffer.
var stream []byte

// WalkUpdates copies c's payload into the shared stream buffer and calls fn
// once per 4-byte "update" with a view of it; fn must not retain nlri past
// its return.
func WalkUpdates(c *Conn, maxBytes int64, fn func(t int64, nlri []byte)) int {
	stream = append(stream[:0], c.Payload...)
	if maxBytes > 0 && int64(len(stream)) > maxBytes {
		stream = stream[:maxBytes]
	}
	n := 0
	for off := 0; off+4 <= len(stream); off += 4 {
		fn(int64(off), stream[off:off+4])
		n++
	}
	return n
}
