// Package transferend is the aliasretain fixture for walk callbacks: the
// NLRI a reassembly.WalkUpdates callback receives aliases the pooled stream
// buffer, so keeping it needs a copy.
package transferend

import "fix.example/mod/internal/reassembly"

// RetainNLRI keeps the borrowed NLRI views themselves (aliasretain: finding
// — every kept view goes stale when the stream buffer is recycled).
func RetainNLRI(c *reassembly.Conn) [][]byte {
	var kept [][]byte
	reassembly.WalkUpdates(c, 0, func(t int64, nlri []byte) {
		kept = append(kept, nlri)
	})
	return kept
}

// CopyNLRI copies the bytes it keeps — the sanctioned ownership transfer
// (aliasretain: clean).
func CopyNLRI(c *reassembly.Conn) []byte {
	var keys []byte
	reassembly.WalkUpdates(c, 0, func(t int64, nlri []byte) {
		keys = append(keys, nlri...)
	})
	return keys
}
