package cacheserver

import (
	"io"
	"time"

	"persistcc/internal/binenc"
	"persistcc/internal/core"
)

// Frame-layer hooks for the black-box protocol tests' fake servers.
func ReadFrameForTest(r io.Reader) (uint8, []byte, error) {
	return readFrame(r, MaxFrame)
}

func WriteFrameForTest(w io.Writer, tag uint8, payload []byte) error {
	return writeFrame(w, tag, payload, MaxFrame)
}

// WithDispatchDelay stalls every dispatch, letting the drain tests hold a
// request in flight deterministically.
func WithDispatchDelay(d time.Duration) Option {
	return func(s *Server) {
		s.dispatchHook = func() { time.Sleep(d) }
	}
}

// EncodeKeyRequestForTest builds a LOOKUP/FETCHMANIFESTS payload for the
// tests that speak raw frames.
func EncodeKeyRequestForTest(ks core.KeySet, scope Scope) []byte {
	return encodeKeyRequest(ks, scope)
}

// WithIOTimeoutForTest makes d the client's round-trip deadline base and
// shortens the maintenance ops' base by the same factor, so a test of a
// daemon that never answers fails fast instead of waiting it out.
func WithIOTimeoutForTest(d time.Duration) ClientOption {
	return func(c *Client) {
		c.baseDeadline, c.maintenanceDeadline = d, d*(maintenanceBase/ioBase)
	}
}

// BreakerOpenForTest reports the client's breaker state.
func (c *Client) BreakerOpenForTest() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.breakerOpen
}

// EncodePackFilesForTest builds a FETCHPACKS response for the fake daemons
// that send packs a store would never write.
func EncodePackFilesForTest(packs [][]byte) []byte {
	return encodePackFiles(packs)
}

// EncodeManifestItemsForTest builds a FETCHMANIFESTS response for the fake
// daemons that serve items a current daemon never would.
func EncodeManifestItemsForTest(items []ManifestItem) []byte {
	return encodeManifestItems(items)
}

// EncodeErrorForTest builds a StatusError payload.
func EncodeErrorForTest(msg string) []byte {
	w := &binenc.Writer{}
	w.Str(msg)
	return w.Buf
}

// DecodeDBStatsForTest decodes a STATS response.
func DecodeDBStatsForTest(b []byte) (*core.DBStats, error) {
	return decodeDBStats(b)
}

// EncodePublicationForTest builds a PUBLISH payload, for the tests that send
// publications no client would.
func EncodePublicationForTest(pub *core.Publication) []byte {
	return encodePublication(pub)
}
