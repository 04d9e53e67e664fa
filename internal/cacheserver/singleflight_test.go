package cacheserver

import (
	"crypto/sha256"
	"sync"
	"testing"
	"time"

	"persistcc/internal/core"
)

// TestPublishSingleFlight pins the dedup behaviour deterministically: while
// a merge for one payload digest is in flight, an identical publish must
// wait for it and share its report instead of merging again.
func TestPublishSingleFlight(t *testing.T) {
	mgr, err := core.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(mgr)
	if err != nil {
		t.Fatal(err)
	}

	// An empty run's publication decodes cleanly, so its publish would
	// commit.
	pub, err := core.NewPublication(&core.CacheFile{}, false)
	if err != nil {
		t.Fatal(err)
	}
	payload := encodePublication(pub)
	digest := sha256.Sum256(payload)

	// Plant an in-flight merge for the digest by hand.
	want := &core.CommitReport{Traces: 7, File: "planted.pcm"}
	f := &flight{done: make(chan struct{}), rep: want}
	s.flMu.Lock()
	s.inflight[digest] = f
	s.flMu.Unlock()

	var wg sync.WaitGroup
	wg.Add(1)
	var got *core.CommitReport
	var gotErr error
	go func() {
		defer wg.Done()
		// If this publish did NOT join the planted flight it would commit
		// the empty run itself and report zero traces — observably
		// different from the planted report.
		resp, err := s.handlePublish(payload)
		if err != nil {
			gotErr = err
			return
		}
		got, gotErr = decodeCommitReport(resp)
	}()

	// The publisher must be blocked on the flight, not merging.
	time.Sleep(20 * time.Millisecond)
	s.flMu.Lock()
	delete(s.inflight, digest)
	s.flMu.Unlock()
	close(f.done)
	wg.Wait()

	if gotErr != nil {
		t.Fatalf("joined publish errored: %v", gotErr)
	}
	if got.Traces != want.Traces || got.File != want.File {
		t.Fatalf("joined publish got %+v, want %+v", got, want)
	}
}
