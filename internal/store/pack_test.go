package store

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// testMembers returns n encodings of a few hundred bytes each, distinct for
// distinct seeds, and their hashes.
func testMembers(seed, n int) ([]Hash, [][]byte) {
	hashes := make([]Hash, n)
	encs := make([][]byte, n)
	for i := range encs {
		encs[i] = fmt.Appendf(nil, "member %d of seed %d:", i, seed)
		for j := 0; j < 40; j++ {
			encs[i] = fmt.Appendf(encs[i], " %d", (seed*7919+i*104729+j*j)%1000)
		}
		hashes[i] = Sum(encs[i])
	}
	return hashes, encs
}

// packRoundTrip writes one pack and inflates its stream back, checking
// every member against its index entry.
func packRoundTrip(t testing.TB, seed int) {
	hashes, encs := testMembers(seed, 4)
	_, ix, data := encodePack(hashes, encs)
	raw, err := inflate(data[indexLen(len(hashes)):], ix.rawLen())
	if err != nil {
		t.Errorf("seed %d: %v", seed, err)
		return
	}
	for i, h := range hashes {
		if Sum(raw[ix.offs[i]:ix.offs[i+1]]) != h {
			t.Errorf("seed %d: member %d does not re-hash to its index entry", seed, i)
		}
	}
}

// TestPackCodecsSurviveGC: a commit after a garbage collection reuses the
// deflater and inflater the last one used instead of building ~1.2 MB of
// compressor tables again.
func TestPackCodecsSurviveGC(t *testing.T) {
	packRoundTrip(t, 1)
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	packRoundTrip(t, 2)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 256<<10 {
		t.Fatalf("a pack round trip after two GCs allocated %d bytes; the codecs did not survive", n)
	}
}

// TestPackCodecsConcurrent: goroutines sharing the free lists never share a
// codec, so every stream inflates to exactly its own members.
func TestPackCodecsConcurrent(t *testing.T) {
	const workers, rounds = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				packRoundTrip(t, w*rounds+r)
			}
		}()
	}
	wg.Wait()
}
