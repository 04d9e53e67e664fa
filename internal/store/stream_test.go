package store_test

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"persistcc/internal/store"
	"persistcc/internal/vm"
)

// bigBlobs returns n distinct blobs of ~10 KB encoding each, so that a pack
// of a few of them inflates in several chunks.
func bigBlobs(seed byte, n int) []*store.Blob {
	out := make([]*store.Blob, n)
	for i := range out {
		out[i] = mkBlob(seed+byte(i), 1000)
	}
	return out
}

// putPack writes blobs as one new pack in dir's store and returns its path.
func putPack(t *testing.T, dir string, blobs []*store.Blob) string {
	t.Helper()
	before := storeFiles(t, dir, ".pck")
	if _, _, err := openStore(t, dir).PutAll(blobs); err != nil {
		t.Fatal(err)
	}
	for _, p := range storeFiles(t, dir, ".pck") {
		if !slices.Contains(before, p) {
			return p
		}
	}
	t.Fatal("PutAll wrote no pack")
	return ""
}

// rewriteBody replaces the flate stream of the pack at path with what body
// makes of its inflated members (raw) and their offsets in it; the header
// and index, and so the index crc, stay as they are.
func rewriteBody(t *testing.T, path string, body func(raw []byte, offs []int) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	count := int(binary.LittleEndian.Uint32(data[4:]))
	end := 12 + 36*count + 4
	offs := []int{0}
	for i := 0; i < count; i++ {
		offs = append(offs, offs[i]+int(binary.LittleEndian.Uint32(data[12+36*i+32:])))
	}
	raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(data[end:])))
	if err != nil || len(raw) != offs[count] {
		t.Fatalf("inflating %s: %d of %d bytes, %v", path, len(raw), offs[count], err)
	}
	if err := os.WriteFile(path, append(data[:end:end], body(raw, offs)...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// deflated is raw as one flate stream; an unterminated stream is flushed
// but never closed, so it stops after raw without saying it has ended.
func deflated(raw []byte, terminated bool) []byte {
	var buf bytes.Buffer
	zw, _ := flate.NewWriter(&buf, flate.BestSpeed)
	zw.Write(raw)
	if terminated {
		zw.Close()
	} else {
		zw.Flush()
	}
	return buf.Bytes()
}

// goroutinesBack fails t unless the goroutine count returns to base: a
// reader that left an inflater running leaks it. A goroutine that has
// signalled its end may take a moment more to exit, hence the wait.
func goroutinesBack(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the read, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLocalTracesStreamFaults: a pack inflates beside the loop that
// verifies and decodes its members, and whatever is wrong with its stream —
// found while a member waits for its bytes, by a member's hash, or by the
// verdict on the whole stream after the last member — is ErrBlobCorrupt,
// quarantines the pack and leaves no inflater running, with any other pack
// the read was inflating stopped and left where it is.
func TestLocalTracesStreamFaults(t *testing.T) {
	cases := []struct {
		name string
		body func(raw []byte, offs []int) []byte
	}{
		{"torn inside a member", func(raw []byte, offs []int) []byte {
			return deflated(raw[:(offs[4]+offs[5])/2], false)
		}},
		{"bytes trailing after rawLen", func(raw []byte, _ []int) []byte {
			return deflated(append(raw, "trailing"...), true)
		}},
		{"ends short", func(raw []byte, _ []int) []byte {
			return deflated(raw[:len(raw)-7], true)
		}},
		{"bad hash on the last member", func(raw []byte, _ []int) []byte {
			raw[len(raw)-3] ^= 0x01
			return deflated(raw, true)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			blobs := bigBlobs(1, 8)
			path := putPack(t, dir, blobs)
			rewriteBody(t, path, c.body)
			s := openStore(t, dir)
			base := runtime.NumGoroutine()
			_, err := s.LocalTraces(manifestOver(blobs...), nil)
			goroutinesBack(t, base)
			if !errors.Is(err, store.ErrBlobCorrupt) {
				t.Fatalf("LocalTraces: %v, want ErrBlobCorrupt", err)
			}
			if _, err := os.Stat(filepath.Join(dir, "quarantine", filepath.Base(path))); err != nil {
				t.Errorf("pack not quarantined: %v", err)
			}
			if hot := store.HotPacks(s); len(hot) != 0 {
				t.Errorf("a failed stream was kept hot: %v", hot)
			}
			if _, err := s.LocalTraces(manifestOver(blobs...), nil); !errors.Is(err, store.ErrBlobMissing) {
				t.Errorf("after quarantine: %v, want ErrBlobMissing", err)
			}
		})
	}

	// Pack a fails while pack b, opened after it, is still inflating: b's
	// inflater is stopped, and b is untouched and reads whole afterwards.
	twoPacks := []struct {
		name  string
		order func(a, b []*store.Blob) []*store.Blob
		body  func(raw []byte, offs []int) []byte
	}{
		{"a member of the first pack fails", func(a, b []*store.Blob) []*store.Blob {
			return []*store.Blob{a[0], b[0], a[1]}
		}, func(raw []byte, offs []int) []byte {
			raw[offs[1]] ^= 0x01
			return deflated(raw, true)
		}},
		{"the first pack's verdict fails", func(a, b []*store.Blob) []*store.Blob {
			return []*store.Blob{a[0], a[1], b[0]}
		}, func(raw []byte, _ []int) []byte {
			return deflated(append(raw, "trailing"...), true)
		}},
	}
	for _, c := range twoPacks {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			a, b := bigBlobs(20, 2), bigBlobs(40, 24)
			pathA, pathB := putPack(t, dir, a), putPack(t, dir, b)
			rewriteBody(t, pathA, c.body)
			s := openStore(t, dir)
			base := runtime.NumGoroutine()
			_, err := s.LocalTraces(manifestOver(c.order(a, b)...), nil)
			goroutinesBack(t, base)
			if !errors.Is(err, store.ErrBlobCorrupt) {
				t.Fatalf("LocalTraces: %v, want ErrBlobCorrupt", err)
			}
			if _, err := os.Stat(filepath.Join(dir, "quarantine", filepath.Base(pathA))); err != nil {
				t.Errorf("failed pack not quarantined: %v", err)
			}
			if _, err := os.Stat(pathB); err != nil {
				t.Fatalf("the pack still inflating was moved: %v", err)
			}
			if hot := store.HotPacks(s); len(hot) != 0 {
				t.Errorf("a failed read kept %v hot", hot)
			}
			if got, err := s.LocalTraces(manifestOver(b...), nil); err != nil || len(got) != len(b) {
				t.Errorf("the stopped pack reads %d traces, %v", len(got), err)
			}
		})
	}
}

// TestConcurrentPrimesHeatOnce: two reads of the same cold pack through
// one store at once each inflate it, get the same traces, and leave the
// pack hot once.
func TestConcurrentPrimesHeatOnce(t *testing.T) {
	dir := t.TempDir()
	blobs := bigBlobs(60, 16)
	path := putPack(t, dir, blobs)
	s := openStore(t, dir)
	man := manifestOver(blobs...)
	var got [2][]*vm.Trace
	var errs [2]error
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			got[i], errs[i] = s.LocalTraces(man, nil)
		}()
	}
	start.Done()
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("LocalTraces: %v, %v", errs[0], errs[1])
	}
	if len(got[0]) != len(blobs) || !reflect.DeepEqual(got[0], got[1]) {
		t.Errorf("the two reads differ: %d and %d traces", len(got[0]), len(got[1]))
	}
	if hot := store.HotPacks(s); !slices.Equal(hot, []string{path}) {
		t.Errorf("hot packs %v, want the one pack once", hot)
	}
}
