package cacheserver_test

import (
	"bytes"
	"errors"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"persistcc/internal/cacheserver"
	"persistcc/internal/core"
	"persistcc/internal/loader"
	"persistcc/internal/store"
	"persistcc/internal/workload"
)

// Tests for PUBLISH's payload, a publication: the run's manifest, naming
// each trace it reused by its blob's address, plus a pack of the blobs of
// the traces it encoded, and the count of traces it translated.

// treeBytes reads every file under dir, by path relative to it.
func treeBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		out[rel] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// bytesIn reads a daemon's pcc_server_frame_bytes_total{dir="in"}: the
// request payload bytes it has received.
func bytesIn(srv *cacheserver.Server) float64 {
	v, _ := srv.Metrics().Snapshot().Value("pcc_server_frame_bytes_total", "in")
	return v
}

// TestFleetPrimedGCCPublishesItsDelta: 176.gcc's five Reference inputs run
// one after another on one machine, each primed through a Fallback over one
// daemon from what the runs before it published. Each run's publish counts
// as new exactly the traces it translated, and in5, which adds a trace or
// so to an entry of thousands, sends at most maxShare of its run's image.
func TestFleetPrimedGCCPublishesItsDelta(t *testing.T) {
	const maxShare = 0.35
	gcc, err := workload.BuildSpecBenchmark("176.gcc")
	if err != nil {
		t.Fatal(err)
	}
	srv, addr, _ := startServer(t)
	f := newFallback(t, addr)
	for i, in := range gcc.Ref {
		v, err := gcc.Prog.NewVM(loader.Config{}, in)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Prime(v); err != nil && !errors.Is(err, core.ErrNoCache) {
			t.Fatal(err)
		}
		res, err := v.Run()
		if err != nil {
			t.Fatal(err)
		}
		cf, _ := core.BuildCacheFile(v)
		image, err := cf.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		before := bytesIn(srv)
		rep, err := f.Commit(v)
		if err != nil {
			t.Fatal(err)
		}
		sent := bytesIn(srv) - before
		t.Logf("%s: %d traces translated, %d in the entry; published %.0f bytes against a %d-byte image",
			in.Name, res.Stats.TracesTranslated, rep.Traces, sent, len(image))
		if uint64(rep.NewTraces) != res.Stats.TracesTranslated {
			t.Errorf("%s: the commit counts %d new traces, the run translated %d", in.Name, rep.NewTraces, res.Stats.TracesTranslated)
		}
		if i == len(gcc.Ref)-1 && sent > maxShare*float64(len(image)) {
			t.Errorf("%s: published %.0f bytes, %.2f of its %d-byte image; want at most %.2f",
				in.Name, sent, sent/float64(len(image)), len(image), maxShare)
		}
	}
}

// TestWarmPublishSkips: a run primed from a local database publishes to a
// daemon that holds its entry. It translated nothing, so its publication
// names every blob by address and carries no pack, and the daemon skips the
// commit by the rule a local commit skips by: its database stays byte for
// byte as it was, and the skipped-commit counter rises by one.
func TestWarmPublishSkips(t *testing.T) {
	dir := t.TempDir()
	srv, addr, daemon := serve(t, dir)
	w := buildWorld(t, "warmskip", 31)
	cold, _ := w.ranVM(t, 50)
	local, err := core.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := local.Commit(cold); err != nil {
		t.Fatal(err)
	}
	c := newClient(addr)
	defer c.Close()
	coldCF, _ := core.BuildCacheFile(cold)
	if _, err := c.Publish(coldCF); err != nil {
		t.Fatal(err)
	}

	warm := w.freshVM(t, 50)
	if rep, err := local.Prime(warm); err != nil || rep.Installed != len(coldCF.Traces) {
		t.Fatalf("local prime %+v, %v; want every trace", rep, err)
	}
	if res, err := warm.Run(); err != nil || res.Stats.TracesTranslated != 0 {
		t.Fatalf("warm run: %v; want nothing translated", err)
	}
	cf, _ := core.BuildCacheFile(warm)
	pub, err := core.NewPublication(cf, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(pub.Packs) != 0 || pub.Fresh != 0 {
		t.Fatalf("the warm run's publication carries %d packs and %d fresh traces, want none", len(pub.Packs), pub.Fresh)
	}
	skipped := func() float64 {
		v, _ := daemon.Metrics().Snapshot().Value("pcc_core_commits_total", "skipped")
		return v
	}
	tree, skips, in := treeBytes(t, dir), skipped(), bytesIn(srv)
	rep, err := c.Publish(cf)
	if err != nil || !rep.Skipped {
		t.Fatalf("publish %+v, %v; want skipped", rep, err)
	}
	if got, want := bytesIn(srv)-in, len(cacheserver.EncodePublicationForTest(pub)); got != float64(want) {
		t.Errorf("the daemon received %.0f bytes, want one %d-byte payload: the manifest and no pack", got, want)
	}
	if !reflect.DeepEqual(treeBytes(t, dir), tree) {
		t.Error("a skipped publish changed the daemon's database")
	}
	if n := skipped() - skips; n != 1 {
		t.Errorf("skipped-commit counter rose by %v, want 1", n)
	}
}

// request sends one raw request frame to the daemon at addr and returns
// the status of its answer.
func request(t *testing.T, addr string, op uint8, payload []byte) uint8 {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := cacheserver.WriteFrameForTest(conn, op, payload); err != nil {
		t.Fatal(err)
	}
	status, _, err := cacheserver.ReadFrameForTest(conn)
	if err != nil {
		t.Fatal(err)
	}
	return status
}

// TestHostilePublications: a PUBLISH whose payload fails a check gets an
// error answer, leaves the entry's manifest as it was and writes nothing at
// all: the manifest and every pack decode, and every member the manifest
// references is checked against the traces that name it, before anything
// is written. One whose blob does not match the manifest's module table
// quarantines none of the daemon's packs: the pack is sound, the manifest
// is not. A pack member the manifest does not reference is never stored.
func TestHostilePublications(t *testing.T) {
	dir := t.TempDir()
	_, addr, daemon := serve(t, dir)
	w := buildWorld(t, "hostile", 24)
	v, _ := w.ranVM(t, 50)
	cf, ks := core.BuildCacheFile(v)
	partial := *cf
	partial.Traces = cf.Traces[:len(cf.Traces)-1]
	c := newClient(addr)
	defer c.Close()
	if _, err := c.Publish(&partial); err != nil {
		t.Fatal(err)
	}
	entry := filepath.Join(dir, ks.ManifestFileName())
	committed, err := os.ReadFile(entry)
	if err != nil {
		t.Fatal(err)
	}

	good, err := core.NewPublication(cf, false)
	if err != nil {
		t.Fatal(err)
	}
	// A pack whose first member's bytes no longer hash to its index entry.
	p, err := store.DecodePack(good.Packs[0])
	if err != nil {
		t.Fatal(err)
	}
	var body []byte
	lens := make([]uint32, len(p.Encs))
	for i, enc := range p.Encs {
		lens[i] = uint32(len(enc))
		body = append(body, enc...)
	}
	body[len(p.Encs[0])-1] ^= 0xFF
	badMember := packFile(p.Hashes, lens, body)
	// A manifest whose trailer no longer matches.
	flipped := bytes.Clone(good.Manifest)
	flipped[len(flipped)/2] ^= 1
	// A sound manifest moving a module its first trace's blob refers to.
	man, err := store.DecodeManifest(good.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	man.Modules[man.Traces[0].Refs[0]].Base += 0x10000
	moved := man.Encode()

	payload := func(manifest []byte, packs [][]byte) []byte {
		return cacheserver.EncodePublicationForTest(&core.Publication{Manifest: manifest, Packs: packs, Fresh: good.Fresh})
	}
	whole := payload(good.Manifest, good.Packs)
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"pack member fails its hash", payload(good.Manifest, [][]byte{badMember})},
		{"manifest fails its trailer", payload(flipped, good.Packs)},
		{"blob refs disagree with the module table", payload(moved, good.Packs)},
		{"truncated", whole[:len(whole)-len(whole)/3]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tree := treeBytes(t, dir)
			if status := request(t, addr, cacheserver.OpPublish, tc.payload); status != cacheserver.StatusError {
				t.Errorf("status %d, want StatusError", status)
			}
			if got, err := os.ReadFile(entry); err != nil || !bytes.Equal(got, committed) {
				t.Errorf("the entry's manifest changed (%v)", err)
			}
			after := treeBytes(t, dir)
			if !reflect.DeepEqual(after, tree) {
				t.Error("the refused publish wrote to the database")
			}
			for path := range after {
				if strings.Contains(path, "quarantine") {
					t.Errorf("%s quarantined", path)
				}
			}
		})
	}

	stray := []byte("a blob no manifest names")
	h := store.Sum(stray)
	packs := append(store.EncodePacks([]store.Hash{h}, [][]byte{stray}), good.Packs...)
	if status := request(t, addr, cacheserver.OpPublish, payload(good.Manifest, packs)); status != cacheserver.StatusOK {
		t.Fatalf("a sound publication with a stray pack: status %d, want StatusOK", status)
	}
	st, err := daemon.Store()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.SizeOf(h); ok {
		t.Error("a pack member the manifest does not reference was stored")
	}
	if got, _ := os.ReadFile(entry); bytes.Equal(got, committed) {
		t.Error("the sound publication did not commit")
	}
}
