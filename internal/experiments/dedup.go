package experiments

import (
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"time"

	"persistcc/internal/cacheserver"
	"persistcc/internal/core"
	"persistcc/internal/stats"
	"persistcc/internal/store"
	"persistcc/internal/vm"
	"persistcc/internal/workload"
)

// The paper's inter-application argument (§4.3, Table 4 / Fig 8) is that
// GUI applications execute mostly the same shared-library code. The
// content-addressed store turns that overlap into disk and wire savings:
// a trace that N applications share is stored once and shipped once per
// machine. Dedup measures both against the paper's one-file-per-app layout
// on the GUI suite: each app's entry as one self-contained image, its
// CacheFile encoding, which is the legacy .pcc file and what a daemon
// serving such a database used to send for it.

// dedupMinSaved is the acceptance bar: the store arm must shrink the
// database by at least this fraction versus legacy, or the experiment
// fails (non-zero pcc-bench exit).
const dedupMinSaved = 0.30

// diskBytes sums cache payload bytes under a database directory — legacy
// images, manifests, packs (their indexes included: a pack's name does not
// carry its blobs' hashes, so the index is payload) and the loose blobs of
// earlier store versions; the lock file and temps excluded.
func diskBytes(dir string) (uint64, error) {
	var total uint64
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		switch filepath.Ext(p) {
		case ".pcc", ".pcm", ".pck", ".pcb":
			if info, err := d.Info(); err == nil {
				total += uint64(info.Size())
			}
		}
		return nil
	})
	return total, err
}

// dedupServer starts an in-process cache daemon over mgr and returns a
// connected client plus a shutdown func.
func dedupServer(mgr *core.Manager) (*cacheserver.Client, func(), error) {
	srv, err := cacheserver.New(mgr)
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	go srv.Serve(ln)
	client := cacheserver.NewClient(ln.Addr().String(),
		cacheserver.WithRetry(1, time.Millisecond), cacheserver.WithDialTimeout(time.Second))
	return client, func() { client.Close(); srv.Close() }, nil
}

// Dedup commits the five GUI startups into a store-format database and
// compares what lands on disk with the five apps' images, then replays the
// fleet-distribution scenario — one machine warming all five apps from a
// cache server — and compares what crosses the wire (per app, the whole
// image; from the store, manifests plus only the blobs the machine has not
// seen).
func Dedup() (*Report, error) {
	gui, err := guiSuite()
	if err != nil {
		return nil, err
	}
	storeDir, err := os.MkdirTemp("", "pcc-dedup-store-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(storeDir)
	stored, err := core.NewManager(storeDir)
	if err != nil {
		return nil, err
	}

	// Commit every app's startup, and size its image: an app's image is
	// what the per-app layout stores for it and ships to a machine warming
	// it, so it is that arm's disk and wire bytes alike.
	var legacyBytes uint64
	for _, app := range gui.Apps {
		out, err := run(runSpec{Prog: app.Prog, In: app.Startup, Cfg: guiCfg()})
		if err != nil {
			return nil, err
		}
		d := core.NewDelta(out.VM)
		image, err := d.CacheFile().MarshalBinary()
		if err != nil {
			return nil, err
		}
		legacyBytes += uint64(len(image))
		if _, err := stored.CommitFile(d); err != nil {
			return nil, err
		}
	}
	storeBytes, err := diskBytes(storeDir)
	if err != nil {
		return nil, err
	}
	sstats, err := stored.StoreStats()
	if err != nil {
		return nil, err
	}
	diskSaved := 1 - float64(storeBytes)/float64(legacyBytes)

	// Wire comparison: one fresh machine pulls all five apps.
	packs, err := storeWireBytes(stored, gui)
	if err != nil {
		return nil, err
	}
	storeWire := packs.bytes
	wireSaved := 1 - float64(storeWire)/float64(legacyBytes)

	tb := stats.NewTable("five GUI apps, one shared database per arm",
		"arm", "on disk", "over the wire (5 warmups)")
	tb.AddRow("legacy (.pcc per app)", fmt.Sprintf("%d bytes", legacyBytes), fmt.Sprintf("%d bytes", legacyBytes))
	tb.AddRow("store (manifests+blobs)", fmt.Sprintf("%d bytes", storeBytes), fmt.Sprintf("%d bytes", storeWire))
	tb.AddRow("saved", stats.Pct(diskSaved), stats.Pct(wireSaved))

	rep := &Report{ID: "dedup", Title: "Content-addressed store: disk and wire dedup across applications", Body: tb.Render()}
	rep.AddMetric("dedup_disk_saved_pct", 100*diskSaved)
	rep.AddMetric("dedup_wire_saved_pct", 100*wireSaved)
	rep.AddMetric("dedup_ratio_pct", 100*sstats.DedupRatio)
	rep.AddMetric("dedup_blobs", float64(sstats.Blobs))
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("%d manifests share %d blobs; store-level dedup ratio %s (duplicates never written)",
			sstats.Manifests, sstats.Blobs, stats.Pct(sstats.DedupRatio)),
		fmt.Sprintf("paper §4.3: the apps overlap on most shared-library code, so one machine warming the fleet ships each shared trace once — wire traffic drops %s", stats.Pct(wireSaved)),
		fmt.Sprintf("over-fetch: the store arm received %d packs holding %d blobs; %d of them (%s of blobs, %s of their %d encoded bytes) are not referenced by the app whose prime fetched them",
			packs.packs, packs.members, packs.unused, stats.Pct(float64(packs.unused)/float64(packs.members)),
			stats.Pct(float64(packs.unusedRaw)/float64(packs.raw)), packs.raw))
	if diskSaved < dedupMinSaved {
		return rep, fmt.Errorf("dedup: store format saved only %s on disk, want >= %s",
			stats.Pct(diskSaved), stats.Pct(dedupMinSaved))
	}
	if wireSaved <= 0 {
		return rep, fmt.Errorf("dedup: store wire path shipped %d bytes, legacy %d — no savings", storeWire, legacyBytes)
	}
	return rep, nil
}

// packWire is what the store arm's warmups moved over FETCHPACKS, and how
// much of it was over-fetch: blobs that came in a pack but are not
// referenced by the manifest of the app whose prime asked for them.
type packWire struct {
	bytes          uint64 // manifests plus pack files
	packs, members int    // pack files received, and the blobs they hold
	unused         int    // members the requesting app does not reference
	raw, unusedRaw uint64 // encoding bytes of all members, and of the unused ones
}

// storeWireBytes replays the same five warmups over FETCHMANIFESTS +
// FETCHPACKS as one fresh machine: after each manifest, the packs holding
// the blobs the machine has not received yet cross the wire whole — each
// pack once, since a blob in a pack received earlier is not asked for
// again.
func storeWireBytes(mgr *core.Manager, gui *workload.GUISuite) (*packWire, error) {
	client, shutdown, err := dedupServer(mgr)
	if err != nil {
		return nil, err
	}
	defer shutdown()
	wire := &packWire{}
	have := make(map[store.Hash]bool)
	received := make(map[store.Hash]bool) // by the digest of the whole file
	for _, app := range gui.Apps {
		ks, err := appKeys(app)
		if err != nil {
			return nil, err
		}
		items, err := client.FetchManifests(ks, false)
		if err != nil {
			return nil, err
		}
		want := make(map[store.Hash]bool)
		var missing []store.Hash
		for _, it := range items {
			wire.bytes += uint64(len(it.Data))
			man, err := store.DecodeManifest(it.Data)
			if err != nil {
				return nil, fmt.Errorf("dedup: server returned undecodable manifest: %w", err)
			}
			for _, h := range man.BlobHashes() {
				if !want[h] && !have[h] {
					missing = append(missing, h)
				}
				want[h] = true
			}
		}
		packs, err := client.FetchPacks(ks, missing)
		if err != nil {
			return nil, err
		}
		for _, data := range packs {
			id := store.Sum(data)
			if received[id] {
				continue
			}
			received[id] = true
			p, err := store.DecodePack(data)
			if err != nil {
				return nil, fmt.Errorf("dedup: server returned a bad pack: %w", err)
			}
			wire.bytes += uint64(len(data))
			wire.packs++
			for i, h := range p.Hashes {
				have[h] = true
				wire.members++
				wire.raw += uint64(len(p.Encs[i]))
				if !want[h] {
					wire.unused++
					wire.unusedRaw += uint64(len(p.Encs[i]))
				}
			}
		}
		for _, h := range missing {
			if !have[h] {
				return nil, fmt.Errorf("dedup: the packs fetched for %s lack blob %s", app.Prog.Name, h)
			}
		}
	}
	return wire, nil
}

func init() {
	Registry = append(Registry, Entry{
		ID: "dedup", Title: "Store dedup across applications (disk + wire)", Run: Dedup,
	})
}

// appKeys computes the key set one app's warmup would present.
func appKeys(app *workload.GUIApp) (core.KeySet, error) {
	proc, err := app.Prog.Load(guiCfg())
	if err != nil {
		return core.KeySet{}, err
	}
	return core.KeysFor(vm.New(proc)), nil
}
