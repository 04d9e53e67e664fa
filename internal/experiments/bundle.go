package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"persistcc/internal/core"
	"persistcc/internal/replay"
)

// bundleLockWait keeps the snapshot from waiting out the full advisory-lock
// steal deadline on a stale .lock the failed run may have left behind.
const bundleLockWait = 100 * time.Millisecond

// bundleCrasher self-packages an experiment failure into the crasher corpus
// (replay.DefaultDir, normally crashers/pending): the JSON artifact, an
// optional boundary recording, and — when a database directory is given — a
// cache-DB snapshot sidecar taken through a fresh manager. Bundling is
// strictly best-effort: it must never mask the failure being reported, so
// every error is printed and swallowed.
func bundleCrasher(c *replay.Crasher, recording []byte, dbDir string) {
	dir := replay.DefaultDir()
	if dbDir != "" {
		if mgr, err := core.NewManager(dbDir, core.WithLockTimeout(bundleLockWait)); err != nil {
			fmt.Fprintf(os.Stderr, "crasher bundle: open %s: %v\n", dbDir, err)
		} else {
			snap := c.Name + ".db"
			if err := mgr.SnapshotTo(filepath.Join(dir, snap)); err != nil {
				fmt.Fprintf(os.Stderr, "crasher bundle: snapshot %s: %v\n", dbDir, err)
			} else {
				c.Snapshot = snap
			}
		}
	}
	path, err := replay.WriteCrasher(nil, dir, c, recording)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crasher bundle: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "crasher bundled: %s\n", path)
}
