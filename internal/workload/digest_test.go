package workload

import (
	"crypto/sha256"
	"testing"

	"persistcc/internal/obj"
)

// TestDigestIsHashOfEncoding pins obj.File.Digest, which streams the
// encoding into SHA-256 instead of building it, to the hash of the bytes
// MarshalBinary builds, for every module of the GUI suite and of the SPEC
// suite: a digest that drifted from the encoding would change every
// persistence key.
func TestDigestIsHashOfEncoding(t *testing.T) {
	var progs []*Program
	gui, err := BuildGUISuite()
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range gui.Apps {
		progs = append(progs, app.Prog)
	}
	spec, err := BuildSpecSuite()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range spec {
		progs = append(progs, b.Prog)
	}
	if len(progs) != 16 {
		t.Fatalf("%d programs, want the 5 GUI apps and the 11 SPEC programs", len(progs))
	}
	modules := 0
	for _, p := range progs {
		for _, f := range append([]*obj.File{p.Exe}, p.Libs...) {
			b, err := f.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if f.Digest() != sha256.Sum256(b) {
				t.Errorf("%s: %s: Digest is not the SHA-256 of MarshalBinary", p.Name, f.Name)
			}
			modules++
		}
	}
	t.Logf("%d modules of %d programs", modules, len(progs))
}
