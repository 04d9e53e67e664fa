package loader_test

// Load measured on a real launch: gftp, the first application of the GUI
// suite, with its twelve shared libraries under hashed placement — what
// every gui-* launch of the host-clock benchmark loads.

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"persistcc/internal/loader"
	"persistcc/internal/mem"
	"persistcc/internal/workload"
)

func gftp(t testing.TB) *workload.Program {
	t.Helper()
	gui, err := workload.BuildGUISuite()
	if err != nil {
		t.Fatal(err)
	}
	return gui.Apps[0].Prog
}

var guiConfig = loader.Config{Placement: loader.PlaceHashed}

// TestLoadGUIStaysSparse: a load gives memory to the pages it writes —
// text, data, relocated fields — and to nothing else, and what it wrote is
// each module's image with the relocations applied.
func TestLoadGUIStaysSparse(t *testing.T) {
	p, err := gftp(t).Load(guiConfig)
	if err != nil {
		t.Fatal(err)
	}
	mapped, resident := p.AS.MappedPages(), p.AS.Resident()
	if resident == 0 || resident*10 >= mapped {
		t.Fatalf("load left %d of %d mapped pages resident, want under 10%%", resident, mapped)
	}
	written := 0
	for _, m := range p.Modules {
		written += int(m.File.ImageSize() / mem.PageSize)
	}
	if resident > written {
		t.Errorf("%d pages resident but the module images only span %d: an anonymous mapping was written", resident, written)
	}

	for _, m := range p.Modules {
		if m.Digest != m.File.Digest() {
			t.Errorf("%s: LoadedModule.Digest is not the file's digest", m.File.Name)
		}
		got := make([]byte, m.File.ImageSize())
		if err := p.AS.ReadBytes(m.Base, got); err != nil {
			t.Fatal(err)
		}
		want := m.File.Image()
		for _, s := range m.Sites { // relocated fields legitimately differ
			copy(want[s.Off:s.Off+uint32(s.Type.Size())], got[s.Off:])
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: guest memory differs from the module image outside its relocation sites", m.File.Name)
		}
	}
	for i, l := range p.Layout() {
		if l.Digest != p.Modules[i].File.Digest() {
			t.Errorf("Layout()[%d] digest differs from the file's", i)
		}
	}
	if p.AS.Resident() != resident {
		t.Errorf("reading the images back changed residency: %d -> %d", resident, p.AS.Resident())
	}
}

// TestLoadAllocBudget is the hard gate on what a launch allocates before it
// executes anything. Load is deterministic, so the numbers are too: 0.31 MB
// and 159 allocations, against 0.45 MB and 238 while page-table leaves were
// 8 KB, the export table and each module's relocation sites grew from empty
// and obj.File.Digest streamed sections through a 4 KB buffer, 0.68 MB and
// 274 while Digest built each module's whole encoding to hash it, and
// 18.9 MB and 4 694 when Map allocated every page of every mapping.
func TestLoadAllocBudget(t *testing.T) {
	const maxBytes, maxAllocs = 345_000, 174
	prog := gftp(t)
	load := func() {
		if _, err := prog.Load(guiConfig); err != nil {
			t.Fatal(err)
		}
	}
	load() // one-time initialisation is not the launch's cost
	if allocs := testing.AllocsPerRun(10, load); allocs > maxAllocs {
		t.Errorf("Load makes %.0f allocations, budget %d", allocs, maxAllocs)
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		load()
	}
	runtime.ReadMemStats(&after)
	if perLoad := (after.TotalAlloc - before.TotalAlloc) / runs; perLoad > maxBytes {
		t.Errorf("Load allocates %d bytes, budget %d", perLoad, maxBytes)
	}
}

// TestSitesInMatchesScan: the binary-searched SitesIn returns what a scan
// of every site does, for windows of every shape over every GUI module.
func TestSitesInMatchesScan(t *testing.T) {
	p, err := gftp(t).Load(guiConfig)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	checked := 0
	for _, m := range p.Modules {
		size := m.File.ImageSize()
		for i := 0; i < 300; i++ {
			lo := uint32(rng.Intn(int(size)))
			hi := lo + uint32(rng.Intn(64))
			if i%10 == 0 && len(m.Sites) > 0 { // windows that start or end inside a site
				s := m.Sites[rng.Intn(len(m.Sites))]
				if lo = s.Off + uint32(rng.Intn(9)); lo >= 4 {
					lo -= 4
				}
				hi = lo + uint32(rng.Intn(12))
			}
			var want []loader.RelocSite
			for _, s := range m.Sites {
				if s.Off+uint32(s.Type.Size()) > lo && s.Off < hi {
					want = append(want, s)
				}
			}
			if got := m.SitesIn(lo, hi); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: SitesIn(%#x,%#x) = %+v, scan finds %+v", m.File.Name, lo, hi, got, want)
			}
			checked += len(want)
		}
	}
	if checked == 0 {
		t.Fatal("no window overlapped a site; the comparison was vacuous")
	}
}
