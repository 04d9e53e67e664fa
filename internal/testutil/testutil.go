// Package testutil holds the cold/warm-run scaffolding shared by the
// persistence test suites (internal/core, the root package's CLI and
// equivalence tests): building a tiny multi-module application, running it
// under the VM with optional prime/commit against a cache manager, and
// leak-proof temporary databases.
package testutil

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"persistcc/internal/core"
	"persistcc/internal/loader"
	"persistcc/internal/obj"
	"persistcc/internal/testprog"
	"persistcc/internal/vm"
)

// LibWork is a shared-library module with one hot and one cold function.
const LibWork = `
.text
.global compute
compute:            ; a0 = a0*2 + 1
	add  t0, a0, a0
	addi a0, t0, 1
	ret
.global coldf
coldf:
	movi a0, 99
	ret
`

// MainSrc is an executable that loops a cross-module call input-many
// times — the smallest program whose translations span two modules.
const MainSrc = `
.text
.global _start
_start:
	movi t1, 0x08000000
	ld   s0, 0(t1)      ; n iterations
	movi s1, 0
loop:
	beqz s0, done
	mv   a0, s1
	call compute        ; cross-module call: loader-patched, position-dependent
	mv   s1, a0
	addi s0, s0, -1
	j    loop
done:
	mv   a1, s1
	movi a0, 1
	sys
	halt
`

// World bundles one application build.
type World struct {
	Exe  *obj.File
	Libs []*obj.File
}

// BuildWorld assembles and links one application.
func BuildWorld(t testing.TB, name, src string, libSrcs map[string]string) *World {
	t.Helper()
	exe, libs, err := testprog.Build(name, src, libSrcs)
	if err != nil {
		t.Fatal(err)
	}
	return &World{Exe: exe, Libs: libs}
}

// Manager is the prime/commit surface RunOpts drives — satisfied by
// *core.Manager and *cacheserver.Fallback alike.
type Manager interface {
	Prime(v *vm.VM) (*core.PrimeReport, error)
	PrimeInterApp(v *vm.VM) (*core.PrimeReport, error)
	Commit(v *vm.VM) (*core.CommitReport, error)
}

// RunOpts configures one World.Run execution.
type RunOpts struct {
	Input     []uint64
	Tool      vm.Tool
	Cfg       loader.Config
	Prime     bool
	InterApp  bool
	Commit    bool
	WantPrime *core.PrimeReport // filled in when prime succeeded
	Options   []vm.Option       // extra VM options (metrics, event log, ...)
}

// NewVM loads the world and builds a VM from the options.
func (w *World) NewVM(t testing.TB, o RunOpts) *vm.VM {
	t.Helper()
	p, err := testprog.Load(w.Exe, w.Libs, o.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := []vm.Option{vm.WithInput(o.Input)}
	if o.Tool != nil {
		opts = append(opts, vm.WithTool(o.Tool))
	}
	opts = append(opts, o.Options...)
	return vm.New(p, opts...)
}

// Run executes one cold or warm run: optional prime, run, optional commit
// (with the commit ticks folded into the result, as the facade does).
func (w *World) Run(t testing.TB, mgr Manager, o RunOpts) *vm.Result {
	t.Helper()
	v := w.NewVM(t, o)
	if o.Prime {
		rep, err := mgr.Prime(v)
		if err != nil && !errors.Is(err, core.ErrNoCache) {
			t.Fatalf("prime: %v", err)
		}
		if o.WantPrime != nil {
			*o.WantPrime = *rep
		}
	} else if o.InterApp {
		rep, err := mgr.PrimeInterApp(v)
		if err != nil && !errors.Is(err, core.ErrNoCache) {
			t.Fatalf("prime inter-app: %v", err)
		}
		if o.WantPrime != nil {
			*o.WantPrime = *rep
		}
	}
	res, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	if o.Commit {
		crep, err := mgr.Commit(v)
		if err != nil {
			t.Fatalf("commit: %v", err)
		}
		res.Stats.PersistTicks += crep.Ticks
		res.Stats.Ticks += crep.Ticks
	}
	return res
}

// NewMgr returns a manager over a temporary database that is removed even
// when the run leaves read-only debris (quarantined files): the cleanup
// re-opens permissions before deleting, so nothing escapes the test.
func NewMgr(t testing.TB, opts ...core.ManagerOption) *core.Manager {
	mgr, err := core.NewManager(TempDB(t), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return mgr
}

// TempDB returns a cache-database directory cleaned up unconditionally at
// test end. Unlike t.TempDir, removal survives permission-stripped entries.
func TempDB(t testing.TB) string {
	t.Helper()
	dir, err := os.MkdirTemp("", "pcc-test-*")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// Quarantine/recovery paths may drop unwritable files; restore
		// modes so RemoveAll cannot leak the tree.
		_ = filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
			if err == nil {
				_ = os.Chmod(p, 0o755)
			}
			return nil
		})
		if err := os.RemoveAll(dir); err != nil {
			t.Errorf("tempdb leak: %v", err)
		}
	})
	return dir
}

// BuildTools compiles every cmd/ binary into a temporary directory once per
// call. Works from any package directory: the module root is resolved from
// go env GOMOD.
func BuildTools(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping CLI integration in -short mode")
	}
	root := moduleRoot(t)
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/...")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}
	return dir
}

// RunTool runs one built binary, returning stdout, stderr and exit code.
func RunTool(t *testing.T, dir, name string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(dir, name), args...)
	var so, se strings.Builder
	cmd.Stdout, cmd.Stderr = &so, &se
	err := cmd.Run()
	code = 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s %v: %v", name, args, err)
	}
	return so.String(), se.String(), code
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		t.Fatal("not inside a module")
	}
	return filepath.Dir(gomod)
}

// WriteLegacy writes cf into the database at dir as a legacy `.pcc` entry —
// its serialized image under the key set's cache file name — and returns
// the path. Nothing but tests and fixtures makes that format: commits write
// manifests, and the legacy reader is what these files exercise.
func WriteLegacy(t testing.TB, dir string, cf *core.CacheFile) string {
	t.Helper()
	b, err := cf.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ks := core.KeySet{App: cf.AppKey, VM: cf.VMKey, Tool: cf.ToolKey}
	path := filepath.Join(dir, ks.CacheFileName())
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}
