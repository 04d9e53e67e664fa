package persistcc_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"persistcc"
	"persistcc/internal/cacheserver"
	"persistcc/internal/cacheserver/fleet"
	"persistcc/internal/core"
	"persistcc/internal/workload"
)

// legacyImages lists the `.pcc` files in dir by name.
func legacyImages(t *testing.T, dir string) map[string]os.FileInfo {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.pcc"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]os.FileInfo, len(files))
	for _, f := range files {
		if out[filepath.Base(f)], err = os.Stat(f); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// noLegacyWrite runs step as a subtest and fails it if the step left a
// `.pcc` in any of dirs that was not there before, or replaced one that was
// (an atomic rewrite renames a new file over the old name): a legacy image
// may only be read or removed.
func noLegacyWrite(t *testing.T, step string, dirs []string, run func(t *testing.T) error) {
	t.Helper()
	t.Run(step, func(t *testing.T) {
		before := make([]map[string]os.FileInfo, len(dirs))
		for i, d := range dirs {
			before[i] = legacyImages(t, d)
		}
		if err := run(t); err != nil {
			t.Fatal(err)
		}
		for i, d := range dirs {
			for name, fi := range legacyImages(t, d) {
				if old, ok := before[i][name]; !ok || !os.SameFile(old, fi) || old.ModTime() != fi.ModTime() {
					t.Errorf("wrote %s in %s", name, filepath.Base(d))
				}
			}
		}
	})
}

// TestNoWritePathCreatesLegacyFile drives every path that writes a database
// entry, over databases that start with legacy entries (copies of
// testdata/legacy.db), and checks that none of them writes a `.pcc`. The
// steps run in order, each over what the ones before it left.
func TestNoWritePathCreatesLegacyFile(t *testing.T) {
	local, _ := legacyCopy(t)
	mgr, err := core.NewManager(local, core.WithRelocatable())
	if err != nil {
		t.Fatal(err)
	}
	dirs := []string{local}
	coldCommit := func(m cacheserver.Manager, name string, seed uint64) func(t *testing.T) error {
		return func(t *testing.T) error {
			v := compatVM(t, name, seed, compatLib)
			if _, err := v.Run(); err != nil {
				return err
			}
			rep, err := m.Commit(v)
			if err == nil && rep.Skipped {
				err = errors.New("commit skipped")
			}
			return err
		}
	}

	noLegacyWrite(t, "cold-commit", dirs, coldCommit(mgr, "compat-n", 33))
	noLegacyWrite(t, "accumulate", dirs, coldCommit(mgr, "compat-n", 33))
	noLegacyWrite(t, "commit-beside-legacy", dirs, coldCommit(mgr, "compat-l", 31))
	noLegacyWrite(t, "inter-app-commit", dirs, func(t *testing.T) error {
		v := compatVM(t, "compat-o", 34, compatLib)
		if _, err := mgr.PrimeInterApp(v); err != nil {
			return err
		}
		if _, err := v.Run(); err != nil {
			return err
		}
		_, err := mgr.Commit(v)
		return err
	})
	noLegacyWrite(t, "repair-mixed-database", dirs, func(*testing.T) error {
		_, err := mgr.RecoverIndex()
		return err
	})

	shared, _ := legacyCopy(t)
	dmgr, err := core.NewManager(shared, core.WithRelocatable())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := cacheserver.New(dmgr)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := cacheserver.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	fl, err := fleet.New(fleet.Single(ln.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	fresh, err := core.NewManager(t.TempDir(), core.WithRelocatable())
	if err != nil {
		t.Fatal(err)
	}
	f := cacheserver.NewFallback(fl, fresh)
	dirs = []string{local, shared, fresh.Dir()}

	noLegacyWrite(t, "daemon-publish-merge", dirs, coldCommit(f, "compat-l", 31))
	noLegacyWrite(t, "fallback-commit-after-fleet-prime", dirs, func(t *testing.T) error {
		v := compatVM(t, "compat-l", 31, compatLib) // the daemon serves the manifest its publish wrote
		rep, err := f.Prime(v)
		if err != nil || rep.Installed == 0 {
			return errors.Join(err, errors.New("fleet prime installed nothing"))
		}
		if _, err := v.Run(); err != nil {
			return err
		}
		if _, err := f.Commit(v); err != nil {
			return err
		}
		if files, _ := filepath.Glob(filepath.Join(fresh.Dir(), "*.pcm")); len(files) != 1 {
			return errors.New("the fleet-primed launch kept no local manifest")
		}
		return nil
	})
	noLegacyWrite(t, "migration", dirs, func(t *testing.T) error {
		if _, err := mgr.MigrateToStore(); err != nil {
			return err
		}
		if left := legacyImages(t, local); len(left) != 0 {
			return errors.New("migration left legacy entries")
		}
		return nil
	})
}

// dbTree maps every file under dir, by its path relative to dir, to its
// bytes.
func dbTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(p)
		rel, _ := filepath.Rel(dir, p)
		out[rel] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDeprecatedStoreOptionsSelectNothing: core.WithStore() and
// RunOptions.StoreFormat are no-ops kept for callers that still set them. A
// commit with either leaves a database byte-identical to one without.
func TestDeprecatedStoreOptionsSelectNothing(t *testing.T) {
	prog, err := workload.BuildProgram(workload.ProgSpec{
		Name: "compat-s", Seed: 35, Regions: []workload.RegionSpec{{Funcs: 2, Module: 0}}, BodyInsts: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	commit := map[string]func(t *testing.T, dir string, deprecated bool){
		"core.WithStore": func(t *testing.T, dir string, deprecated bool) {
			var opts []core.ManagerOption
			if deprecated {
				opts = append(opts, core.WithStore())
			}
			mgr, err := core.NewManager(dir, opts...)
			if err != nil {
				t.Fatal(err)
			}
			v := compatVM(t, "compat-s", 35)
			if _, err := v.Run(); err != nil {
				t.Fatal(err)
			}
			if _, err := mgr.Commit(v); err != nil {
				t.Fatal(err)
			}
		},
		"RunOptions.StoreFormat": func(t *testing.T, dir string, deprecated bool) {
			o := persistcc.RunOptions{Input: compatInput.Words(), Persist: true, CacheDir: dir, StoreFormat: deprecated}
			if _, err := persistcc.Run(prog.Exe, prog.Libs, o); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, run := range commit {
		t.Run(name, func(t *testing.T) {
			with, without := t.TempDir(), t.TempDir()
			run(t, with, true)
			run(t, without, false)
			got, want := dbTree(t, with), dbTree(t, without)
			if len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Errorf("databases differ: with the option %d files, without %d", len(got), len(want))
			}
			for name := range got {
				if filepath.Ext(name) == ".pcc" {
					t.Errorf("the option wrote %s", name)
				}
			}
		})
	}
}
