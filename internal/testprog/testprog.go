// Package testprog provides small helpers for building and loading guest
// programs from assembly source. It is shared by tests, benchmarks and
// examples across the repository.
package testprog

import (
	"fmt"
	"sort"

	"persistcc/internal/asm"
	"persistcc/internal/link"
	"persistcc/internal/loader"
	"persistcc/internal/obj"
)

// Build assembles and links an executable from src, linking it against one
// shared library per entry of libSrcs (key = library name, value = its
// assembly source). Library link order is the sorted key order.
func Build(name, src string, libSrcs map[string]string) (exe *obj.File, libs []*obj.File, err error) {
	var names []string
	for n := range libSrcs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		o, err := asm.Assemble(n+".o", libSrcs[n])
		if err != nil {
			return nil, nil, fmt.Errorf("assemble %s: %w", n, err)
		}
		lib, err := link.Link(link.Input{Name: n, Kind: obj.KindLib, Objects: []*obj.File{o}, Libs: libs})
		if err != nil {
			return nil, nil, fmt.Errorf("link %s: %w", n, err)
		}
		libs = append(libs, lib)
	}
	o, err := asm.Assemble(name+".o", src)
	if err != nil {
		return nil, nil, fmt.Errorf("assemble %s: %w", name, err)
	}
	exe, err = link.Link(link.Input{Name: name, Kind: obj.KindExec, Objects: []*obj.File{o}, Libs: libs})
	if err != nil {
		return nil, nil, fmt.Errorf("link %s: %w", name, err)
	}
	return exe, libs, nil
}

// Resolver returns a loader resolve function over the given libraries,
// reporting mtime for every module.
func Resolver(libs []*obj.File, mtime int64) func(string) (*obj.File, int64, error) {
	return func(name string) (*obj.File, int64, error) {
		for _, l := range libs {
			if l.Name == name {
				return l, mtime, nil
			}
		}
		return nil, 0, fmt.Errorf("library %s not found", name)
	}
}

// Load loads the executable with its libraries under the given config
// (filling in the resolver).
func Load(exe *obj.File, libs []*obj.File, cfg loader.Config) (*loader.Process, error) {
	if cfg.Resolve == nil {
		cfg.Resolve = Resolver(libs, 1)
	}
	return loader.Load(exe, cfg)
}
