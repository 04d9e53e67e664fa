package persistcc_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMakefileTestListsNameTests: every name a `-run` pattern of the
// race-smoke recipe lists, and every `-fuzz` target of fuzz-smoke, is a
// func declared in a _test.go file of the packages on the same line. `go
// test -run` with a name nothing declares passes with "no tests to run",
// so a rename would otherwise drop a test from the gate without a word.
func TestMakefileTestListsNameTests(t *testing.T) {
	src, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	runFlag := regexp.MustCompile(`-run '([^']*)'`)
	fuzzFlag := regexp.MustCompile(`-fuzz (\w+)`)
	checked := 0
	for _, target := range []string{"race-smoke", "fuzz-smoke"} {
		lines := recipe(t, string(src), target)
		for _, line := range lines {
			var names []string
			if m := runFlag.FindStringSubmatch(line); m != nil && m[1] != "^$$" {
				names = append(names, strings.Split(m[1], "|")...)
			}
			if m := fuzzFlag.FindStringSubmatch(line); m != nil {
				names = append(names, m[1])
			}
			if len(names) == 0 {
				continue
			}
			declared := testFuncs(t, linePackages(line))
			for _, name := range names {
				checked++
				if !declared[name] {
					t.Errorf("Makefile %s names %s, which no _test.go file of %v declares:\n\t%s", target, name, linePackages(line), line)
				}
			}
		}
	}
	if checked < 10 {
		t.Fatalf("found only %d test names in race-smoke and fuzz-smoke; the Makefile's layout changed under this test", checked)
	}
}

// recipe returns the command lines of a Makefile target's recipe.
func recipe(t *testing.T, src, target string) []string {
	t.Helper()
	var lines []string
	in := false
	for _, line := range strings.Split(src, "\n") {
		switch {
		case strings.HasPrefix(line, target+":"):
			in = true
		case in && strings.HasPrefix(line, "\t"):
			lines = append(lines, strings.TrimSpace(line))
		case in:
			return lines
		}
	}
	if len(lines) == 0 {
		t.Fatalf("Makefile has no recipe for %s", target)
	}
	return lines
}

// linePackages returns the package directories a go test command line
// names, a trailing /... expanded to every directory below.
func linePackages(line string) []string {
	var dirs []string
	for _, f := range strings.Fields(line) {
		if f != "." && !strings.HasPrefix(f, "./") {
			continue
		}
		root, all := strings.CutSuffix(f, "/...")
		if !all {
			dirs = append(dirs, filepath.Clean(root))
			continue
		}
		filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err == nil && d.IsDir() {
				dirs = append(dirs, p)
			}
			return err
		})
	}
	return dirs
}

// testFuncs returns the names of the top-level funcs declared in the
// _test.go files directly in dirs.
func testFuncs(t *testing.T, dirs []string) map[string]bool {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func (\w+)\(`)
	names := make(map[string]bool)
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
				names[m[1]] = true
			}
		}
	}
	return names
}
