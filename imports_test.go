package persistcc_test

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestPCCRunLaunchesThroughRun: cmd/pcc-run imports none of the packages a
// launch is assembled from, so its only way to run a program is
// persistcc.Run, the code every benchmark workload times. A second launch
// sequence in the command would need one of them.
func TestPCCRunLaunchesThroughRun(t *testing.T) {
	forbidden := map[string]bool{
		"persistcc/internal/core":              true,
		"persistcc/internal/cacheserver":       true,
		"persistcc/internal/cacheserver/fleet": true,
		"persistcc/internal/guestopt":          true,
		"persistcc/internal/loader":            true,
		"persistcc/internal/vm":                true,
	}
	files, err := filepath.Glob(filepath.Join("cmd", "pcc-run", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if forbidden[p] {
				t.Errorf("%s imports %s: pcc-run must launch through persistcc.Run", path, p)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no Go files under cmd/pcc-run")
	}
}
