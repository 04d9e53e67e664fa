package guestfuzz

import (
	"errors"
	"fmt"
	"os"
	"strings"

	"persistcc/internal/diffexec"
)

// Verdict is one oracle's judgment of a case. A nil *Verdict means the case
// passed; otherwise Oracle names the differential check that fired and
// Detail says what disagreed.
type Verdict struct {
	Oracle string
	Kind   string // "divergence" or "crash"
	Detail string
}

func (v *Verdict) String() string {
	if v == nil {
		return "pass"
	}
	return fmt.Sprintf("%s: %s (%s)", v.Oracle, v.Kind, v.Detail)
}

// Hooks are the deliberate-bug injection points; the harness owns the seams.
type Hooks = diffexec.Hooks

// The default oracles: each a pair of diffexec modes, reference and judged.
const (
	OracleInterpTrans = "interp-vs-trans"
	OracleColdWarm    = "cold-vs-warm"
	OracleOptPlain    = "opt-vs-plain"
	OracleRecReplay   = "rec-vs-replay"
)

// AllOracles lists the default oracle set in evaluation order.
var AllOracles = []string{OracleInterpTrans, OracleColdWarm, OracleOptPlain, OracleRecReplay}

var oracleAliases = map[string][2]string{
	OracleInterpTrans: {"interpreted", "cold-translated"},
	// Committed under the warm layout seed and consumed under the cold one
	// through a second manager, so relocation rebasing is always on the path.
	OracleColdWarm: {"cold-translated", "store-warmed"},
	OracleOptPlain: {"cold-translated", "optimized-cold"},
	// Against a synchronous run of equal warmth: the replayer proves the
	// run bit-exact against its log, the diff that the log's run was right.
	OracleRecReplay: {"warm-disk", "recorded-replayed"},
}

// oraclePair resolves an oracle name to its (reference, judged) modes: an
// alias, "<modeA>-vs-<modeB>", or a bare mode judged against the interpreter.
func oraclePair(name string) (ref, got string, err error) {
	if p, ok := oracleAliases[name]; ok {
		return p[0], p[1], nil
	}
	ref, got, ok := strings.Cut(name, "-vs-")
	if !ok {
		ref, got = "interpreted", name
	}
	for _, m := range []string{ref, got} {
		if _, ok := diffexec.Lookup(m); !ok {
			return "", "", fmt.Errorf("guestfuzz: unknown oracle %q (no execution mode %q)", name, m)
		}
	}
	return ref, got, nil
}

// RunOracle judges the case with one named oracle: both modes of the pair
// run and are diffed at the level the pair is held to. A returned error is
// an infrastructure failure; a finding is a non-nil Verdict with a nil error.
func RunOracle(name string, c *Case, hooks *Hooks) (*Verdict, error) {
	ref, got, err := oraclePair(name)
	if err != nil {
		return nil, err
	}
	dc, err := c.diffCase()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "guestfuzz-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	env := &diffexec.Env{Case: dc, Dir: dir}
	defer env.Close()
	if hooks != nil {
		env.Hooks = *hooks
	}
	diffs, err := env.Judge(ref, got)
	var f *diffexec.Failure
	switch {
	case errors.As(err, &f) && f.Mode == got:
		return &Verdict{Oracle: name, Kind: f.Kind, Detail: f.Error()}, nil
	case err != nil:
		return nil, err
	case len(diffs) > 0:
		return &Verdict{Oracle: name, Kind: "divergence", Detail: strings.Join(diffs, "; ")}, nil
	}
	return nil, nil
}
