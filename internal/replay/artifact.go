package replay

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"persistcc/internal/fsx"
)

// Expect is the behavior a crasher's replay must reproduce (or, for a
// crash-kind artifact, the behavior observed when the bug is absent).
type Expect struct {
	Exit   uint64 `json:"exit"`
	Output string `json:"output,omitempty"`
	Insts  uint64 `json:"insts,omitempty"`
}

// Crasher is one self-packaged failure artifact: everything needed to
// rebuild the workload that crashed or diverged and run it again, serialized
// as JSON so the corpus survives in version control and a table-driven test
// replays every file forever after. Sidecar files (a .rec recording, a
// cache-DB snapshot directory) sit next to the JSON and are referenced by
// relative name.
type Crasher struct {
	Name string `json:"name"`
	// Kind classifies the failure: "crash" (the run errored), "divergence"
	// (two modes disagreed), or "regression" (a hand-seeded edge case).
	Kind string `json:"kind"`
	Note string `json:"note,omitempty"`

	// Generated-workload identity (internal/workload ProgSpec and Units),
	// kept raw so this package needs no workload dependency — the
	// regression test decodes them.
	Spec  json.RawMessage `json:"spec,omitempty"`
	Units json.RawMessage `json:"units,omitempty"`

	// Hand-written-workload identity: assembly sources.
	Main string            `json:"main,omitempty"`
	Libs map[string]string `json:"libs,omitempty"`

	Input     []uint64 `json:"input,omitempty"`
	Placement uint8    `json:"placement,omitempty"`
	ASLRSeed  uint64   `json:"aslr_seed,omitempty"`
	// WarmASLRSeed, when set, asks the replaying test to run a first
	// (cache-warming) execution under this seed before the recorded one —
	// the relocation-edge shape, where the bug needs a cache written at one
	// base and consumed at another.
	WarmASLRSeed uint64 `json:"warm_aslr_seed,omitempty"`
	SMC          bool   `json:"smc,omitempty"`

	Expect *Expect `json:"expect,omitempty"`

	// Recording names a sidecar .rec log to replay bit-exactly; Snapshot
	// names a sidecar cache-DB directory to replay it against. Store marks
	// the case's cache databases as the kind the store-warmed mode primes
	// from: relocatable, and rewritten by a corruption hook when one is set
	// (diffexec.Case.Store).
	Recording string `json:"recording,omitempty"`
	Snapshot  string `json:"snapshot,omitempty"`
	Store     bool   `json:"store,omitempty"`
}

// DefaultDir resolves where auto-bundled crashers land: $PCC_CRASHER_DIR
// when set, else crashers/pending under the module root (found by walking
// up from the working directory), keeping artifacts from fuzz workers,
// tests and experiments in one reviewable place.
func DefaultDir() string {
	// Harness configuration, not guest-visible state: where a bundled
	// artifact lands can never influence a recorded run.
	if d := os.Getenv("PCC_CRASHER_DIR"); d != "" { //pcc:allow-boundaryseam harness config, not guest-visible
		return d
	}
	dir, err := os.Getwd()
	if err != nil {
		return filepath.Join("crashers", "pending")
	}
	for p := dir; ; {
		if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
			return filepath.Join(p, "crashers", "pending")
		}
		parent := filepath.Dir(p)
		if parent == p {
			break
		}
		p = parent
	}
	return filepath.Join(dir, "crashers", "pending")
}

// WriteCrasher persists the artifact into dir: the recording sidecar (when
// given) first, then the JSON that references it, so a crash between the
// two writes never leaves a dangling reference. Returns the JSON path.
func WriteCrasher(fsys fsx.FS, dir string, c *Crasher, recording []byte) (string, error) {
	if fsys == nil {
		fsys = fsx.OS
	}
	if c.Name == "" {
		return "", fmt.Errorf("replay: crasher needs a name")
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("replay: crasher dir: %w", err)
	}
	if len(recording) > 0 {
		c.Recording = c.Name + ".rec"
		if err := fsys.WriteFile(filepath.Join(dir, c.Recording), recording, 0o644); err != nil {
			return "", fmt.Errorf("replay: crasher recording: %w", err)
		}
	}
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, c.Name+".json")
	if err := fsys.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("replay: crasher json: %w", err)
	}
	return path, nil
}

// LoadCrasher reads one artifact and its recording sidecar (nil when the
// artifact has none).
func LoadCrasher(fsys fsx.FS, path string) (*Crasher, []byte, error) {
	if fsys == nil {
		fsys = fsx.OS
	}
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var c Crasher
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, nil, fmt.Errorf("replay: crasher %s: %w", path, err)
	}
	var rec []byte
	if c.Recording != "" {
		rec, err = fsys.ReadFile(filepath.Join(filepath.Dir(path), c.Recording))
		if err != nil {
			return nil, nil, fmt.Errorf("replay: crasher %s recording: %w", path, err)
		}
	}
	return &c, rec, nil
}
