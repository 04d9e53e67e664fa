package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"

	"persistcc"
	"persistcc/internal/cacheserver"
	"persistcc/internal/core"
	"persistcc/internal/workload"
)

// dbKind says whose database an op launches against.
type dbKind int

const (
	dbNone     dbKind = iota // no persistence
	dbPerOp                  // a fresh empty directory for every op
	dbPerSlot                // one directory per slot, seeded in setup, kept across rounds
	dbPerRound               // one directory per round, shared by the round's ops, then discarded
)

// workloadSpec is the executable half of a workloadDef.
type workloadSpec struct {
	name    string
	clients int
	db      dbKind
	seeded  bool // setup launches every slot once so timed ops run warm
	fleet   bool // ops go through three loopback cacheserver shards, R=2
	base    persistcc.RunOptions
	slots   func() ([]slot, error)

	// Invariants every timed op must meet, beyond matching its reference.
	warm      bool // nothing translated, something primed
	coldPrime bool // prime must find nothing
}

// slot is one launch of a round: a program, its input and the reference
// the interpreter produced for it in setup.
type slot struct {
	name   string
	prog   *workload.Program
	in     workload.Input
	loader persistcc.LoaderConfig
	// chain, when set, names a group of slots that keep their natural
	// order relative to each other whatever the seed (launchOrder).
	chain   string
	refExit uint64
	refOut  []byte
}

var guiLoader = persistcc.LoaderConfig{Placement: persistcc.PlaceHashed}

func guiSlots() ([]slot, error) {
	gui, err := workload.BuildGUISuite()
	if err != nil {
		return nil, err
	}
	var out []slot
	for _, a := range gui.Apps {
		out = append(out, slot{name: a.Name, prog: a.Prog, in: a.Startup, loader: guiLoader})
	}
	return out, nil
}

func inputSlots(prog *workload.Program, ins []workload.Input) []slot {
	var out []slot
	for _, in := range ins {
		out = append(out, slot{name: in.Name, prog: prog, in: in})
	}
	return out
}

func gccSlots(ref bool) ([]slot, error) {
	gcc, err := workload.BuildSpecBenchmark("176.gcc")
	if err != nil {
		return nil, err
	}
	if ref {
		return inputSlots(gcc.Prog, gcc.Ref), nil
	}
	return inputSlots(gcc.Prog, gcc.Train), nil
}

func specSlots() ([]slot, error) {
	var out []slot
	for _, name := range workload.SpecNames() {
		if name == "176.gcc" {
			continue // its warm run is prime-bound, not dispatch-bound
		}
		b, err := workload.BuildSpecBenchmark(name)
		if err != nil {
			return nil, err
		}
		out = append(out, inputSlots(b.Prog, b.Ref[:1])...)
	}
	return out, nil
}

func accumulateSlots() ([]slot, error) {
	out, err := guiSlots()
	if err != nil {
		return nil, err
	}
	gcc, err := gccSlots(true)
	if err != nil {
		return nil, err
	}
	ora, err := workload.BuildOracleSuite()
	if err != nil {
		return nil, err
	}
	// The seed interleaves the three applications and orders the GUI apps;
	// Oracle's phases only exist in the order Start..Close, and gcc's inputs
	// stay in data-set order, because which member of a group runs first
	// (cold) decides most of the group's cost: shuffling inside the groups
	// makes two seeds two different workloads, not two samples of one.
	for _, s := range gcc {
		s.chain = "gcc"
		out = append(out, s)
	}
	for _, s := range inputSlots(ora.Prog, ora.Phases) {
		s.name, s.chain = "oracle."+s.name, "oracle"
		out = append(out, s)
	}
	return out, nil
}

// launchOrder is the order of a round's launches: a permutation of the
// slots drawn from the seed, in which the members of each chain then swap
// back into their natural relative order (the chain keeps the positions the
// permutation gave it).
func launchOrder(slots []slot, seed int64) []int {
	order := rand.New(rand.NewSource(seed)).Perm(len(slots))
	at := make(map[string][]int) // chain -> positions in order, ascending
	for pos, i := range order {
		if c := slots[i].chain; c != "" {
			at[c] = append(at[c], pos)
		}
	}
	for c, positions := range at {
		k := 0
		for i := range slots { // natural order
			if slots[i].chain == c {
				order[positions[k]] = i
				k++
			}
		}
	}
	return order
}

var (
	storeOpts = persistcc.RunOptions{Persist: true, StoreFormat: true}

	workloads = []workloadSpec{
		{name: "gui-cold", clients: 1, db: dbPerOp, base: storeOpts, slots: guiSlots, coldPrime: true},
		{name: "gui-warm", clients: 1, db: dbPerSlot, seeded: true, base: storeOpts, slots: guiSlots, warm: true},
		{name: "spec-steady", clients: 1, db: dbPerSlot, seeded: true, base: storeOpts, slots: specSlots, warm: true},
		{name: "gcc-translate", clients: 1, slots: func() ([]slot, error) { return gccSlots(false) }},
		{name: "gcc-translate-opt", clients: 1, base: persistcc.RunOptions{Optimize: true},
			slots: func() ([]slot, error) { return gccSlots(false) }},
		{name: "accumulate", clients: 1, db: dbPerRound, slots: accumulateSlots,
			base: persistcc.RunOptions{Persist: true, StoreFormat: true, InterApp: true}},
		{name: "fleet-warm", clients: 2, db: dbPerOp, seeded: true, fleet: true, slots: guiSlots, warm: true,
			base: persistcc.RunOptions{Persist: true, StoreFormat: true, Prefetch: true}},
	}
)

func workloadByName(name string) (*workloadSpec, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// state is what one setup produces: the slots with their references, the
// directories the ops launch against, and the fleet shards when there are
// any. close releases all of it.
type state struct {
	w      *workloadSpec
	root   string // private directory for everything this state owns
	slots  []slot
	dirs   []string // dbPerSlot: one database per slot
	shards []*shard
	fleet  *persistcc.FleetConfig
	seq    atomic.Int64 // names fresh op and round directories; two clients draw from it
}

// shard is one in-process cacheserver daemon on a loopback listener.
type shard struct {
	dir  string
	srv  *cacheserver.Server
	done chan struct{}
}

// setup builds the workload's suites, computes every slot's reference with
// the decode-every-time interpreter, starts the shards and seeds the
// databases. It is the whole of setup_s.
func setup(w *workloadSpec, workdir string) (*state, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(workdir, w.name+"-")
	if err != nil {
		return nil, err
	}
	st := &state{w: w, root: root}
	if err := st.init(); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (st *state) init() error {
	var err error
	if st.slots, err = st.w.slots(); err != nil {
		return err
	}
	for i := range st.slots {
		s := &st.slots[i]
		ref, err := persistcc.Run(s.prog.Exe, s.prog.Libs, persistcc.RunOptions{
			Input: s.in.Words(), Loader: s.loader, Native: true,
		})
		if err != nil {
			return fmt.Errorf("reference %s: %w", s.name, err)
		}
		s.refExit, s.refOut = ref.ExitCode, ref.Output
	}
	if st.w.fleet {
		if err := st.startShards(3); err != nil {
			return err
		}
	}
	if st.w.db == dbPerSlot {
		for i := range st.slots {
			st.dirs = append(st.dirs, filepath.Join(st.root, fmt.Sprintf("db-%02d", i)))
		}
	}
	if !st.w.seeded {
		return nil
	}
	// Seeding is one cold launch of every slot with the options the timed
	// ops use: it commits each slot's database, or publishes to the shards.
	for i := range st.slots {
		dir, done := st.opDir(i, "")
		out, err := persistcc.Run(st.slots[i].prog.Exe, st.slots[i].prog.Libs, st.options(i, dir))
		done()
		if err != nil {
			return fmt.Errorf("seed %s: %w", st.slots[i].name, err)
		}
		if msg := st.slots[i].matches(out); msg != "" {
			return fmt.Errorf("seed %s: %s", st.slots[i].name, msg)
		}
	}
	return nil
}

func (st *state) startShards(n int) error {
	cfg := &persistcc.FleetConfig{Replicas: 2}
	for i := 0; i < n; i++ {
		dir := filepath.Join(st.root, fmt.Sprintf("shard-%d", i))
		mgr, err := core.NewManager(dir, core.WithStore())
		if err != nil {
			return err
		}
		srv, err := cacheserver.New(mgr)
		if err != nil {
			return err
		}
		ln, err := cacheserver.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		sh := &shard{dir: dir, srv: srv, done: make(chan struct{})}
		go func() {
			defer close(sh.done)
			_ = srv.Serve(ln) // returns once close() closes the server
		}()
		st.shards = append(st.shards, sh)
		cfg.Shards = append(cfg.Shards, persistcc.FleetShard{ID: fmt.Sprintf("s%d", i), Addr: ln.Addr().String()})
	}
	st.fleet = cfg
	return nil
}

// close stops the shards, waits for their goroutines and removes every
// directory the state created.
func (st *state) close() {
	for _, sh := range st.shards {
		sh.srv.Close()
		<-sh.done
	}
	os.RemoveAll(st.root)
}

// options are the RunOptions of slot i launching against dir.
func (st *state) options(i int, dir string) persistcc.RunOptions {
	o := st.w.base
	o.Input = st.slots[i].in.Words()
	o.Loader = st.slots[i].loader
	o.CacheDir = dir
	o.FleetConfig = st.fleet
	return o
}

// opDir returns the database directory slot i's next op launches against
// and a function that discards it afterwards if the op owned it. roundDir
// is the current round's shared directory for dbPerRound workloads.
func (st *state) opDir(i int, roundDir string) (dir string, done func()) {
	switch st.w.db {
	case dbPerSlot:
		return st.dirs[i], func() {}
	case dbPerRound:
		return roundDir, func() {}
	case dbPerOp:
		dir = st.freshDir("op")
		return dir, func() { os.RemoveAll(dir) }
	}
	return "", func() {}
}

func (st *state) freshDir(kind string) string {
	return filepath.Join(st.root, fmt.Sprintf("%s-%06d", kind, st.seq.Add(1)))
}

// persistentKB is the size of the databases that outlive a round: the
// seeded per-slot databases and the shards'.
func (st *state) persistentKB() float64 {
	var total int64
	for _, d := range st.dirs {
		total += dirBytes(d)
	}
	for _, sh := range st.shards {
		total += dirBytes(sh.dir)
	}
	return float64(total) / 1024
}

// matches compares a launch with the slot's interpreter reference.
func (s *slot) matches(out *persistcc.RunOutcome) string {
	switch {
	case out.ExitCode != s.refExit:
		return fmt.Sprintf("exit code %d, reference %d", out.ExitCode, s.refExit)
	case !bytes.Equal(out.Output, s.refOut):
		return fmt.Sprintf("output differs from reference (%d vs %d bytes)", len(out.Output), len(s.refOut))
	}
	return ""
}

// invariant checks what the workload promises about how the op got its
// result; "" means it held.
func (w *workloadSpec) invariant(out *persistcc.RunOutcome) string {
	st := &out.Stats
	switch {
	case w.warm && st.InstsTranslated != 0:
		return fmt.Sprintf("warm op translated %d instructions", st.InstsTranslated)
	case w.warm && (out.Prime == nil || out.Prime.Installed == 0):
		return "warm op primed nothing"
	case w.coldPrime && out.Prime != nil && out.Prime.Installed != 0:
		return fmt.Sprintf("cold op primed %d traces", out.Prime.Installed)
	case w.db == dbNone && (out.Prime != nil || out.Commit != nil):
		return "non-persistent op touched the persistence layer"
	case w.fleet && (st.RemoteHits == 0 || st.RemoteFallbacks != 0):
		return fmt.Sprintf("fleet op: %d remote hits, %d fallbacks", st.RemoteHits, st.RemoteFallbacks)
	}
	return ""
}

func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil // a missing directory is an empty database
	})
	return total
}
