package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"persistcc/internal/cacheserver"
	"persistcc/internal/cacheserver/fleet"
	"persistcc/internal/core"
	"persistcc/internal/guestopt"
	"persistcc/internal/isa"
	"persistcc/internal/loader"
	"persistcc/internal/store"
	"persistcc/internal/vm"
	"persistcc/internal/workload"
)

// Probes time single exported functions of a layer on fixed data, after the
// traced rounds: gftp's committed cache (772 traces) for the persistence
// layers, 176.gcc's Train input 1 for decode, translate and the optimizer.
// They are the same on every workload; a per-layer metric they feed is
// expected to move only the workloads its layerDef names.

// medianOf runs f reps times and returns the median duration.
func medianOf(reps int, f func()) time.Duration {
	xs := make([]float64, reps)
	for i := range xs {
		t0 := time.Now()
		f()
		xs[i] = float64(time.Since(t0))
	}
	return time.Duration(median(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// prober carries the scratch directory and collects the first error, so
// the probe bodies read as straight-line code.
type prober struct {
	root string
	seq  int
	out  map[string]float64
	err  error
}

func (p *prober) check(err error) bool {
	if err != nil && p.err == nil {
		p.err = err
	}
	return p.err == nil
}

func (p *prober) dir() string {
	p.seq++
	return filepath.Join(p.root, fmt.Sprintf("probe-%03d", p.seq))
}

// runProbes returns every Probe metric of perLayer.
func runProbes(workdir string) (map[string]float64, error) {
	root, err := os.MkdirTemp(workdir, "probes-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	p := &prober{root: root, out: make(map[string]float64)}
	p.gcc()
	p.persistence()
	return p.out, p.err
}

// gcc probes decode, translate, interpret and the optimizer on 176.gcc.
func (p *prober) gcc() {
	gcc, err := workload.BuildSpecBenchmark("176.gcc")
	if !p.check(err) {
		return
	}
	in := gcc.Train[0]

	text := gcc.Prog.Exe.Text
	d := medianOf(5, func() {
		for off := 0; off+isa.InstSize <= len(text); off += isa.InstSize {
			if _, err := isa.Decode(text[off:]); err != nil {
				p.check(err)
			}
		}
	})
	p.out["isa.decode_ns_per_inst"] = float64(d) / float64(len(text)/isa.InstSize)

	// Cold run against a run with every trace installed beforehand: the
	// difference is what translation costs inside vm.Run.
	var cold *vm.VM
	var coldRes *vm.Result
	coldT := medianOf(3, func() {
		cold, err = gcc.Prog.NewVM(loader.Config{}, in)
		if p.check(err) {
			coldRes, err = cold.Run()
			p.check(err)
		}
	})
	if p.err != nil {
		return
	}
	cf, _ := core.BuildCacheFile(cold)
	mgr, err := core.NewManager(p.dir())
	if !p.check(err) {
		return
	}
	var primedT []float64
	for i := 0; i < 3 && p.err == nil; i++ {
		v, err := gcc.Prog.NewVM(loader.Config{}, in)
		if !p.check(err) {
			return
		}
		if _, err := mgr.PrimeFrom(v, cf); !p.check(err) {
			return
		}
		t0 := time.Now()
		res, err := v.Run()
		primedT = append(primedT, float64(time.Since(t0)))
		if p.check(err) && res.Stats.InstsTranslated != 0 {
			p.check(fmt.Errorf("probe: primed gcc run translated %d instructions", res.Stats.InstsTranslated))
		}
	}
	p.out["vm.translate_us_per_inst"] = (float64(coldT) - median(primedT)) / 1e3 / float64(coldRes.Stats.InstsTranslated)

	var interp *vm.Result
	d = medianOf(3, func() {
		v, err := gcc.Prog.NewVM(loader.Config{}, in)
		if p.check(err) {
			interp, err = v.RunNative()
			p.check(err)
		}
	})
	if p.err != nil {
		return
	}
	p.out["vm.interp_ns_per_inst"] = float64(d) / float64(interp.Stats.InstsExecuted)

	// The optimizer inside cold gcc runs, all passes and then one at a
	// time: a wrapper times each Optimize call where the VM makes it, on a
	// trace it has just decoded, which is what gcc-translate-opt pays.
	for _, c := range []struct {
		name string
		cfg  guestopt.Config
	}{
		{"optimize", guestopt.All()},
		{"constfold", guestopt.Config{ConstFold: true}},
		{"deadcode", guestopt.Config{DeadCode: true}},
		{"deadflag", guestopt.Config{DeadFlag: true}},
		{"loadelim", guestopt.Config{LoadElim: true}},
	} {
		var xs []float64
		for i := 0; i < 3 && p.err == nil; i++ {
			opt := &timedOptimizer{inner: guestopt.New(c.cfg)}
			v, err := gcc.Prog.NewVM(loader.Config{}, in, vm.WithOptimizer(opt))
			if p.check(err) {
				_, err = v.Run()
				p.check(err)
				xs = append(xs, float64(opt.spent)/1e3/float64(opt.calls))
			}
		}
		p.out["guestopt."+c.name+"_us_per_trace"] = median(xs)
	}
}

// timedOptimizer times the Optimize calls a VM makes during a run.
type timedOptimizer struct {
	inner vm.Optimizer
	spent time.Duration
	calls int
}

func (o *timedOptimizer) Optimize(t *vm.Trace) vm.OptOutcome {
	t0 := time.Now()
	out := o.inner.Optimize(t)
	o.spent += time.Since(t0)
	o.calls++
	return out
}

// persistence probes core, store, cacheserver and fleet on gftp's cache.
func (p *prober) persistence() {
	if p.err != nil {
		return
	}
	gui, err := workload.BuildGUISuite()
	if !p.check(err) {
		return
	}
	gftp := gui.Apps[0]
	cfg := loader.Config{Placement: loader.PlaceHashed}
	newVM := func() *vm.VM {
		v, err := gftp.Prog.NewVM(cfg, gftp.Startup)
		p.check(err)
		return v
	}
	v := newVM()
	if p.err != nil {
		return
	}
	if _, err := v.Run(); !p.check(err) {
		return
	}

	// core: the in-memory conversions.
	var cf *core.CacheFile
	var ks core.KeySet
	p.out["core.build_ms"] = ms(medianOf(5, func() { cf, ks = core.BuildCacheFile(v) }))
	var image []byte
	p.out["core.marshal_ms"] = ms(medianOf(5, func() { image, err = cf.MarshalBinary(); p.check(err) }))
	prior := new(core.CacheFile)
	p.out["core.unmarshal_ms"] = ms(medianOf(5, func() { prior = new(core.CacheFile); p.check(prior.UnmarshalBinary(image)) }))
	var man *store.Manifest
	var blobs []*store.Blob
	p.out["core.to_store_ms"] = ms(medianOf(5, func() { man, blobs, err = core.ToStoreFormat(cf); p.check(err) }))
	p.out["core.merge_ms"] = ms(medianOf(5, func() { _, _, err = core.MergeCacheFiles(cf, prior, false); p.check(err) }))
	if p.err != nil {
		return
	}

	// core: commit and prime of the same VM in both on-disk formats, a
	// fresh manager (and so a cold L1) every time, as in a new process.
	legacyDir, storeDir := p.dir(), p.dir()
	for _, f := range []struct {
		name string
		dir  string
		opts []core.ManagerOption
	}{
		{"legacy", legacyDir, nil},
		{"store", storeDir, []core.ManagerOption{core.WithStore()}},
	} {
		mgr, err := core.NewManager(f.dir, f.opts...)
		if !p.check(err) {
			return
		}
		t0 := time.Now()
		_, err = mgr.Commit(v)
		p.out["core.commit_"+f.name+"_ms"] = ms(time.Since(t0))
		if !p.check(err) {
			return
		}
		p.out["core.prime_"+f.name+"_ms"] = ms(medianOf(3, func() {
			mgr, err := core.NewManager(f.dir, f.opts...)
			if !p.check(err) {
				return
			}
			rep, err := mgr.Prime(newVM())
			if p.check(err) && rep.Installed == 0 {
				p.check(fmt.Errorf("probe: %s prime installed nothing", f.name))
			}
		}))
	}
	smgr, err := core.NewManager(storeDir, core.WithStore())
	if !p.check(err) {
		return
	}
	mb, err := smgr.ManifestBytes(smgr.CacheFileNameFor(ks))
	if !p.check(err) {
		return
	}
	committed, err := store.DecodeManifest(mb)
	if !p.check(err) {
		return
	}
	p.out["core.materialize_ms"] = ms(medianOf(3, func() {
		mgr, err := core.NewManager(storeDir, core.WithStore())
		if p.check(err) {
			_, err = mgr.MaterializeManifest(committed)
			p.check(err)
		}
	}))

	// store: per-blob codec costs, then the disk paths.
	n := float64(len(blobs))
	encs := make([][]byte, len(blobs))
	p.out["store.encode_us_per_blob"] = us(medianOf(5, func() {
		for i, b := range blobs {
			encs[i] = b.Encode()
		}
	})) / n
	hashes := make([]store.Hash, len(blobs))
	p.out["store.hash_us_per_blob"] = us(medianOf(5, func() {
		for i, e := range encs {
			hashes[i] = store.Sum(e)
		}
	})) / n
	p.out["store.decode_us_per_blob"] = us(medianOf(5, func() {
		for _, e := range encs {
			_, err := store.DecodeBlob(e)
			p.check(err)
		}
	})) / n
	var fresh []*vm.Trace
	p.out["store.materialize_us_per_blob"] = us(medianOf(5, func() {
		fresh = fresh[:0]
		for i, b := range blobs {
			t, err := b.Materialize(man.Traces[i].Refs)
			p.check(err)
			fresh = append(fresh, t)
		}
	})) / n
	p.out["store.manifest_codec_us"] = us(medianOf(5, func() {
		_, err := store.DecodeManifest(committed.Encode())
		p.check(err)
	}))
	if p.err != nil {
		return
	}

	// vm: installing traces that are already materialized.
	iv := newVM()
	t0 := time.Now()
	for _, t := range fresh {
		iv.InstallPersisted(t)
	}
	p.out["vm.install_us_per_trace"] = us(time.Since(t0)) / n

	emptyDir := p.dir()
	st, err := store.Open(emptyDir, nil, nil)
	if !p.check(err) {
		return
	}
	t0 = time.Now()
	_, _, err = st.PutAll(blobs)
	p.out["store.putall_ms"] = ms(time.Since(t0))
	if !p.check(err) {
		return
	}
	p.out["store.open_ms"] = ms(medianOf(5, func() { st, err = store.Open(emptyDir, nil, nil); p.check(err) }))
	if p.err != nil {
		return
	}
	get := func() {
		for _, h := range hashes {
			_, err := st.Get(h)
			p.check(err)
		}
	}
	t0 = time.Now()
	get() // st was just opened: every blob comes from disk
	p.out["store.get_cold_us_per_blob"] = us(time.Since(t0)) / n
	p.out["store.get_l1_us_per_blob"] = us(medianOf(3, get)) / n

	// The same PutAll into a store that already indexes 5 000 other blobs:
	// what the meta flush costs as the database grows.
	big, err := store.Open(p.dir(), nil, nil)
	if !p.check(err) {
		return
	}
	filler := make([]*store.Blob, 5000)
	for i := range filler {
		b := *blobs[i%len(blobs)]
		b.Insts = append([]isa.Inst(nil), b.Insts...)
		b.Insts[0].Imm = int32(1<<20 + i) // distinct content, distinct hash
		filler[i] = &b
	}
	if _, _, err := big.PutAll(filler); !p.check(err) {
		return
	}
	t0 = time.Now()
	_, _, err = big.PutAll(blobs)
	p.out["store.putall_into_5k_ms"] = ms(time.Since(t0))
	if !p.check(err) {
		return
	}

	p.wire(cf, ks, hashes)
}

// wire probes one daemon over loopback, then a 3-shard R=2 fleet.
func (p *prober) wire(cf *core.CacheFile, ks core.KeySet, hashes []store.Hash) {
	st := &state{root: p.dir()}
	defer st.close()
	if !p.check(st.startShards(3)) {
		return
	}
	client := cacheserver.NewClient(st.fleet.Shards[0].Addr)
	defer client.Close()
	t0 := time.Now()
	_, err := client.Publish(cf)
	p.out["cacheserver.publish_ms"] = ms(time.Since(t0))
	if !p.check(err) {
		return
	}
	p.out["cacheserver.lookup_rtt_us"] = us(medianOf(20, func() { _, err := client.Lookup(ks, false); p.check(err) }))
	p.out["cacheserver.fetch_manifests_ms"] = ms(medianOf(3, func() { _, err := client.FetchManifests(ks, false); p.check(err) }))
	p.out["cacheserver.fetch_blobs_ms"] = ms(medianOf(3, func() {
		got, err := client.FetchBlobs(hashes)
		if p.check(err) && len(got) != len(hashes) {
			p.check(fmt.Errorf("probe: daemon served %d of %d blobs", len(got), len(hashes)))
		}
	}))

	fl, err := fleet.New(st.fleet)
	if !p.check(err) {
		return
	}
	defer fl.Close()
	key := fleet.StemFor(ks)
	const lookups = 1000
	p.out["fleet.owners_ns"] = float64(medianOf(3, func() {
		for i := 0; i < lookups; i++ {
			fl.Owners(key)
		}
	})) / lookups
	t0 = time.Now()
	_, err = fl.Publish(cf)
	p.out["fleet.publish_ms"] = ms(time.Since(t0))
	if !p.check(err) {
		return
	}
	p.out["fleet.fetch_blobs_ms"] = ms(medianOf(3, func() {
		got, err := fl.FetchBlobs(hashes)
		if p.check(err) && len(got) != len(hashes) {
			p.check(fmt.Errorf("probe: fleet served %d of %d blobs", len(got), len(hashes)))
		}
	}))
}
