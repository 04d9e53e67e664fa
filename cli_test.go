package persistcc_test

// End-to-end test of the command-line toolchain: build the binaries with
// `go build`, then drive the full pipeline the README documents —
// assemble → link → run (persistently, twice) → inspect the database —
// as a user would from a shell.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"persistcc/internal/isa"
	"persistcc/internal/metrics"
	"persistcc/internal/testutil"
)

func TestCLIPipeline(t *testing.T) {
	bin := testutil.BuildTools(t)
	work := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		p := filepath.Join(work, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	write("lib.s", `
.text
.global square
square:
	mul a0, a0, a0
	ret
`)
	write("main.s", `
.text
.global _start
_start:
	movi a0, 6
	call square
	mv   t0, a0
	movi a0, 2
	movi a1, 1
	la   a2, msg
	movi a3, 4
	sys
	mv   a1, t0
	movi a0, 1
	sys
	halt
.data
msg: .ascii "ok!\n"
`)

	// Assemble.
	for _, src := range []string{"lib.s", "main.s"} {
		if out, se, code := testutil.RunTool(t, bin, "pcc-asm", filepath.Join(work, src)); code != 0 {
			t.Fatalf("pcc-asm %s failed (%d): %s%s", src, code, out, se)
		}
	}
	// Link library and executable.
	if _, se, code := testutil.RunTool(t, bin, "pcc-ld", "-lib", "-o", filepath.Join(work, "libsq.so"),
		"-name", "libsq.so", filepath.Join(work, "lib.vxo")); code != 0 {
		t.Fatalf("pcc-ld lib failed: %s", se)
	}
	if _, se, code := testutil.RunTool(t, bin, "pcc-ld", "-o", filepath.Join(work, "main.vxe"), "-name", "main",
		"-L", filepath.Join(work, "libsq.so"), filepath.Join(work, "main.vxo")); code != 0 {
		t.Fatalf("pcc-ld exe failed: %s", se)
	}

	// Disassemble: the cross-module call shows as loader-patched.
	dump, se, code := testutil.RunTool(t, bin, "pcc-objdump", filepath.Join(work, "main.vxe"))
	if code != 0 {
		t.Fatalf("pcc-objdump failed: %s", se)
	}
	if !strings.Contains(dump, "loader-patched PC32 -> square") {
		t.Errorf("objdump missing patched-call annotation:\n%s", dump)
	}

	// First persistent run: exit code 36, translates and commits.
	db := filepath.Join(work, "db")
	so, se, code := testutil.RunTool(t, bin, "pcc-run", "-json", "-persist", db, filepath.Join(work, "main.vxe"))
	if code != 36 {
		t.Fatalf("first run exit %d, want 36\n%s", code, se)
	}
	if so != "ok!\n" {
		t.Errorf("stdout %q", so)
	}
	st1 := parseStats(t, se)
	if st1.Stats.TracesTranslated == 0 {
		t.Error("first run translated nothing")
	}

	// Second run: full reuse, zero translation.
	so, se, code = testutil.RunTool(t, bin, "pcc-run", "-json", "-persist", db, filepath.Join(work, "main.vxe"))
	if code != 36 || so != "ok!\n" {
		t.Fatalf("second run: exit %d stdout %q", code, so)
	}
	st2 := parseStats(t, se)
	if st2.Stats.TracesTranslated != 0 || st2.Stats.TracesReused == 0 {
		t.Errorf("second run: translated %d, reused %d", st2.Stats.TracesTranslated, st2.Stats.TracesReused)
	}
	if st2.Stats.Ticks >= st1.Stats.Ticks {
		t.Errorf("persistence did not pay: %d >= %d ticks", st2.Stats.Ticks, st1.Stats.Ticks)
	}

	// Database inspection.
	listOut, se, code := testutil.RunTool(t, bin, "pcc-cachectl", "-dir", db, "list")
	if code != 0 || !strings.Contains(listOut, "main") {
		t.Errorf("cachectl list (%d): %s%s", code, listOut, se)
	}
	for _, line := range strings.Split(listOut, "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[1] == "main" {
			out, se, code := testutil.RunTool(t, bin, "pcc-cachectl", "-dir", db, "show", f[0])
			if code != 0 || !strings.Contains(out, "application: main") || !strings.Contains(out, "traces: ") {
				t.Errorf("cachectl show %s (%d): %s%s", f[0], code, out, se)
			}
		}
	}
	if _, se, code := testutil.RunTool(t, bin, "pcc-cachectl", "-dir", db, "verify"); code != 0 {
		t.Errorf("cachectl verify failed: %s", se)
	}

	// Stats names the legacy images a database still holds, which nothing
	// but migrate reads, until migrate converts them.
	const unmigrated = "unmigrated legacy files: 2 (run `pcc-cachectl migrate`)"
	if out, se, code := testutil.RunTool(t, bin, "pcc-cachectl", "-dir", db, "stats"); code != 0 || strings.Contains(out, "unmigrated") {
		t.Errorf("cachectl stats of a migrated database (%d): %s%s", code, out, se)
	}
	legacyDB := filepath.Join(work, "legacy.db")
	if err := copyTree(legacyFixture, legacyDB); err != nil {
		t.Fatal(err)
	}
	if out, se, code := testutil.RunTool(t, bin, "pcc-cachectl", "-dir", legacyDB, "stats"); code != 0 ||
		!strings.Contains(out, "cache files: 0\n") || !strings.Contains(out, unmigrated) {
		t.Errorf("cachectl stats of a legacy database (%d): %s%s", code, out, se)
	}
	if out, se, code := testutil.RunTool(t, bin, "pcc-cachectl", "-dir", legacyDB, "migrate"); code != 0 {
		t.Fatalf("cachectl migrate (%d): %s%s", code, out, se)
	}
	if out, se, code := testutil.RunTool(t, bin, "pcc-cachectl", "-dir", legacyDB, "stats"); code != 0 ||
		!strings.Contains(out, "cache files: 2\n") || strings.Contains(out, "unmigrated") {
		t.Errorf("cachectl stats after migrate (%d): %s%s", code, out, se)
	}

	// Rebuilding the binary (new mtime/content) must invalidate the cache
	// but still run correctly.
	write("main.s", `
.text
.global _start
_start:
	movi a0, 7
	call square
	mv   a1, a0
	movi a0, 1
	sys
	halt
`)
	testutil.RunTool(t, bin, "pcc-asm", filepath.Join(work, "main.s"))
	testutil.RunTool(t, bin, "pcc-ld", "-o", filepath.Join(work, "main.vxe"), "-name", "main",
		"-L", filepath.Join(work, "libsq.so"), filepath.Join(work, "main.vxo"))
	_, se, code = testutil.RunTool(t, bin, "pcc-run", "-json", "-persist", db, filepath.Join(work, "main.vxe"))
	if code != 49 {
		t.Fatalf("rebuilt run exit %d, want 49\n%s", code, se)
	}
	st3 := parseStats(t, se)
	if st3.Stats.TracesTranslated == 0 {
		t.Error("modified binary must be re-translated")
	}
}

type cliStats struct {
	ExitCode uint64
	Stats    struct {
		Ticks            uint64
		TracesTranslated uint64
		TracesReused     uint64
	}
}

func parseStats(t *testing.T, stderr string) *cliStats {
	t.Helper()
	i := strings.Index(stderr, "{")
	if i < 0 {
		t.Fatalf("no JSON in stderr: %q", stderr)
	}
	var st cliStats
	dec := json.NewDecoder(strings.NewReader(stderr[i:]))
	if err := dec.Decode(&st); err != nil {
		t.Fatalf("decode stats: %v\n%s", err, stderr)
	}
	return &st
}

// buildTinyExe assembles and links a minimal self-contained guest that
// exits with code 35, for tests that only need something cacheable to run.
func buildTinyExe(t *testing.T, bin, work string) string {
	t.Helper()
	src := filepath.Join(work, "tiny.s")
	if err := os.WriteFile(src, []byte(`
.text
.global _start
_start:
	movi a0, 5
	movi a1, 7
	mul  a1, a0, a1
	movi a0, 1
	sys
	halt
`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, se, code := testutil.RunTool(t, bin, "pcc-asm", src); code != 0 {
		t.Fatalf("pcc-asm failed: %s", se)
	}
	exe := filepath.Join(work, "tiny.vxe")
	if _, se, code := testutil.RunTool(t, bin, "pcc-ld", "-o", exe, "-name", "tiny",
		filepath.Join(work, "tiny.vxo")); code != 0 {
		t.Fatalf("pcc-ld failed: %s", se)
	}
	return exe
}

func readSnapshot(t *testing.T, path string) *metrics.Snapshot {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := metrics.ParseSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestCLIMetricsAndEvents drives pcc-run's -metrics-out / -events-out flags
// through a cold/warm persistent pair and checks the snapshots tell the
// right story: the warm run reuses every trace from the persistent cache.
func TestCLIMetricsAndEvents(t *testing.T) {
	bin := testutil.BuildTools(t)
	work := t.TempDir()
	exe := buildTinyExe(t, bin, work)
	db := filepath.Join(work, "db")
	coldM := filepath.Join(work, "cold.metrics.json")
	warmM := filepath.Join(work, "warm.metrics.json")
	events := filepath.Join(work, "events.ndjson")

	if _, se, code := testutil.RunTool(t, bin, "pcc-run", "-persist", db,
		"-metrics-out", coldM, "-events-out", events, exe); code != 35 {
		t.Fatalf("cold run exit %d, want 35\n%s", code, se)
	}
	if _, se, code := testutil.RunTool(t, bin, "pcc-run", "-persist", db,
		"-metrics-out", warmM, exe); code != 35 {
		t.Fatalf("warm run exit %d, want 35\n%s", code, se)
	}

	cold := readSnapshot(t, coldM)
	warm := readSnapshot(t, warmM)
	if v, _ := cold.Value("pcc_vm_traces_total", "translated"); v == 0 {
		t.Error("cold run translated no traces")
	}
	if v, _ := warm.Value("pcc_vm_traces_total", "translated"); v != 0 {
		t.Errorf("warm run translated %v traces, want 0", v)
	}
	// The acceptance check: a warm run's snapshot shows nonzero
	// persistent-hit counters.
	if v, _ := warm.Value("pcc_vm_traces_total", "persistent"); v == 0 {
		t.Error("warm run shows no persistent trace hits")
	}
	if v, _ := warm.Value("pcc_core_lookups_total", "exact", "hit"); v == 0 {
		t.Error("warm run shows no exact cache-lookup hit")
	}
	if v, _ := warm.Value("pcc_vm_ticks_total", "total"); v == 0 {
		t.Error("warm snapshot missing total ticks")
	}
	// What the launch touched: far fewer pages hold memory than are mapped
	// (stack, heap and input block are demand-zero).
	mapped, _ := warm.Value("pcc_vm_mapped_pages")
	resident, ok := warm.Value("pcc_vm_resident_pages")
	if !ok || resident == 0 || resident*10 >= mapped {
		t.Errorf("warm snapshot: %v resident of %v mapped pages, want a nonzero share under 10%%", resident, mapped)
	}

	// The cold run's event timeline must contain translate events followed
	// by a commit event, each line valid JSON.
	f, err := os.Open(events)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	kinds := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e struct {
			Seq  uint64 `json:"seq"`
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		kinds[e.Kind]++
	}
	if kinds["translate"] == 0 || kinds["commit"] == 0 {
		t.Errorf("event log kinds = %v, want translate and commit events", kinds)
	}

	// pcc-cachectl renders a snapshot file as Prometheus text.
	out, se, code := testutil.RunTool(t, bin, "pcc-cachectl", "metrics", warmM)
	if code != 0 {
		t.Fatalf("cachectl metrics failed: %s", se)
	}
	if !strings.Contains(out, "# TYPE pcc_vm_ticks_total counter") ||
		!strings.Contains(out, `pcc_vm_traces_total{source="persistent"}`) {
		t.Errorf("cachectl metrics output missing expected families:\n%s", out)
	}
}

// TestCLIRepair corrupts a database (cache file and index) and checks that
// `pcc-cachectl repair` quarantines the damage, rebuilds the index, and the
// database keeps serving warm runs.
func TestCLIRepair(t *testing.T) {
	bin := testutil.BuildTools(t)
	work := t.TempDir()
	exe := buildTinyExe(t, bin, work)
	db := filepath.Join(work, "db")

	if _, se, code := testutil.RunTool(t, bin, "pcc-run", "-persist", db, exe); code != 35 {
		t.Fatalf("cold run exit %d, want 35\n%s", code, se)
	}
	// A second application so repair has both a victim and a survivor.
	exe2 := filepath.Join(work, "tiny2.vxe")
	if err := os.WriteFile(filepath.Join(work, "tiny2.s"), []byte(`
.text
.global _start
_start:
	movi a0, 1
	movi a1, 9
	sys
	halt
`), 0o644); err != nil {
		t.Fatal(err)
	}
	testutil.RunTool(t, bin, "pcc-asm", filepath.Join(work, "tiny2.s"))
	if _, se, code := testutil.RunTool(t, bin, "pcc-ld", "-o", exe2, "-name", "tiny2",
		filepath.Join(work, "tiny2.vxo")); code != 0 {
		t.Fatalf("pcc-ld failed: %s", se)
	}
	if _, se, code := testutil.RunTool(t, bin, "pcc-run", "-persist", db, exe2); code != 9 {
		t.Fatalf("second app cold run exit %d, want 9\n%s", code, se)
	}

	// Corrupt the first app's cache file in place, leave an older version's
	// index beside it, and strand a fake crashed writer's temp file. The
	// list output maps cache file names (content hashes) back to
	// applications.
	listing, se, code := testutil.RunTool(t, bin, "pcc-cachectl", "-dir", db, "list")
	if code != 0 {
		t.Fatalf("list failed: %s", se)
	}
	var victim string
	for _, line := range strings.Split(listing, "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[1] == "tiny" {
			victim = f[0]
		}
	}
	if victim == "" {
		t.Fatalf("no cache file listed for application tiny:\n%s", listing)
	}
	if err := os.WriteFile(filepath.Join(db, victim), []byte("corruption"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(db, "index.json"), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(db, "dead.pcm.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	out, se, code := testutil.RunTool(t, bin, "pcc-cachectl", "-dir", db, "repair")
	if code != 0 {
		t.Fatalf("repair failed (%d): %s%s", code, out, se)
	}
	for _, want := range []string{
		"scanned: 2 cache files",
		"quarantined: 1 corrupt cache files",
		"verified: 1 cache files",
		"removed: 1 temp files",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("repair output missing %q:\n%s", want, out)
		}
	}
	if _, err := os.Stat(filepath.Join(db, "index.json")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("repair left the old index in place: %v", err)
	}
	if _, err := os.Stat(filepath.Join(db, "quarantine")); err != nil {
		t.Error("repair left no quarantine directory")
	}
	if _, se, code := testutil.RunTool(t, bin, "pcc-cachectl", "-dir", db, "verify"); code != 0 {
		t.Errorf("verify after repair failed: %s", se)
	}
	// The surviving entry still serves; the quarantined one re-translates.
	_, se, code = testutil.RunTool(t, bin, "pcc-run", "-json", "-persist", db, exe2)
	if code != 9 {
		t.Fatalf("post-repair run exit %d, want 9\n%s", code, se)
	}
	if st := parseStats(t, se); st.Stats.TracesTranslated != 0 {
		t.Errorf("surviving entry not reused: translated %d", st.Stats.TracesTranslated)
	}
	if _, se, code := testutil.RunTool(t, bin, "pcc-run", "-persist", db, exe); code != 35 {
		t.Fatalf("quarantined app rerun exit %d, want 35\n%s", code, se)
	}
}

// TestCLIDaemonMetricsHTTP boots a real pcc-cached with an HTTP metrics
// listener, runs two clients against it, and round-trips /metrics, /healthz
// and the wire-protocol METRICS op. The daemon's core families count its
// publishes: pcc_core_commits_total is the number of publishes it wrote.
func TestCLIDaemonMetricsHTTP(t *testing.T) {
	bin := testutil.BuildTools(t)
	work := t.TempDir()
	exe := buildTinyExe(t, bin, work)
	sdb := filepath.Join(work, "sdb")

	daemon := exec.Command(filepath.Join(bin, "pcc-cached"), "-dir", sdb,
		"-listen", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0")
	stderr, err := daemon.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		daemon.Process.Kill()
		daemon.Wait()
	}()

	// The daemon prints both listen addresses to stderr at startup.
	type addrs struct{ serve, metrics string }
	ch := make(chan addrs, 1)
	go func() {
		var a addrs
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "pcc-cached: serving"); ok {
				f := strings.Fields(rest)
				a.serve = f[len(f)-1]
			}
			if rest, ok := strings.CutPrefix(line, "pcc-cached: metrics on http://"); ok {
				a.metrics = strings.TrimSuffix(rest, "/metrics")
			}
			if a.serve != "" && a.metrics != "" {
				ch <- a
				break
			}
		}
	}()
	var a addrs
	select {
	case a = <-ch:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for pcc-cached to report its listen addresses")
	}

	// Two clients: the first publishes, the second gets a remote hit.
	for i := 0; i < 2; i++ {
		db := filepath.Join(work, "ldb", string(rune('a'+i)))
		if _, se, code := testutil.RunTool(t, bin, "pcc-run", "-cache-server", a.serve,
			"-persist", db, exe); code != 35 {
			t.Fatalf("client run %d exit %d, want 35\n%s", i, code, se)
		}
	}

	resp, err := http.Get("http://" + a.metrics + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content-type %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		`pcc_server_requests_total{op="publish",status="ok"}`,
		`pcc_server_requests_total{op="fetchmanifests",status="ok"}`,
		"# TYPE pcc_server_request_seconds histogram",
		"pcc_core_db_traces",
		// The daemon commits a publish as a local commit does; the second
		// client, primed warm, publishes nothing.
		`pcc_core_commits_total{result="written"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}

	hresp, err := http.Get("http://" + a.metrics + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	var health struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(hbody, &health); err != nil || health.Status != "ok" {
		t.Errorf("/healthz = %q (err %v), want status ok", hbody, err)
	}

	// The same families over the wire protocol's METRICS op.
	out, se, code := testutil.RunTool(t, bin, "pcc-cachectl", "-server", a.serve, "metrics")
	if code != 0 {
		t.Fatalf("cachectl -server metrics failed: %s", se)
	}
	if !strings.Contains(out, "pcc_server_requests_total") {
		t.Errorf("cachectl -server metrics missing server families:\n%s", out)
	}
}

// startDaemon boots one pcc-cached process listening on addr and waits
// for its startup line.
func startDaemon(t *testing.T, bin, dir, addr string) {
	t.Helper()
	daemon := exec.Command(filepath.Join(bin, "pcc-cached"), "-dir", dir, "-listen", addr)
	stderr, err := daemon.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		daemon.Process.Kill()
		daemon.Wait()
	})
	ready := make(chan bool, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "pcc-cached: serving") {
				ready <- true
				return
			}
		}
		ready <- false
	}()
	select {
	case ok := <-ready:
		if !ok {
			t.Fatalf("pcc-cached on %s exited before serving", addr)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for pcc-cached on %s to start", addr)
	}
}

// TestCLIFleetStats drives a real two-daemon fleet from the shell: each
// daemon is started with its own -listen address and knows nothing of the
// other, a client publishes through the routing layer (replicas=2, so the
// entry lands on both), and then stats asked of a single shard report that
// shard alone, while the client-side `-fleet CONF stats` path adds up the
// fleet.
func TestCLIFleetStats(t *testing.T) {
	bin := testutil.BuildTools(t)
	work := t.TempDir()
	exe := buildTinyExe(t, bin, work)

	s0 := "unix:" + filepath.Join(work, "s0.sock")
	s1 := "unix:" + filepath.Join(work, "s1.sock")
	cfgPath := filepath.Join(work, "fleet.json")
	cfg := `{"shards":[{"id":"s0","addr":"` + s0 + `"},{"id":"s1","addr":"` + s1 + `"}],"replicas":2}`
	if err := os.WriteFile(cfgPath, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	startDaemon(t, bin, filepath.Join(work, "sdb0"), s0)
	startDaemon(t, bin, filepath.Join(work, "sdb1"), s1)

	// Two clients with separate local tiers: the first publishes through
	// the ring to both replicas, the second warm-starts off the fleet.
	for i := 0; i < 2; i++ {
		db := filepath.Join(work, "ldb", string(rune('a'+i)))
		if _, se, code := testutil.RunTool(t, bin, "pcc-run", "-fleet-config", cfgPath,
			"-persist", db, exe); code != 35 {
			t.Fatalf("fleet client run %d exit %d, want 35\n%s", i, code, se)
		}
	}

	// One shard reports its own totals: with replicas=2 the single cache
	// file exists on both shards, and s0 holds one of the two copies.
	out, se, code := testutil.RunTool(t, bin, "pcc-cachectl", "-server", s0, "stats")
	if code != 0 {
		t.Fatalf("cachectl -server stats failed: %s", se)
	}
	if !strings.Contains(out, "cache files: 1") {
		t.Errorf("-server %s stats, want that shard's one cache file:\n%s", s0, out)
	}

	// The client-side fleet path: per-shard balance table plus totals.
	out, se, code = testutil.RunTool(t, bin, "pcc-cachectl", "-fleet", cfgPath, "stats")
	if code != 0 {
		t.Fatalf("cachectl -fleet stats failed: %s", se)
	}
	for _, want := range []string{"s0", "s1", "ok", "fleet totals:", "cache files: 2"} {
		if !strings.Contains(out, want) {
			t.Errorf("-fleet stats missing %q:\n%s", want, out)
		}
	}

	// Report-only global compaction (keep=0): one logical entry fleet-wide,
	// nothing evicted.
	out, se, code = testutil.RunTool(t, bin, "pcc-cachectl", "-fleet", cfgPath, "compact", "-keep", "0")
	if code != 0 {
		t.Fatalf("cachectl -fleet compact failed: %s", se)
	}
	if !strings.Contains(out, "entries: 1 fleet-wide") || !strings.Contains(out, "evicted: 0 shard copies") {
		t.Errorf("-fleet compact report:\n%s", out)
	}
}

// TestCLICacheServerIsFleetOfOne: `pcc-run -cache-server ADDR` reaches the
// daemon as a one-shard fleet, and `pcc-cachectl -server ADDR` takes the
// fleet path for stats and compact — including its exit 1 when the
// daemon's compaction fails.
func TestCLICacheServerIsFleetOfOne(t *testing.T) {
	bin := testutil.BuildTools(t)
	work := t.TempDir()
	exe := buildTinyExe(t, bin, work)
	addr := "unix:" + filepath.Join(work, "d.sock")
	sdb := filepath.Join(work, "sdb")
	startDaemon(t, bin, sdb, addr)

	m := filepath.Join(work, "m.json")
	if _, se, code := testutil.RunTool(t, bin, "pcc-run", "-cache-server", addr,
		"-persist", filepath.Join(work, "ldb"), "-metrics-out", m, exe); code != 35 {
		t.Fatalf("pcc-run -cache-server exit %d, want 35\n%s", code, se)
	}
	snap := readSnapshot(t, m)
	if v, ok := snap.Value("pcc_fleet_shards"); !ok || v != 1 {
		t.Errorf("pcc_fleet_shards = %v (present %v), want 1", v, ok)
	}
	if v, _ := snap.Value("pcc_fleet_requests_total", "publish", addr); v != 1 {
		t.Errorf(`pcc_fleet_requests_total{op="publish",shard=%q} = %v, want 1`, addr, v)
	}

	out, se, code := testutil.RunTool(t, bin, "pcc-cachectl", "-server", addr, "stats")
	if code != 0 {
		t.Fatalf("cachectl -server stats failed: %s", se)
	}
	for _, want := range []string{addr, "ok", "cache files: 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("-server stats missing %q:\n%s", want, out)
		}
	}
	out, se, code = testutil.RunTool(t, bin, "pcc-cachectl", "-server", addr, "compact")
	if code != 0 {
		t.Fatalf("cachectl -server compact failed: %s", se)
	}
	if !strings.Contains(out, "entries: 1 fleet-wide") || !strings.Contains(out, "reclaimed:") {
		t.Errorf("-server compact report:\n%s", out)
	}

	// A manifest the daemon cannot read aborts its compaction.
	if err := os.Mkdir(filepath.Join(sdb, "unreadable.pcm"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, se, code := testutil.RunTool(t, bin, "pcc-cachectl", "-server", addr, "compact"); code != 1 || !strings.Contains(se, addr) {
		t.Errorf("cachectl -server compact over a failing daemon: exit %d, want 1 naming %s\n%s", code, addr, se)
	}
}

func TestCLIWorkloadAndBenchList(t *testing.T) {
	bin := testutil.BuildTools(t)
	out, se, code := testutil.RunTool(t, bin, "pcc-bench", "-list")
	if code != 0 {
		t.Fatalf("pcc-bench -list failed: %s", se)
	}
	for _, id := range []string{"fig2a", "fig5a", "table3a", "oracle", "warmup", "ablation-flush"} {
		if !strings.Contains(out, id) {
			t.Errorf("bench list missing %s", id)
		}
	}
	dir := t.TempDir()
	out, se, code = testutil.RunTool(t, bin, "pcc-workload", "-suite", "oracle", "-out", dir)
	if code != 0 {
		t.Fatalf("pcc-workload failed: %s", se)
	}
	if !strings.Contains(out, "wrote 1 programs") {
		t.Errorf("workload output: %q", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
		t.Error("manifest missing")
	}
	if _, err := os.Stat(filepath.Join(dir, "oracle.vxe")); err != nil {
		t.Error("oracle.vxe missing")
	}
}

// smcSource generates code on the heap, calls it, rewrites it in place and
// calls it again. The versions return 1 and 2: a coherent run exits with
// 1*10+2 = 12, one that keeps running the stale translation with 11.
func smcSource() string {
	enc := func(in isa.Inst) string { return fmt.Sprint(in.EncodeWord()) }
	return `
.text
.global _start
_start:
	movi s2, 0x20000000
	la   t0, words
	ld   t1, 0(t0)
	sd   t1, 0(s2)
	ld   t1, 16(t0)
	sd   t1, 8(s2)
	callr s2
	muli s1, a0, 10
	la   t0, words
	ld   t1, 8(t0)
	sd   t1, 0(s2)
	callr s2
	add  s1, s1, a0
	mv   a1, s1
	movi a0, 1
	sys
	halt
.data
words:
	.word64 ` + enc(isa.Inst{Op: isa.OpMovI, Rd: isa.RegA0, Imm: 1}) + `
	.word64 ` + enc(isa.Inst{Op: isa.OpMovI, Rd: isa.RegA0, Imm: 2}) + `
	.word64 ` + enc(isa.Inst{Op: isa.OpJalr, Rd: isa.RegZero, Rs1: isa.RegRA}) + `
`
}

// TestCLIRunFlags drives the pcc-run flags whose effect lives inside
// persistcc.Run, so that a flag the CLI stops passing on fails here:
// -record/-replay, -metrics-out after a divergent replay, -verify-install
// and -smc.
func TestCLIRunFlags(t *testing.T) {
	bin := testutil.BuildTools(t)
	work := t.TempDir()
	exe := buildTinyExe(t, bin, work)

	t.Run("record-replay", func(t *testing.T) {
		rec := filepath.Join(work, "tiny.rec")
		db := filepath.Join(work, "rdb")
		_, se, code := testutil.RunTool(t, bin, "pcc-run", "-record", rec, "-persist", db, exe)
		if code != 35 || !strings.Contains(se, "pcc-run: recorded ") || !strings.Contains(se, "to "+rec) {
			t.Fatalf("recording run: exit %d, want 35 and a recorded line\n%s", code, se)
		}
		_, se, code = testutil.RunTool(t, bin, "pcc-run", "-replay", rec, "-persist", filepath.Join(work, "rdb2"), exe)
		if code != 35 || !strings.Contains(se, "pcc-run: replayed "+rec+" bit-exactly (") {
			t.Fatalf("replay against a cold database: exit %d, want 35 and a bit-exact line\n%s", code, se)
		}

		// The recording's own database is warm now: the replay diverges on
		// the cache counters, exits 1 and still writes its snapshot.
		m := filepath.Join(work, "diverged.metrics.json")
		_, se, code = testutil.RunTool(t, bin, "pcc-run", "-replay", rec, "-persist", db, "-metrics-out", m, exe)
		if code != 1 || !strings.Contains(se, "diverged") {
			t.Fatalf("replay against the warm database: exit %d, want 1 and a divergence\n%s", code, se)
		}
		if v, ok := readSnapshot(t, m).Value("pcc_replay_divergence_total"); !ok || v != 1 {
			t.Errorf("pcc_replay_divergence_total = %v (present %v), want 1", v, ok)
		}
	})

	t.Run("verify-install", func(t *testing.T) {
		db := filepath.Join(work, "vdb")
		if _, se, code := testutil.RunTool(t, bin, "pcc-run", "-persist", db, exe); code != 35 {
			t.Fatalf("cold run exit %d, want 35\n%s", code, se)
		}
		_, se, code := testutil.RunTool(t, bin, "pcc-run", "-json", "-persist", db, exe)
		if code != 35 {
			t.Fatalf("warm run exit %d, want 35\n%s", code, se)
		}
		plain := parseStats(t, se)
		_, se, code = testutil.RunTool(t, bin, "pcc-run", "-json", "-verify-install", "-persist", db, exe)
		if code != 35 {
			t.Fatalf("warm -verify-install run exit %d, want 35\n%s", code, se)
		}
		verified := parseStats(t, se)
		if plain.Stats.TracesReused == 0 || verified.Stats.TracesReused != plain.Stats.TracesReused || verified.Stats.TracesTranslated != 0 {
			t.Errorf("warm -verify-install reused %d traces and translated %d; a plain warm launch reused %d",
				verified.Stats.TracesReused, verified.Stats.TracesTranslated, plain.Stats.TracesReused)
		}
	})

	t.Run("smc", func(t *testing.T) {
		src := filepath.Join(work, "smc.s")
		if err := os.WriteFile(src, []byte(smcSource()), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, se, code := testutil.RunTool(t, bin, "pcc-asm", src); code != 0 {
			t.Fatalf("pcc-asm failed: %s", se)
		}
		smc := filepath.Join(work, "smc.vxe")
		if _, se, code := testutil.RunTool(t, bin, "pcc-ld", "-o", smc, "-name", "smc", filepath.Join(work, "smc.vxo")); code != 0 {
			t.Fatalf("pcc-ld failed: %s", se)
		}
		if _, se, code := testutil.RunTool(t, bin, "pcc-run", "-smc", smc); code != 12 {
			t.Errorf("pcc-run -smc exit %d, want the coherent 12\n%s", code, se)
		}
		if _, se, code := testutil.RunTool(t, bin, "pcc-run", smc); code != 11 {
			t.Errorf("pcc-run without -smc exit %d, want the stale 11\n%s", code, se)
		}
	})
}
