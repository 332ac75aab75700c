package core_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hml"
	"repro/internal/netsim"
	"repro/internal/qos"
	"repro/internal/server"
)

var update = flag.Bool("update", false, "rewrite testdata/ledger.txt from what the worlds allocate")

// ledgerTopFuncs is how many functions the ledger names per world; the rest
// sum into one "other" row.
const ledgerTopFuncs = 12

// TestByteLedger pins, byte for byte, what four small worlds allocate: the
// heap bytes and objects of each world, charged to the innermost
// repro/internal frame of every allocation's stack, by package and by the
// top functions. Allocated bytes need no noise floor when the count
// repeats, and it does here: one P, every allocation profiled
// (MemProfileRate 1), the collector off across each world so a sync.Pool
// never drops what it holds, and each world played once unmeasured first so
// lazily built package state does not depend on which tests ran before.
// Pointer-free allocations under 16 B share 16 B blocks, and the profile
// counts only the one that opens a block, so adding or removing a tiny
// allocation anywhere moves a few bytes in unrelated rows.
// Byte counts belong to a runtime, so the header names it; another
// toolchain regenerates the file with -update rather than comparing.
func TestByteLedger(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations and sync.Pool drops make the count vary")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1

	worlds := []struct {
		name, about string
		run         func(t *testing.T)
	}{
		{"play", "one viewer plays hml.Figure2Source (core.Play, seed 1)", ledgerPlay},
		{"lecture_private", "20 viewers watch a two-slide lesson on private flows (cluster.New)",
			func(t *testing.T) { ledgerLecture(t, false) }},
		{"lecture_shared", "the same lecture on shared flows, joins 150 ms apart (patches, backlogs)",
			func(t *testing.T) { ledgerLecture(t, true) }},
		{"control_storm", "200 browsers connect, list eight topics, heartbeat 3 s, disconnect",
			ledgerStorm},
	}
	var out bytes.Buffer
	fmt.Fprintf(&out, "# Byte ledger: heap bytes and objects four small worlds allocate, charged to\n")
	fmt.Fprintf(&out, "# the innermost repro/internal frame of each allocation. %s, one P,\n", runtime.Version())
	fmt.Fprintf(&out, "# MemProfileRate 1, collector off across each world. Regenerate with\n")
	fmt.Fprintf(&out, "# go test ./internal/core -run TestByteLedger -update\n")
	for _, w := range worlds {
		w.run(t) // warm lazily built package state
		fmt.Fprintf(&out, "\n== %s: %s\n", w.name, w.about)
		writeLedger(&out, measureWorld(t, w.run))
	}

	const golden = "testdata/ledger.txt"
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out.Bytes(), want) {
		return
	}
	if gv, wv := ledgerRuntime(out.String()), ledgerRuntime(string(want)); gv != wv {
		t.Skipf("%s was written by %s; this is %s (go test ./internal/core -run TestByteLedger -update)", golden, wv, gv)
	}
	t.Errorf("allocations differ from %s (go test ./internal/core -run TestByteLedger -update rewrites it):\n%s",
		golden, ledgerDiff(string(want), out.String()))
}

// ledgerRuntime returns the toolchain a ledger's header names.
func ledgerRuntime(s string) string {
	for _, f := range strings.Fields(s) {
		if strings.HasPrefix(f, "go1") || strings.HasPrefix(f, "devel") {
			return strings.TrimSuffix(f, ",")
		}
	}
	return ""
}

// ledgerDiff lists the rows whose counts differ between two ledgers, keyed
// by world, kind and name, so a row that only moved is not reported.
func ledgerDiff(want, got string) string {
	wr, order := ledgerRows(want)
	gr, gorder := ledgerRows(got)
	for _, k := range gorder {
		if _, ok := wr[k]; !ok {
			order = append(order, k)
		}
	}
	var b strings.Builder
	for _, k := range order {
		if w, g := wr[k], gr[k]; w != g {
			fmt.Fprintf(&b, "%s\n  want %s\n   got %s\n", k, w, g)
		}
	}
	return b.String()
}

// ledgerRows maps each row of a ledger to its counts, keyed "world kind
// name", and returns the keys in file order.
func ledgerRows(s string) (map[string]string, []string) {
	rows, world := map[string]string{}, ""
	var order []string
	for _, line := range strings.Split(s, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) >= 2 && f[0] == "==":
			world = strings.TrimSuffix(f[1], ":")
		case len(f) >= 4 && f[len(f)-3] == "B" && f[len(f)-1] == "obj":
			k := world + " " + strings.Join(f[:len(f)-4], " ")
			rows[k] = strings.Join(f[len(f)-4:], " ")
			order = append(order, k)
		}
	}
	return rows, order
}

// cost is an allocation count: bytes and objects.
type cost struct{ bytes, objects int64 }

// ledger is one world's allocations by owner.
type ledger struct {
	total   cost
	byPkg   map[string]cost
	byFunc  map[string]cost
	ordered []string // byFunc's keys, largest first
}

// measureWorld runs one world with the collector off and charges every
// allocation it made to its innermost repro/internal frame.
func measureWorld(t *testing.T, run func(t *testing.T)) ledger {
	t.Helper()
	runtime.GC()
	runtime.GC()
	before := heapRecords()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run(t)
	// The profile publishes what a completed cycle saw; the second cycle
	// makes sure every allocation of the world is in it.
	runtime.GC()
	runtime.GC()
	after := heapRecords()

	l := ledger{byPkg: map[string]cost{}, byFunc: map[string]cost{}}
	for stk, a := range after {
		b := before[stk]
		d := cost{a.bytes - b.bytes, a.objects - b.objects}
		if d == (cost{}) {
			continue
		}
		fn, ok := owner(stk)
		if !ok {
			continue
		}
		pkg := fn
		if i := strings.IndexByte(pkg, '.'); i >= 0 {
			pkg = pkg[:i]
		}
		add := func(m map[string]cost, k string) {
			c := m[k]
			m[k] = cost{c.bytes + d.bytes, c.objects + d.objects}
		}
		add(l.byPkg, pkg)
		add(l.byFunc, fn)
		l.total.bytes += d.bytes
		l.total.objects += d.objects
	}
	for fn := range l.byFunc {
		l.ordered = append(l.ordered, fn)
	}
	sortByCost(l.ordered, l.byFunc)
	return l
}

// heapRecords snapshots the heap profile's cumulative counts by stack.
func heapRecords() map[[32]uintptr]cost {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	m := make(map[[32]uintptr]cost, n)
	for _, r := range recs[:n] {
		c := m[r.Stack0]
		m[r.Stack0] = cost{c.bytes + r.AllocBytes, c.objects + r.AllocObjects}
	}
	return m
}

// owner names the innermost repro/internal frame of stk, without the
// module path ("buffer.(*Buffer).Push"). A stack with no such frame has no
// owner, and neither has one the ledger's own snapshot made or one that
// grew the runtime's type-assertion caches, which it does on a random one
// in 1 024 misses.
func owner(stk [32]uintptr) (string, bool) {
	n := 0
	for n < len(stk) && stk[n] != 0 {
		n++
	}
	frames := runtime.CallersFrames(stk[:n])
	for first := true; ; first = false {
		f, more := frames.Next()
		if first && (f.Function == "runtime.typeAssert" || f.Function == "runtime.interfaceSwitch") {
			return "", false
		}
		if name, ok := strings.CutPrefix(f.Function, "repro/internal/"); ok {
			return name, !strings.HasSuffix(name, ".heapRecords")
		}
		if !more {
			return "", false
		}
	}
}

// sortByCost orders keys by bytes, largest first, then by name.
func sortByCost(keys []string, m map[string]cost) {
	sort.Slice(keys, func(i, j int) bool {
		a, b := m[keys[i]], m[keys[j]]
		if a.bytes != b.bytes {
			return a.bytes > b.bytes
		}
		return keys[i] < keys[j]
	})
}

// writeLedger prints one world's rows: the total, every package, the top
// functions and an "other" row, so each section sums exactly to the total.
func writeLedger(b *bytes.Buffer, l ledger) {
	row := func(kind, name string, c cost) {
		fmt.Fprintf(b, "%-4s %-52s %11d B %9d obj\n", kind, name, c.bytes, c.objects)
	}
	row("", "total", l.total)
	pkgs := make([]string, 0, len(l.byPkg))
	for p := range l.byPkg {
		pkgs = append(pkgs, p)
	}
	sortByCost(pkgs, l.byPkg)
	for _, p := range pkgs {
		row("pkg", p, l.byPkg[p])
	}
	var other cost
	for i, fn := range l.ordered {
		c := l.byFunc[fn]
		if i < ledgerTopFuncs {
			row("func", fn, c)
			continue
		}
		other.bytes += c.bytes
		other.objects += c.objects
	}
	row("func", "other", other)
}

// ledgerPlay is the one-viewer world.
func ledgerPlay(t *testing.T) {
	if _, err := core.Play(core.PlayConfig{DocSource: hml.Figure2Source, Seed: 1}); err != nil {
		t.Fatal(err)
	}
}

// ledgerCluster boots a one-server federation holding docs, with admission
// lifted so that it never caps the fleet, and one subscriber "u".
func ledgerCluster(t *testing.T, docs map[string]string, opts server.Options) (*clock.Virtual, *netsim.Network) {
	t.Helper()
	clk := clock.NewSim()
	net := netsim.New(clk, 1)
	users := auth.NewDB()
	if err := users.Subscribe(auth.User{Name: "u", Password: "pw", Email: "u@test", Class: qos.Standard}, clk.Now()); err != nil {
		t.Fatal(err)
	}
	placement := server.Placement{}
	for doc := range docs {
		placement[doc] = []string{"srv"}
	}
	opts.Capacity = 1e12
	if _, err := cluster.New(clk, net, users, cluster.Config{
		Servers: []string{"srv"}, Placement: placement, Docs: docs, ServerOptions: opts,
	}); err != nil {
		t.Fatal(err)
	}
	return clk, net
}

// ledgerClients makes n connected-to-nothing browsers named prefix00….
func ledgerClients(t *testing.T, clk clock.Clock, net netsim.Net, prefix string, n int) []*client.Client {
	t.Helper()
	cs := make([]*client.Client, n)
	for i := range cs {
		c, err := client.New(fmt.Sprintf("%s%03d", prefix, i), clk, net, client.Options{User: "u", Password: "pw"})
		if err != nil {
			t.Fatal(err)
		}
		cs[i] = c
	}
	return cs
}

// ledgerLecture is 20 viewers of one two-slide lesson. On shared flows the
// requests go out 150 ms apart, so every viewer after the first joins a
// flow in progress: it is patched back to the last GoP start and queues
// the live frames ahead of its own playout.
func ledgerLecture(t *testing.T, shared bool) {
	clk, net := ledgerCluster(t, map[string]string{"lecture": hml.LessonSource("ledger", 2, 4*time.Second)},
		server.Options{SharedFlows: shared})
	viewers := ledgerClients(t, clk, net, "viewer", 20)
	for _, c := range viewers {
		c.Connect("srv")
	}
	clk.RunFor(time.Second)
	for _, c := range viewers {
		c.RequestDoc("lecture")
		if shared {
			clk.RunFor(150 * time.Millisecond)
		}
	}
	clk.RunFor(10 * time.Second)
	for i, c := range viewers {
		if p := c.Player(); p == nil || p.Report().Streams["ledger-au1"].Plays == 0 {
			t.Fatalf("viewer %d played no narration", i)
		}
		c.Disconnect()
	}
	clk.RunFor(time.Second)
}

// ledgerStorm is the control-plane world of TestControlSessionBytes.
func ledgerStorm(t *testing.T) {
	docs := map[string]string{}
	for i := 0; i < 8; i++ {
		docs[fmt.Sprintf("lesson-%d", i)] = fmt.Sprintf(`<TITLE>Lesson %d</TITLE><TEXT>x</TEXT>`, i)
	}
	clk, net := ledgerCluster(t, docs, server.Options{})
	browsers := ledgerClients(t, clk, net, "browser", 200)
	for _, c := range browsers {
		c.Connect("srv")
	}
	clk.RunFor(time.Second)
	for _, c := range browsers {
		c.RequestTopics()
	}
	clk.RunFor(3 * time.Second)
	for _, c := range browsers {
		c.Disconnect()
	}
	clk.RunFor(time.Second)
	for i, c := range browsers {
		if got := len(c.Topics()); got != len(docs) {
			t.Fatalf("browser %d listed %d topics, want %d", i, got, len(docs))
		}
	}
}
