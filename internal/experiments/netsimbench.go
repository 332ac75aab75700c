package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/stats"
)

// This file is the whole of experiment E15 (`make bench-netsim`): the load
// harness, the report type with its gates, and the table. The harness drives
// netsim through its exported API only, which is why it lives here and not
// in the package it measures. Its numbers are wall-clock, so they are
// printed by the command and committed nowhere. Two scenarios:
//
//   - runNetsimLoad: a steady-state packet mill — loadGroups fixed host
//     groups, each with a population of paced clients talking mostly to their
//     own group's server with a deterministic fraction of remote traffic. The
//     group structure is independent of the shard count (group → shard is
//     g mod shards), so the same seed offers the identical workload at every
//     shard count and the shards=1 row is a true baseline for the speedup
//     column.
//
//   - runAdmissionStorm: the scale headline — 100k+ clients connect over a
//     short ramp, each admitted with a reliable connect/ack exchange and two
//     paced follow-ups. Memory stays bounded because netsim retains nothing
//     per packet: a link is four counters, a serializer and an RNG.
//
// Both report the network's replay digest, which the determinism tests
// compare across GOMAXPROCS settings and reruns.

// The workload shape both scenarios share. None of these was ever varied:
// the group count and traffic mix define the workload the numbers are
// comparable under, and the lookahead is tied to the default link below.
const (
	loadGroups         = 8                     // fixed host groups, workload-invariant
	loadLookahead      = 10 * time.Millisecond // conservative window = min cross-group delay
	loadRemotePermille = 100                   // ‰ of mill sends aimed at a remote group's server
	loadPayloadSize    = 512                   // bytes per mill packet
)

// netsimLoadConfig parameterizes the steady-state packet mill.
type netsimLoadConfig struct {
	Shards          int           // virtual-clock shards (default 1)
	ClientsPerGroup int           // paced senders per group (default 64)
	Duration        time.Duration // simulated run length (default 5s)
	SendEvery       time.Duration // per-client send period (default 20ms)
	Seed            uint64
}

func (c *netsimLoadConfig) defaults() {
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.ClientsPerGroup < 1 {
		c.ClientsPerGroup = 64
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.SendEvery <= 0 {
		c.SendEvery = 20 * time.Millisecond
	}
}

// NetsimLoadResult is one harness run's report.
type NetsimLoadResult struct {
	Shards           int
	Clients          int
	SimSeconds       float64
	WallMillis       float64
	PacketsSent      int
	PacketsDelivered int
	// PacketsPerSec is simulated packet deliveries per wall-clock second —
	// the throughput the speedup column is computed from.
	PacketsPerSec float64
	CrossSent     int64
	CrossClamps   int64
	BarrierRounds int64
	Digest        uint64
	HeapMB        float64
}

// check holds the gates on one packet-mill run.
func (r NetsimLoadResult) check() error {
	if r.Clients <= 0 || r.PacketsDelivered <= 0 || r.PacketsPerSec <= 0 {
		return fmt.Errorf("shards=%d run missing core fields", r.Shards)
	}
	if r.CrossClamps != 0 {
		return fmt.Errorf("shards=%d clamped %d cross-shard arrivals; the lookahead does not cover the min cross-shard delay", r.Shards, r.CrossClamps)
	}
	if r.Shards > 1 && r.CrossSent == 0 {
		return fmt.Errorf("shards=%d moved no cross-shard traffic; the sweep is vacuous", r.Shards)
	}
	return nil
}

// Host naming: group g's server is "gNN-srv", its clients "gNN-cJJJJJJ". The
// group number is what the shard map keys on, so placement is a pure
// function of the name.
func groupServer(g int) string    { return fmt.Sprintf("g%02d-srv", g) }
func groupClient(g, j int) string { return fmt.Sprintf("g%02d-c%06d", g, j) }
func hostGroup(host string) int {
	g := 0
	for i := 1; i < len(host) && host[i] >= '0' && host[i] <= '9'; i++ {
		g = g*10 + int(host[i]-'0')
	}
	return g
}

// groupShardOf is the harness's host→shard assignment: group g lands on
// shard g mod shards, so co-group hosts always share a shard and the group
// structure (and therefore the workload) is invariant across shard counts.
func groupShardOf(shards int) func(string) int {
	return func(host string) int { return hostGroup(host) % shards }
}

// mix64 is the SplitMix64 finalizer: the harness's stateless draw on
// (seed, client, seq). The same function netsim seeds its shards with, so
// committed digests replay.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// buildLoadNet stands up the sharded driver and network for a harness run:
// intra-group links are short (2ms), everything else — including every
// possible cross-group and therefore cross-shard path — uses the default
// link whose propagation delay equals the lookahead.
func buildLoadNet(shards int, seed uint64) (*clock.ShardedVirtual, *netsim.Network) {
	sv := clock.NewShardedSim(shards, loadLookahead)
	n := netsim.NewSharded(sv, seed, groupShardOf(shards))
	n.SetDefaultLink(netsim.LinkConfig{
		Bandwidth: 100_000_000,
		Delay:     loadLookahead,
		Jitter:    2 * time.Millisecond,
		Loss:      0.002,
	})
	return sv, n
}

// runNetsimLoad drives the steady-state packet mill and reports throughput.
func runNetsimLoad(cfg netsimLoadConfig) NetsimLoadResult {
	cfg.defaults()
	sv, n := buildLoadNet(cfg.Shards, cfg.Seed)
	intra := netsim.LinkConfig{
		Bandwidth: 100_000_000,
		Delay:     2 * time.Millisecond,
		Jitter:    500 * time.Microsecond,
		Loss:      0.001,
	}
	for g := 0; g < loadGroups; g++ {
		n.Listen(netsim.Addr(groupServer(g)+":7000"), func(netsim.Packet) {})
	}
	horizon := clock.Epoch.Add(cfg.Duration)
	payload := make([]byte, loadPayloadSize)
	for g := 0; g < loadGroups; g++ {
		for j := 0; j < cfg.ClientsPerGroup; j++ {
			g, j := g, j
			host := groupClient(g, j)
			n.SetLink(host, groupServer(g), intra)
			id := uint64(g)<<32 | uint64(j)
			shard := sv.Shard(g % cfg.Shards)
			from := netsim.Addr(host + ":9000")
			seq := 0
			var tick func()
			tick = func() {
				seq++
				// Destination choice is pure arithmetic on (seed, id, seq):
				// identical at every shard count and GOMAXPROCS.
				draw := mix64(cfg.Seed ^ id ^ uint64(seq)<<1)
				dstGroup := g
				if int(draw%1000) < loadRemotePermille {
					dstGroup = int((draw >> 10) % (loadGroups - 1))
					if dstGroup >= g {
						dstGroup++
					}
				}
				n.Send(netsim.Packet{
					From:    from,
					To:      netsim.Addr(groupServer(dstGroup) + ":7000"),
					Payload: payload,
				})
				if next := shard.Now().Add(cfg.SendEvery); next.Before(horizon) {
					shard.AfterFunc(cfg.SendEvery, tick)
				}
			}
			// Staggered deterministic start phase within one period.
			phase := time.Duration(mix64(cfg.Seed^id) % uint64(cfg.SendEvery))
			shard.AfterFunc(phase, tick)
		}
	}

	runtime.GC()
	start := time.Now()
	sv.Run(horizon)
	wall := time.Since(start)

	return finishResult(cfg.Shards, loadGroups*cfg.ClientsPerGroup, cfg.Duration, wall, sv, n)
}

// stormConfig parameterizes the admission storm.
type stormConfig struct {
	Shards  int           // default 1
	Clients int           // default 100_000
	Ramp    time.Duration // connect arrivals spread over this window (default 2s)
	Seed    uint64
}

func (c *stormConfig) defaults() {
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.Clients < 1 {
		c.Clients = 100_000
	}
	if c.Ramp <= 0 {
		c.Ramp = 2 * time.Second
	}
}

// StormResult reports the admission storm: the run's network totals plus how
// many clients completed the connect/ack exchange.
type StormResult struct {
	NetsimLoadResult
	Acked int64
}

// stormHeapGateMB bounds the storm's live heap: a link's memory is constant
// however many packets it has moved, so the run fits comfortably under this
// at any packet count.
const stormHeapGateMB = 1024

// check holds the gates on one storm run, whatever its size.
func (s StormResult) check() error {
	if s.Acked != int64(s.Clients) {
		return fmt.Errorf("storm acked %d of %d clients", s.Acked, s.Clients)
	}
	if s.HeapMB <= 0 || s.HeapMB > stormHeapGateMB {
		return fmt.Errorf("storm heap %.0fMB outside (0, %dMB]; something is retained per packet", s.HeapMB, stormHeapGateMB)
	}
	if s.Digest == 0 {
		return fmt.Errorf("storm digest missing")
	}
	if s.Shards > 1 && s.CrossSent == 0 {
		return fmt.Errorf("storm moved no cross-shard traffic at %d shards; the remote fetches are broken", s.Shards)
	}
	return nil
}

const connectSize = 128

var (
	connectPayload = make([]byte, connectSize)
	ackPayload     = make([]byte, 32)
)

// runAdmissionStorm connects cfg.Clients clients over the ramp window: each
// sends a reliable connect, the group server acks it reliably, and the
// client follows up with two paced unreliable requests — roughly four
// packets per client, >400k for the default 100k clients. Nothing is kept
// per packet, so memory grows with the population only.
func runAdmissionStorm(cfg stormConfig) StormResult {
	cfg.defaults()
	sv, n := buildLoadNet(cfg.Shards, cfg.Seed)

	// acked is indexed by shard; each slot is only ever touched by its own
	// shard's worker (the ack handler runs on the client's shard).
	acked := make([]int64, cfg.Shards)
	for g := 0; g < loadGroups; g++ {
		srv := netsim.Addr(groupServer(g) + ":7000")
		n.Listen(srv, func(pkt netsim.Packet) {
			if len(pkt.Payload) == connectSize {
				n.Send(netsim.Packet{From: srv, To: pkt.From, Payload: ackPayload, Reliable: true})
			}
		})
	}
	followUp := make([]byte, 64)
	for i := 0; i < cfg.Clients; i++ {
		i := i
		g := i % loadGroups
		host := groupClient(g, i/loadGroups)
		from := netsim.Addr(host + ":9000")
		srv := netsim.Addr(groupServer(g) + ":7000")
		shardID := g % cfg.Shards
		shard := sv.Shard(shardID)
		gotAck := false
		n.Listen(from, func(netsim.Packet) {
			if gotAck {
				return
			}
			gotAck = true
			acked[shardID]++
			for k := 1; k <= 2; k++ {
				// The second follow-up of every tenth client fetches from a
				// remote group's server, so the storm also exercises the
				// cross-shard mailbox (deterministic on seed, client, k).
				dst := srv
				if k == 2 && i%10 == 0 {
					rg := int(mix64(cfg.Seed^uint64(i)^uint64(k)) % (loadGroups - 1))
					if rg >= g {
						rg++
					}
					dst = netsim.Addr(groupServer(rg) + ":7000")
				}
				shard.AfterFunc(time.Duration(k)*50*time.Millisecond, func() {
					n.Send(netsim.Packet{From: from, To: dst, Payload: followUp})
				})
			}
		})
		// Arrivals spread uniformly over the ramp, deterministically jittered.
		at := time.Duration(uint64(cfg.Ramp) * uint64(i) / uint64(cfg.Clients))
		at += time.Duration(mix64(cfg.Seed^uint64(i)) % uint64(time.Millisecond))
		shard.AfterFunc(at, func() {
			n.Send(netsim.Packet{From: from, To: srv, Payload: connectPayload, Reliable: true})
		})
	}

	runtime.GC()
	start := time.Now()
	sv.RunUntilIdle()
	wall := time.Since(start)

	res := StormResult{
		NetsimLoadResult: finishResult(cfg.Shards, cfg.Clients, sv.Since(clock.Epoch), wall, sv, n),
	}
	for _, a := range acked {
		res.Acked += a
	}
	return res
}

// finishResult rolls one completed run into a NetsimLoadResult.
func finishResult(shards, clients int, simDur, wall time.Duration, sv *clock.ShardedVirtual, n *netsim.Network) NetsimLoadResult {
	sent, delivered, _, _ := n.Totals()
	crossSent, clamps, rounds := sv.CrossStats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	pps := 0.0
	if wall > 0 {
		pps = float64(delivered) / wall.Seconds()
	}
	return NetsimLoadResult{
		Shards:           shards,
		Clients:          clients,
		SimSeconds:       simDur.Seconds(),
		WallMillis:       float64(wall) / float64(time.Millisecond),
		PacketsSent:      sent,
		PacketsDelivered: delivered,
		PacketsPerSec:    pps,
		CrossSent:        crossSent,
		CrossClamps:      clamps,
		BarrierRounds:    rounds,
		Digest:           n.DeliveryDigest(),
		HeapMB:           float64(ms.HeapAlloc) / (1 << 20),
	}
}

// NetsimReport is everything one E15 run is gated on.
type NetsimReport struct {
	// Cores is runtime.NumCPU() on the host; the speedup gate is a function
	// of it.
	Cores         int
	Runs          []NetsimLoadResult
	DeterminismOK bool
	Storm         StormResult
}

// netsimSpeedupGate returns the minimum acceptable pkts/s ratio of the
// 4-shard run over the 1-shard run for a host with the given core count:
// real parallel speedup where cores exist, bounded overhead where they
// don't.
//
// The gate is CPU-aware by necessity: conservative-window parallelism cannot
// beat wall clock on a single-core host, where the sharded driver's win is
// capacity (100k clients in bounded memory, no global lock) rather than
// speed.
func netsimSpeedupGate(cores int) float64 {
	switch {
	case cores >= 4:
		return 2.0
	case cores >= 2:
		return 1.2
	default:
		return 0.8
	}
}

// check holds every E15 gate; Netsim ends in it.
func (rep NetsimReport) check() error {
	if len(rep.Runs) == 0 {
		return fmt.Errorf("no shard-sweep runs")
	}
	var pps1, pps4 float64
	for _, r := range rep.Runs {
		if err := r.check(); err != nil {
			return err
		}
		switch r.Shards {
		case 1:
			pps1 = r.PacketsPerSec
		case 4:
			pps4 = r.PacketsPerSec
		}
	}
	if pps1 <= 0 || pps4 <= 0 {
		return fmt.Errorf("sweep must include shards=1 and shards=4 rows")
	}
	gate := netsimSpeedupGate(rep.Cores)
	if speedup := pps4 / pps1; speedup < gate {
		return fmt.Errorf("4-shard speedup %.2fx below the %.1fx gate for %d cores", speedup, gate, rep.Cores)
	}
	if !rep.DeterminismOK {
		return fmt.Errorf("determinism cross-check failed")
	}
	if rep.Storm.Clients < 100_000 {
		return fmt.Errorf("storm ran %d clients, want ≥ 100000", rep.Storm.Clients)
	}
	return rep.Storm.check()
}

// Netsim is experiment E15, the parallel discrete-event simulator on its
// own: the steady-state packet mill at a shard sweep (1/2/4/8), a
// determinism cross-check (same seed, different GOMAXPROCS, plus a replay —
// digests must match), and the 100k-client admission storm with its
// bounded-memory claim. The title carries the host the wall-clock columns
// were measured on.
func Netsim() (*stats.Table, error) {
	cores := runtime.NumCPU()
	rep := NetsimReport{Cores: cores}

	baseCfg := func(shards int) netsimLoadConfig {
		return netsimLoadConfig{
			Shards:          shards,
			ClientsPerGroup: 256,
			Duration:        10 * time.Second,
			SendEvery:       5 * time.Millisecond,
			Seed:            0xC4A05,
		}
	}

	tb := stats.NewTable(fmt.Sprintf("E15 — netsim: sharded virtual clocks, conservative lookahead (%d cores, GOMAXPROCS %d, %s)",
		cores, runtime.GOMAXPROCS(0), runtime.Version()),
		"shards", "clients", "sim s", "wall ms", "packets", "pkts/s", "pkts/s/core",
		"cross", "clamps", "rounds", "speedup", "digest")
	var base float64
	for _, shards := range []int{1, 2, 4, 8} {
		r := runNetsimLoad(baseCfg(shards))
		if shards == 1 {
			base = r.PacketsPerSec
		}
		rep.Runs = append(rep.Runs, r)
		tb.AddRow(r.Shards, r.Clients, fmt.Sprintf("%.1f", r.SimSeconds),
			fmt.Sprintf("%.0f", r.WallMillis), r.PacketsDelivered,
			fmt.Sprintf("%.0f", r.PacketsPerSec),
			fmt.Sprintf("%.0f", r.PacketsPerSec/float64(cores)),
			r.CrossSent, r.CrossClamps, r.BarrierRounds,
			fmt.Sprintf("%.2fx", r.PacketsPerSec/base),
			fmt.Sprintf("%016x", r.Digest))
	}

	// Determinism cross-check: the 8-shard run replayed under GOMAXPROCS=1
	// and again under all cores must reproduce the digest bit for bit.
	detCfg := baseCfg(8)
	detCfg.Duration = 2 * time.Second
	runAt := func(procs int) NetsimLoadResult {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		return runNetsimLoad(detCfg)
	}
	d1, dN, dR := runAt(1), runAt(cores), runAt(cores)
	// A mismatch fails in check() below, so the row only ever prints its
	// passing verdict; TestLoadDeterministicAcrossGOMAXPROCS is where to
	// look at the three digests.
	rep.DeterminismOK = d1.Digest == dN.Digest && dN.Digest == dR.Digest
	tb.AddRow(fmt.Sprintf("8 @ procs 1/%d/%d", cores, cores), d1.Clients, fmt.Sprintf("%.1f", d1.SimSeconds),
		"-", d1.PacketsDelivered, "-", "-",
		d1.CrossSent, d1.CrossClamps, d1.BarrierRounds, "identical",
		fmt.Sprintf("%016x", d1.Digest))

	// The scale headline: a 100k-client admission storm in bounded memory.
	storm := runAdmissionStorm(stormConfig{
		Shards:  8,
		Clients: 100_000,
		Seed:    0xC4A05,
	})
	rep.Storm = storm
	tb.AddRow("storm", storm.Clients, fmt.Sprintf("%.1f", storm.SimSeconds),
		fmt.Sprintf("%.0f", storm.WallMillis), storm.PacketsDelivered,
		fmt.Sprintf("%.0f", storm.PacketsPerSec),
		fmt.Sprintf("%.0f", storm.PacketsPerSec/float64(cores)),
		storm.CrossSent, "-", "-", fmt.Sprintf("%.0fMB", storm.HeapMB),
		fmt.Sprintf("%016x", storm.Digest))

	if err := rep.check(); err != nil {
		return nil, fmt.Errorf("netsim: %w", err)
	}
	return tb, nil
}
