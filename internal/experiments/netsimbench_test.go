package experiments

import (
	"runtime"
	"testing"
	"time"
)

func quickLoadCfg(shards int) netsimLoadConfig {
	return netsimLoadConfig{
		Shards:          shards,
		ClientsPerGroup: 4,
		Duration:        500 * time.Millisecond,
		Seed:            0xC4A05,
	}
}

// TestLoadDeterministicAcrossGOMAXPROCS is the determinism regression the
// sharded rewrite is gated on: the same seed and shard map must replay
// byte-identically (same delivery digest, same packet counts) whether the
// windows run on one core or many, and across reruns.
func TestLoadDeterministicAcrossGOMAXPROCS(t *testing.T) {
	runAt := func(shards, procs int) NetsimLoadResult {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		return runNetsimLoad(quickLoadCfg(shards))
	}
	for _, shards := range []int{1, 8} {
		serial := runAt(shards, 1)
		parallel := runAt(shards, runtime.NumCPU())
		replay := runAt(shards, runtime.NumCPU())
		if serial.Digest != parallel.Digest || parallel.Digest != replay.Digest {
			t.Fatalf("shards=%d digests diverge: GOMAXPROCS=1 %x, =%d %x, replay %x",
				shards, serial.Digest, runtime.NumCPU(), parallel.Digest, replay.Digest)
		}
		if serial.PacketsSent != parallel.PacketsSent || serial.PacketsDelivered != parallel.PacketsDelivered {
			t.Fatalf("shards=%d counts diverge: %d/%d vs %d/%d sent/delivered",
				shards, serial.PacketsSent, serial.PacketsDelivered, parallel.PacketsSent, parallel.PacketsDelivered)
		}
		if serial.PacketsDelivered == 0 {
			t.Fatalf("shards=%d delivered nothing", shards)
		}
	}
}

// TestLoadWorkloadInvariantAcrossShardCounts pins the harness design point
// that makes the speedup column honest: the offered load (sends) is pure
// arithmetic on (seed, client, seq), so sharding changes who simulates a
// host — never what the host does.
func TestLoadWorkloadInvariantAcrossShardCounts(t *testing.T) {
	base := runNetsimLoad(quickLoadCfg(1))
	for _, shards := range []int{2, 8} {
		r := runNetsimLoad(quickLoadCfg(shards))
		if r.PacketsSent != base.PacketsSent {
			t.Fatalf("shards=%d offered %d packets, shards=1 offered %d; workload must not depend on the shard map",
				shards, r.PacketsSent, base.PacketsSent)
		}
		// Cross-shard traffic flows and none of it needed clamping.
		if err := r.check(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAdmissionStormSmall runs a scaled-down storm end to end: every client
// must complete the reliable connect/ack exchange exactly once.
func TestAdmissionStormSmall(t *testing.T) {
	cfg := stormConfig{Shards: 4, Clients: 2000, Ramp: 500 * time.Millisecond, Seed: 7}
	r := runAdmissionStorm(cfg)
	if err := r.check(); err != nil {
		t.Fatal(err)
	}
	// connect + ack are reliable (always delivered); two unreliable
	// follow-ups per client mostly survive the 0.2% loss.
	if r.PacketsDelivered < 3*cfg.Clients {
		t.Fatalf("delivered %d packets for %d clients; storm traffic missing", r.PacketsDelivered, cfg.Clients)
	}
	replay := runAdmissionStorm(cfg)
	if replay.Digest != r.Digest {
		t.Fatalf("storm replay digest %x != %x", replay.Digest, r.Digest)
	}
}
