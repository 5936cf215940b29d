package sim

import (
	"testing"

	"peerwindow/internal/des"
	"peerwindow/internal/workload"
)

// The sharded scaled simulator must replay bit-identically for every
// shard and worker count: digests over the complete node state, the
// figure-5 level shares, and the figure-9-style metrics all have to
// match shards=1 exactly.
func TestShardedScaledShardCountInvariance(t *testing.T) {
	type snap struct {
		build  uint64 // buildDigest right after construction
		digest uint64
		pop    int
		events uint64
		levels []int
	}
	run := func(shards, workers int) snap {
		cfg := DefaultShardedScaledConfig(3000, 1234, shards)
		cfg.Workers = workers
		s := NewShardedScaled(cfg)
		build := buildDigest(s)
		s.Run(45 * des.Minute)
		return snap{build, s.Digest(), s.Population(), s.EventsExecuted(), s.LevelCounts()}
	}
	base := run(1, 1)
	if base.pop == 0 || base.events == 0 {
		t.Fatalf("baseline run did nothing: %+v", base)
	}
	for _, tc := range []struct{ shards, workers int }{
		{2, 1}, {2, 2}, {8, 1}, {8, 3}, {8, 4}, {256, 3}, {256, 8},
	} {
		got := run(tc.shards, tc.workers)
		if got.build != base.build {
			t.Errorf("shards=%d workers=%d: build digest %x != baseline %x",
				tc.shards, tc.workers, got.build, base.build)
		}
		if got.digest != base.digest {
			t.Errorf("shards=%d workers=%d: digest %x != baseline %x",
				tc.shards, tc.workers, got.digest, base.digest)
		}
		if got.pop != base.pop || got.events != base.events {
			t.Errorf("shards=%d workers=%d: pop/events %d/%d != baseline %d/%d",
				tc.shards, tc.workers, got.pop, got.events, base.pop, base.events)
		}
		if len(got.levels) != len(base.levels) {
			t.Errorf("shards=%d: level counts %v != %v", tc.shards, got.levels, base.levels)
			continue
		}
		for l := range got.levels {
			if got.levels[l] != base.levels[l] {
				t.Errorf("shards=%d: level counts %v != %v", tc.shards, got.levels, base.levels)
				break
			}
		}
	}
}

// buildDigest extends Digest with the build state Digest leaves out:
// each slice's death heap in pop order and its RNG position. The
// population build is the one phase spread over workers, so this is
// what worker count could leak into.
func buildDigest(s *ShardedScaled) uint64 {
	h := s.Digest()
	mix := func(v uint64) { h = (h ^ v) * 1099511628211 }
	for _, sl := range s.slices {
		deaths := append(deathHeap(nil), sl.deaths...)
		for len(deaths) > 0 {
			e := deaths.pop()
			mix(uint64(e.at))
			mix(uint64(e.slot))
		}
		rng := *sl.rng
		mix(rng.Uint64())
	}
	return h
}

// The parallel population build must reproduce the serial build it
// replaced: digests of a 200k-node population, right after construction
// and after ten virtual minutes of churn, pinned from the serial
// implementation.
func TestShardedScaledBuildMatchesSerialDigests(t *testing.T) {
	for _, tc := range []struct {
		seed         uint64
		build, after uint64
	}{
		{1, 0x4f14570c83d20555, 0x1357c26bf0f1870e},
		{7, 0xc06b75cdfac68db8, 0x7e192afdb31c54e6},
	} {
		cfg := DefaultShardedScaledConfig(200000, tc.seed, 2)
		cfg.Workers = 2
		cfg.Workload.LifetimeRate = 1
		s := NewShardedScaled(cfg)
		if got := s.Digest(); got != tc.build {
			t.Errorf("seed %d: digest after build %016x, serial build gave %016x", tc.seed, got, tc.build)
		}
		s.Run(10 * des.Minute)
		if got := s.Digest(); got != tc.after {
			t.Errorf("seed %d: digest after 10 min %016x, serial build gave %016x", tc.seed, got, tc.after)
		}
	}
}

// Re-running the same configuration must reproduce the same digest —
// the baseline determinism the shard invariance builds on.
func TestShardedScaledSeedReproducibility(t *testing.T) {
	run := func() uint64 {
		s := NewShardedScaled(DefaultShardedScaledConfig(2000, 99, 4))
		s.Run(20 * des.Minute)
		return s.Digest()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different digests: %x vs %x", a, b)
	}
}

// Different seeds must not collide (a digest that ignores state would
// pass the invariance tests trivially).
func TestShardedScaledDigestSensitivity(t *testing.T) {
	run := func(seed uint64) uint64 {
		s := NewShardedScaled(DefaultShardedScaledConfig(2000, seed, 4))
		s.Run(20 * des.Minute)
		return s.Digest()
	}
	if a, b := run(1), run(2); a == b {
		t.Fatalf("different seeds, same digest %x", a)
	}
}

// The sharded scaled metrics surface must behave like the legacy one:
// population near target, levels populated, error rates finite.
func TestShardedScaledMetricsSane(t *testing.T) {
	cfg := DefaultShardedScaledConfig(5000, 7, 8)
	s := NewShardedScaled(cfg)
	s.Run(30 * des.Minute)
	s.ResetTraffic()
	s.Run(15 * des.Minute)
	pop := s.Population()
	if pop < 4000 || pop > 6000 {
		t.Fatalf("population %d drifted from target 5000", pop)
	}
	total := 0
	for _, c := range s.LevelCounts() {
		total += c
	}
	if total != pop {
		t.Fatalf("level counts sum %d != population %d", total, pop)
	}
	for l, a := range s.ErrorRates(500) {
		if a.N() > 0 && (a.Mean() < 0 || a.Mean() > 1) {
			t.Fatalf("level %d error rate %v out of [0,1]", l, a.Mean())
		}
	}
	in, _ := s.Bandwidth()
	anyTraffic := false
	for _, a := range in {
		if a.N() > 0 && a.Mean() > 0 {
			anyTraffic = true
		}
	}
	if !anyTraffic {
		t.Fatalf("no input bandwidth recorded")
	}
	if bytes, nodes := s.MemoryFootprint(); nodes != pop || bytes == 0 {
		t.Fatalf("MemoryFootprint = %d bytes, %d nodes (pop %d)", bytes, nodes, pop)
	}
}

// The full-fidelity sharded cluster must produce bit-identical protocol
// state (core.Node.AppendDigest) for every shard and worker count: the
// real state machines, real messages, real timers — only the scheduling
// is different.
func TestShardedClusterShardCountInvariance(t *testing.T) {
	run := func(shards, workers int) (uint64, uint64) {
		sc := NewShardedCluster(ShardedClusterConfig{
			Core:    DefaultFullCore(),
			Seed:    4242,
			Shards:  shards,
			Workers: workers,
		})
		sc.WarmStart(200, workload.DefaultConfig(), 2)
		sc.Run(12 * des.Minute)
		return sc.StateDigest(), sc.EventsExecuted()
	}
	baseDigest, baseEvents := run(1, 1)
	if baseEvents == 0 {
		t.Fatalf("baseline run executed no events")
	}
	for _, tc := range []struct{ shards, workers int }{
		{4, 1}, {8, 1}, {8, 4},
	} {
		d, e := run(tc.shards, tc.workers)
		if d != baseDigest {
			t.Errorf("shards=%d workers=%d: state digest %x != baseline %x",
				tc.shards, tc.workers, d, baseDigest)
		}
		if e != baseEvents {
			t.Errorf("shards=%d workers=%d: %d events != baseline %d",
				tc.shards, tc.workers, e, baseEvents)
		}
	}
}

// Cross-shard messages must actually flow (otherwise the invariance
// test proves nothing): with 8 shards, a 200-node warm-started overlay
// probes and reports across prefix boundaries constantly.
func TestShardedClusterCrossShardTraffic(t *testing.T) {
	sc := NewShardedCluster(ShardedClusterConfig{
		Core:   DefaultFullCore(),
		Seed:   4242,
		Shards: 8,
	})
	sc.WarmStart(200, workload.DefaultConfig(), 2)
	sc.Run(12 * des.Minute)
	if sc.MessagesSent() == 0 {
		t.Fatalf("no messages sent")
	}
	crossed := uint64(0)
	for i := range sc.outbox {
		crossed += sc.outbox[i].Drained()
	}
	if crossed == 0 {
		t.Fatalf("no cross-shard messages crossed a barrier")
	}
	t.Logf("messages=%d cross-shard=%d", sc.MessagesSent(), crossed)
}
