package sim

import (
	"runtime"
	"testing"

	"peerwindow/internal/des"
)

// The legacy scaled simulator at the paper's common scale: the
// baseline the sharded struct-of-arrays engine is measured against.
// events/sec is the headline metric (wall time to push the same
// virtual minute of churn at N=100,000).
func BenchmarkScaledEvents100k(b *testing.B) {
	s := NewScaled(DefaultScaledConfig(100000, 1))
	s.Run(10 * des.Minute) // reach the stationary regime first
	before := s.Engine.Executed()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(des.Minute)
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Engine.Executed()-before)/b.Elapsed().Seconds(), "events/sec")
}

// The sharded SoA simulator on the same workload. Run with
// -benchtime=Nx and compare events/sec against BenchmarkScaledEvents100k;
// sub-benchmarks cover shard counts so the conservative-window overhead
// is visible too.
func BenchmarkShardedScaledEvents100k(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(map[int]string{1: "shards1", 8: "shards8"}[shards], func(b *testing.B) {
			s := NewShardedScaled(DefaultShardedScaledConfig(100000, 1, shards))
			s.Run(10 * des.Minute)
			before := s.EventsExecuted()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Run(des.Minute)
			}
			b.StopTimer()
			b.ReportMetric(float64(s.EventsExecuted()-before)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// Million-node churn: the scale target of the SoA overhaul. Reports
// the measured node-state bytes/node next to throughput.
func BenchmarkShardedScaled1M(b *testing.B) {
	s := NewShardedScaled(DefaultShardedScaledConfig(1000000, 1, 8))
	s.Run(5 * des.Minute)
	before := s.EventsExecuted()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(des.Minute)
	}
	b.StopTimer()
	b.ReportMetric(float64(s.EventsExecuted()-before)/b.Elapsed().Seconds(), "events/sec")
	bytes, nodes := s.MemoryFootprint()
	b.ReportMetric(float64(bytes)/float64(nodes), "bytes/node")
}

// Building the million-node population: the go test counterpart of the
// benchmark's sim.build_ns_per_node. The build is parallel over the 256
// identifier-space slices, so workers2 against workers1 shows how much
// of it spreads across cores.
func BenchmarkShardedScaledBuild1M(b *testing.B) {
	const n = 1000000
	for _, workers := range []int{1, 2} {
		b.Run(map[int]string{1: "workers1", 2: "workers2"}[workers], func(b *testing.B) {
			cfg := DefaultShardedScaledConfig(n, 1, 2)
			cfg.Workers = workers
			cfg.Workload.LifetimeRate = 1
			for i := 0; i < b.N; i++ {
				// Collect the previous population outside the timer, as
				// perfbench does before each timed build.
				b.StopTimer()
				runtime.GC()
				b.StartTimer()
				NewShardedScaled(cfg)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/node")
		})
	}
}
