package main

import (
	"runtime"
	"time"

	"peerwindow/internal/des"
	"peerwindow/internal/metrics"
	"peerwindow/internal/sim"
)

// millionParams sizes the million-churn workload.
type millionParams struct {
	n          int
	shards     int
	workers    int
	warm       des.Time // one unmeasured Run after the build
	perSec     des.Time // measured virtual time per --seconds
	chunk      des.Time // virtual time per ShardedScaled.Run call
	auditEvery des.Time // virtual time between ErrorRates instants
	sample     int      // nodes sampled per instant
	setups     int      // builds timed for setup_s (the last one runs)
}

func millionParamsFor(small bool) millionParams {
	if small {
		return millionParams{n: 50000, shards: 2, workers: 2, warm: 10 * des.Minute, perSec: 2 * des.Minute,
			chunk: des.Minute, auditEvery: 2 * des.Minute, sample: 1000, setups: 2}
	}
	return millionParams{n: 1000000, shards: 2, workers: 2, warm: 30 * des.Minute, perSec: 6 * des.Minute,
		chunk: des.Minute, auditEvery: 6 * des.Minute, sample: 1000, setups: 3}
}

// runMillionChurn is pwsim -experiment million: sim.ShardedScaled at N
// = 1,000,000 and Lifetime_Rate 1, two shards on two workers, measured
// the way sim.RunCommonSharded measures (error rates sampled at evenly
// spaced instants, bandwidth since ResetTraffic). The same seed is then
// replayed on one shard to check the end-state digest.
func runMillionChurn(o opts) *outcome {
	p := millionParamsFor(o.small)
	out := newOutcome()
	var heap heapPeak
	cfg := sim.DefaultShardedScaledConfig(p.n, o.seed, p.shards)
	cfg.Workers = p.workers
	cfg.Workload.LifetimeRate = 1

	var s *sim.ShardedScaled
	var setup []float64
	for i := 0; i < p.setups; i++ {
		s = nil
		runtime.GC()
		sp := o.tr.begin(0, "sim", "NewShardedScaled")
		t0 := time.Now()
		s = sim.NewShardedScaled(cfg)
		setup = append(setup, time.Since(t0).Seconds())
		o.tr.end(sp, int64(p.n))
	}
	heap.sample()

	instants := int((des.Time(o.seconds)*p.perSec + p.auditEvery - 1) / p.auditEvery)
	measured := des.Time(instants) * p.auditEvery
	var chunks samples
	var ev0 uint64
	var d procDelta
	var phase int64
	errAggs := driveMillion(s, p, instants, o.tr, &chunks, &d, &heap, func() int64 {
		ev0 = s.EventsExecuted()
		phase = o.tr.begin(0, "bench", "measure")
		return phase
	})
	o.tr.end(phase, int64(s.EventsExecuted()-ev0))

	events := float64(s.EventsExecuted() - ev0)
	var errAll metrics.Agg
	for _, a := range errAggs {
		errAll.Merge(a)
	}
	levels := s.LevelCounts()
	in, _ := s.Bandwidth()
	var bits, pop float64
	census := 0
	for l, c := range levels {
		census += c
		if l < len(in) {
			bits += in[l].Mean() * float64(c)
		}
		pop += float64(c)
	}
	population := s.Population()
	bytes, nodes := s.MemoryFootprint()
	digest := s.Digest()
	churn := int64(s.Joins + s.Leaves)
	cpuPerEvent := d.cpuMsPerWork()

	out.set("setup_s", median(setup))
	out.set("sim_speed", d.workPerCPU(p.auditEvery.Seconds()))
	out.set("window_error_pct", 100*errAll.Mean())
	out.set("maint_bps", ratio(bits, pop))
	out.set("peak_heap_mb", heap.mb())
	out.set("cpu_ms_per_event", cpuPerEvent)

	out.set("sim.build_ns_per_node", 1e9*median(setup)/float64(p.n))
	out.set("sim.wall_speed", p.auditEvery.Seconds()/d.medianWall())
	out.set("sim.bytes_per_node", float64(bytes)/float64(nodes))
	out.set("des.events", events)
	out.set("des.events_per_vs", events/measured.Seconds())
	out.set("shard.chunk_ms_p50", chunks.quantile(0.5))
	out.set("shard.chunk_ms_p99", chunks.quantile(0.99))
	out.set("shard.cpu_util", d.cpu.Seconds()/(d.wall.Seconds()*float64(p.workers)))
	setRuntimeMetrics(out, &d, events)
	out.set("trace.cpu_ms_per_event", cpuPerEvent)
	setSelfTimes(out, o.tr)

	// Replay the seed on one shard, serially, after releasing the
	// measured simulation.
	s = nil
	runtime.GC()
	one := cfg
	one.Shards, one.Workers = 1, 1
	r := sim.NewShardedScaled(one)
	driveMillion(r, p, instants, nil, nil, nil, nil, func() int64 { return 0 })
	replay := r.Digest()

	out.check("census", census == population, "level census sums to %d, Population() = %d", census, population)
	out.check("digest", digest == replay, "end-state digest %016x with %d shards, %016x with 1", digest, p.shards, replay)
	out.attempted = churn + 2
	if census != population {
		out.failed++
	}
	if digest != replay {
		out.failed++
	}
	return out
}

// driveMillion runs the warm phase, calls startMeasure (which returns
// the parent span of the phase), then runs the measured phase in
// chunk-sized Run calls, sampling error rates every auditEvery. Both the
// measured run and its one-shard replay go through here, so their
// barrier points and state-reading calls (which prune in-flight events)
// are identical. d, when non-nil, meters the phase; heap, when non-nil,
// is sampled after each instant, outside the metered segments.
func driveMillion(s *sim.ShardedScaled, p millionParams, instants int, tr *tracer, chunks *samples,
	d *procDelta, heap *heapPeak, startMeasure func() int64) []metrics.Agg {
	s.Run(p.warm)
	s.ResetTraffic()
	phase := startMeasure()
	var aggs []metrics.Agg
	for i := 0; i < instants; i++ {
		segEvents := s.EventsExecuted()
		if d != nil {
			d.resume()
		}
		for t := des.Time(0); t < p.auditEvery; t += p.chunk {
			sp := tr.begin(phase, "shard", "ShardedScaled.Run")
			ev := s.EventsExecuted()
			t0 := time.Now()
			s.Run(p.chunk)
			if chunks != nil {
				chunks.add(float64(time.Since(t0)) / 1e6)
			}
			tr.end(sp, int64(s.EventsExecuted()-ev))
		}
		sp := tr.begin(phase, "sim", "ErrorRates")
		inst := s.ErrorRates(p.sample)
		tr.end(sp, int64(p.sample))
		if d != nil {
			d.pause(float64(s.EventsExecuted() - segEvents))
		}
		if heap != nil {
			heap.sample()
		}
		if aggs == nil {
			aggs = make([]metrics.Agg, len(inst))
		}
		for l := range inst {
			aggs[l].Merge(inst[l])
		}
	}
	return aggs
}
