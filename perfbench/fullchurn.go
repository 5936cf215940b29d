package main

import (
	"runtime"
	"time"

	"peerwindow/internal/des"
	"peerwindow/internal/metrics"
	"peerwindow/internal/sim"
	"peerwindow/internal/wire"
	"peerwindow/internal/workload"
	"peerwindow/internal/xrand"
)

// fullParams sizes the full-churn workload.
type fullParams struct {
	n          int      // warm-started population of each replica
	replicas   int      // independent clusters per run, seeds split from the run's seed
	warm       des.Time // unmeasured settle time after WarmStart
	perSec     des.Time // measured virtual time per --seconds, over all replicas
	chunk      des.Time // virtual time per Cluster.Run call
	auditEvery des.Time // virtual time between audit instants
	setups     int      // WarmStarts timed per replica for setup_s (the last one runs)
}

func fullParamsFor(small bool) fullParams {
	if small {
		return fullParams{n: 80, replicas: 2, warm: des.Minute, perSec: 6 * des.Second, chunk: 10 * des.Second,
			auditEvery: 30 * des.Second, setups: 2}
	}
	return fullParams{n: 600, replicas: 3, warm: 4 * des.Minute, perSec: 24 * des.Second, chunk: 10 * des.Second,
		auditEvery: 30 * des.Second, setups: 5}
}

// fullErrorCeilingPct is the highest mean window error the full-churn
// run accepts; the seeded runs measure about 4%.
const fullErrorCeilingPct = 10

// fullTotals accumulates the measured phases of the replicas.
type fullTotals struct {
	setup, rates, inBps []float64
	d                   procDelta
	heap                heapPeak
	steps               logHist
	measured            des.Time
	events              uint64
	pendingMax          int
	nodeDelta           metrics.Snapshot
	sent                map[wire.MsgType]uint64
	bits, msgs          uint64
	falseLeaves         uint64
	joins, joinFails    uint64
	unresolved          uint64
	checked, violations int64
	auditTime           time.Duration
}

// runFullChurn is sim.RunCommonFull (pwsim -experiment fullcommon) with
// the benchmark's instruments around it: N warm-started nodes with
// Gnutella profiles under DefaultFullCore, 15-minute mean lifetime, half
// of departures crashes, and window audits at evenly spaced instants.
// Two things differ, both so that one seed's figures land close to
// another's: the run measures three independent populations (replicas)
// instead of one, and audits every 30 virtual seconds instead of at five
// instants.
func runFullChurn(o opts) *outcome {
	p := fullParamsFor(o.small)
	tot := &fullTotals{sent: make(map[wire.MsgType]uint64)}
	root := xrand.New(o.seed)
	instants := int((des.Time(o.seconds)*p.perSec/des.Time(p.replicas) + p.auditEvery - 1) / p.auditEvery)
	for r := 0; r < p.replicas; r++ {
		runFullReplica(o, p, root.Split(uint64(r)).Uint64(), instants, tot)
	}

	out := newOutcome()
	events := float64(tot.events)
	errPct := 100 * mean(tot.rates)
	cpuPerEvent := tot.d.cpuMsPerWork()
	out.set("setup_s", median(tot.setup))
	out.set("sim_speed", tot.d.workPerCPU(p.auditEvery.Seconds()))
	out.set("window_error_pct", errPct)
	out.set("maint_bps", mean(tot.inBps))
	out.set("peak_heap_mb", tot.heap.mb())
	out.set("cpu_ms_per_event", cpuPerEvent)

	out.set("sim.warmstart_ms", 1000*median(tot.setup))
	out.set("sim.wall_speed", p.auditEvery.Seconds()/tot.d.medianWall())
	out.set("des.events", events)
	out.set("des.events_per_vs", events/tot.measured.Seconds())
	out.set("des.step_ns_p50", tot.steps.quantile(0.5))
	out.set("des.step_ns_p99", tot.steps.quantile(0.99))
	out.set("des.pending_max", float64(tot.pendingMax))
	setCoreMetrics(out, tot.nodeDelta, float64(tot.sent[wire.MsgEvent]))
	out.set("core.false_leaves", float64(tot.falseLeaves))
	out.set("core.join_fail", float64(tot.joinFails))
	out.set("wire.bits_per_msg", float64(tot.bits)/float64(tot.msgs))
	for t := wire.MsgEvent; t <= wire.MsgTopListResp; t++ {
		out.set("wire.msgs."+t.String(), float64(tot.sent[t]))
	}
	out.set("oracle.audit_us_per_node", float64(tot.auditTime.Microseconds())/float64(len(tot.rates)))
	setRuntimeMetrics(out, &tot.d, events)
	out.set("trace.cpu_ms_per_event", cpuPerEvent)
	setSelfTimes(out, o.tr)

	out.check("invariants", tot.violations == 0, "%d of %d node checks failed CheckInvariants", tot.violations, tot.checked)
	out.check("joins_resolve", tot.unresolved == 0, "%d of %d churn joins never completed (%d completed with an error)",
		tot.unresolved, tot.joins, tot.joinFails)
	out.check("window_error", errPct < fullErrorCeilingPct, "mean window error %.3f%% (ceiling %d%%)", errPct, fullErrorCeilingPct)
	// A join that completes with an error is a failed operation of the
	// simulated system, not a wrong output; under crash churn a few in a
	// thousand do.
	out.attempted = int64(tot.joins) + tot.checked + 1
	out.failed = int64(tot.joinFails+tot.unresolved) + tot.violations
	if errPct >= fullErrorCeilingPct {
		out.failed++
	}
	return out
}

// fullResolveTime is how long the churn-free tail after each replica's
// measured phase runs, so that every join started in the phase completes
// one way or the other.
const fullResolveTime = 30 * des.Second

// runFullReplica builds, warms and measures one cluster.
func runFullReplica(o opts, p fullParams, seed uint64, instants int, tot *fullTotals) {
	wl := workload.DefaultConfig()
	wl.MeanLifetime = 15 * des.Minute
	var c *sim.Cluster
	for i := 0; i < p.setups; i++ {
		c = nil
		runtime.GC()
		c = sim.NewCluster(sim.ClusterConfig{Core: sim.DefaultFullCore(), Seed: seed})
		sp := o.tr.begin(0, "sim", "WarmStart")
		t0 := time.Now()
		c.WarmStart(p.n, wl, 2)
		tot.setup = append(tot.setup, time.Since(t0).Seconds())
		o.tr.end(sp, int64(p.n))
	}
	tot.heap.sample()
	ch := sim.NewChurn(c, sim.ChurnConfig{Workload: wl, TargetPopulation: p.n, CrashFraction: 0.5})
	ch.Start()
	c.Run(p.warm)

	nodes0 := sumNodeMetrics(c)
	sent0 := copySent(c.SentByType)
	bits0, msgs0, false0 := c.BitsSent, c.MessagesSent, c.FalseLeaves
	joins0, fail0 := ch.JoinsStarted, ch.JoinsFailed
	ev0 := c.Engine.Executed()
	if n := c.Engine.Pending(); n > tot.pendingMax {
		tot.pendingMax = n
	}

	// The phase's process counters cover the chunks and the audits; the
	// invariant checks and heap samples after each audit are output
	// checks, not workload, and are left out.
	phase := o.tr.begin(0, "bench", "measure")
	for i := 0; i < instants; i++ {
		tot.d.resume()
		segEvents := c.Engine.Executed()
		for t := des.Time(0); t < p.auditEvery; t += p.chunk {
			runClusterChunk(c, p.chunk, o.tr, phase, &tot.steps)
			if n := c.Engine.Pending(); n > tot.pendingMax {
				tot.pendingMax = n
			}
		}
		a0 := time.Now()
		sp := o.tr.begin(phase, "oracle", "Audit")
		audited := 0
		for _, sn := range c.Alive() {
			if sn.Node.Joined() {
				tot.rates = append(tot.rates, c.Audit(sn).Rate())
				tot.inBps = append(tot.inBps, sn.Node.InputRate())
				audited++
			}
		}
		o.tr.end(sp, int64(audited))
		tot.auditTime += time.Since(a0)
		tot.d.pause(float64(c.Engine.Executed() - segEvents))

		for _, sn := range c.Alive() {
			if !sn.Node.Joined() {
				continue
			}
			tot.checked++
			sp := o.tr.begin(phase, "core", "CheckInvariants")
			if err := sn.Node.CheckInvariants(); err != nil {
				tot.violations++
			}
			o.tr.end(sp, 1)
		}
		tot.heap.sample()
	}
	o.tr.end(phase, int64(c.Engine.Executed()-ev0))
	tot.measured += des.Time(instants) * p.auditEvery
	tot.events += c.Engine.Executed() - ev0
	d, _ := sumNodeMetrics(c).Diff(nodes0)
	tot.nodeDelta.Merge(d)
	for t, n := range c.SentByType {
		tot.sent[t] += n - sent0[t]
	}
	tot.bits += c.BitsSent - bits0
	tot.msgs += c.MessagesSent - msgs0
	tot.falseLeaves += c.FalseLeaves - false0

	// Stop arrivals and let the joins in flight finish. A live node that
	// is still not joined after that is a join that never completed (a
	// joiner that dies mid-join abandons its join, which is no failure).
	ch.Stop()
	c.Run(fullResolveTime)
	tot.joins += ch.JoinsStarted - joins0
	tot.joinFails += ch.JoinsFailed - fail0
	for _, sn := range c.Alive() {
		if !sn.Node.Joined() {
			tot.unresolved++
		}
	}
}

// runClusterChunk advances the cluster by d. The untraced run calls
// Cluster.Run; the traced run drives Engine.Step itself, times each
// call, and then lets Cluster.Run finish the chunk (clock advance and
// truth sync) — the same event order, so both runs reach the same state.
func runClusterChunk(c *sim.Cluster, d des.Time, tr *tracer, parent int64, steps *logHist) {
	if tr == nil {
		c.Run(d)
		return
	}
	sp := tr.begin(parent, "sim", "Cluster.Run")
	e := c.Engine
	deadline := e.Now() + d
	var n, unretained, unretainedNs int64
	for {
		at, ok := e.NextAt()
		if !ok || at > deadline {
			break
		}
		t0 := time.Now()
		e.Step()
		t1 := time.Now()
		dt := t1.Sub(t0)
		steps.add(uint64(dt))
		// Keep one Engine.Step span in 1024; the rest are counted into
		// the des self time and the chunk's child time.
		if n%1024 == 0 {
			tr.record(sp, "des", "Engine.Step", t0, t1, 1)
		} else {
			unretained++
			unretainedNs += int64(dt)
		}
		n++
	}
	tr.addUnretained(sp, "des", unretained, unretainedNs)
	c.Run(deadline - e.Now())
	tr.end(sp, n)
}

// sumNodeMetrics merges every node's registry, dead nodes included, so a
// difference of two calls counts all protocol work in between.
func sumNodeMetrics(c *sim.Cluster) metrics.Snapshot {
	var s metrics.Snapshot
	for _, sn := range c.Nodes() {
		s.Merge(sn.Node.MetricsSnapshot())
	}
	return s
}

func copySent(m map[wire.MsgType]uint64) map[wire.MsgType]uint64 {
	c := make(map[wire.MsgType]uint64, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}
