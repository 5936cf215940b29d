package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"peerwindow/internal/core"
	"peerwindow/internal/des"
	"peerwindow/internal/metrics"
	"peerwindow/internal/nodeid"
	"peerwindow/internal/query"
	"peerwindow/internal/telemetry"
	"peerwindow/internal/udptransport"
	"peerwindow/internal/wire"
	"peerwindow/internal/xrand"
)

// liveParams sizes the live-udp workload.
type liveParams struct {
	nodes       int
	rate        float64       // info changes per second, open loop
	leaveEvery  time.Duration // one departure (Leave) and one fresh join per period
	deadline    time.Duration // a change must reach every member within this
	setups      int           // overlay builds timed for setup_s (the last one runs)
	flushEvery  time.Duration // telemetry flush cadence (pwnode's default)
	settle      time.Duration // longest wait for convergence after the phase
	detectLimit time.Duration // longest wait for every window to drop a departed node
	joinGrace   time.Duration // a fresh node originates changes only this long after its departure slot (two churn periods)
}

func liveParamsFor(small bool) liveParams {
	p := liveParams{nodes: 48, rate: 100, leaveEvery: 2 * time.Second, deadline: 2 * time.Second, setups: 3,
		flushEvery: 2 * time.Second, settle: 10 * time.Second,
		detectLimit: 5 * time.Second, joinGrace: 4 * time.Second}
	if small {
		p.nodes, p.rate, p.leaveEvery, p.setups, p.flushEvery = 8, 20, time.Second, 1, 500*time.Millisecond
		p.joinGrace = 2 * time.Second
	}
	return p
}

// liveConfig is the protocol configuration of the udptransport tests:
// the paper's timers scaled down so a loopback overlay converges in
// seconds while every ratio stays intact.
func liveConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.ProbeInterval = 400 * des.Millisecond
	cfg.ProbeTimeout = 120 * des.Millisecond
	cfg.AckTimeout = 120 * des.Millisecond
	cfg.ForwardDelay = 10 * des.Millisecond
	cfg.ShiftCheckInterval = 1 * des.Second
	cfg.MeterWindow = 2 * des.Second
	cfg.RefreshEnabled = false
	cfg.ReconcileDelay = 500 * des.Millisecond
	return cfg
}

// liveBudget keeps every node at level 0, so every window is the whole
// overlay and the final audit can demand exact equality.
const liveBudget = 1e9

// liveRun is the shared state of one live-udp run. Times are
// nanoseconds since base.
type liveRun struct {
	p    liveParams
	base time.Time
	tr   *tracer

	slots []atomic.Pointer[liveNode]
	alive sync.Map // nodeid.ID -> *liveNode: joined and not departed

	changes   int
	joins     samples // Join call, ms
	setInfo   samples // SetInfo call, µs
	flushes   samples // Exporter.Flush, µs
	ingests   samples // Collector.Ingest, µs
	frameSize samples // bytes

	falseLeaves atomic.Int64 // counted on the nodes' protocol paths

	// Written by one phase goroutine each, read after the phase.
	joinFails  int64         // churn joins that returned an error
	lingering  int64         // departures some window still held after detectLimit
	lateMax    time.Duration // how late the generator ran at worst
	badOrigins int64         // changes whose origin had not joined even detectLimit after they were due

	collector *telemetry.Collector
}

// winChange is one entry added to or removed from a node's window, as
// its query store reported it.
type winChange struct {
	at  int64
	id  nodeid.ID
	add bool
}

// liveNode is one overlay member and the benchmark's instruments on it.
type liveNode struct {
	slot int
	n    *udptransport.Node
	id   nodeid.ID
	addr wire.Addr
	sub  *query.Sub
	exp  *telemetry.Exporter
	// frames holds what the exporter pushed in the current flush, until
	// the flusher ingests it.
	frames [][]byte

	seen   []atomic.Int64 // change index -> when this node's store first showed it
	joined atomic.Int64   // when Join returned; 0 until then
	left   atomic.Int64   // when it left; 0 while alive
	wmu    sync.Mutex
	wlog   []winChange // every add and remove its store reported, in order

	// Counters at the start of the measured phase (zero for fresh
	// nodes) and at its departure or the end of the phase.
	base, final             metrics.Snapshot
	baseSent, finalSent     uint64
	baseDeltas, finalDeltas uint64
	stopDrain, drainDone    chan struct{}
}

func (r *liveRun) now() int64 { return int64(time.Since(r.base)) }

// changeInfo is the attached info of change k: fixed width, so every
// change costs the same bytes on the wire.
func changeInfo(k int) []byte { return []byte(fmt.Sprintf("c%07d", k)) }

func parseChange(s string) (int, bool) {
	if len(s) != 8 || s[0] != 'c' {
		return 0, false
	}
	k := 0
	for i := 1; i < 8; i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		k = 10*k + int(c-'0')
	}
	return k, true
}

// listen starts a node with its delta subscription and exporter; the
// subscription exists before the node joins, so it sees every window
// mutation the node ever makes.
func (r *liveRun) listen(slot int, name string) *liveNode {
	// Listen binds a TCP sidecar to the port number the kernel picked for
	// the UDP socket, which fails when another TCP socket on the host
	// holds that number; a new attempt gets a new port.
	var n *udptransport.Node
	var err error
	for attempt := 0; attempt < 10; attempt++ {
		if n, err = udptransport.Listen("127.0.0.1:0", name, liveBudget, liveConfig()); err == nil {
			break
		}
	}
	if err != nil {
		fail(fmt.Sprintf("live-udp: %v", err))
	}
	self := n.Self()
	ln := &liveNode{slot: slot, n: n, id: self.ID, addr: self.Addr, seen: make([]atomic.Int64, r.changes),
		stopDrain: make(chan struct{}), drainDone: make(chan struct{})}
	// The filter runs on the node's protocol path: it logs window
	// changes, timestamps the first appearance of each info change and
	// counts removals of live members (false leaves), then lets the
	// delta through to the drain.
	ln.sub = n.Query().Subscribe(0, func(d query.Delta) bool {
		if d.Kind != query.DeltaUpdate {
			ln.wmu.Lock()
			ln.wlog = append(ln.wlog, winChange{at: r.now(), id: d.Entry.ID, add: d.Kind == query.DeltaAdd})
			ln.wmu.Unlock()
		}
		switch d.Kind {
		case query.DeltaAdd, query.DeltaUpdate:
			if k, ok := parseChange(d.Entry.Info()); ok && k < len(ln.seen) {
				ln.seen[k].CompareAndSwap(0, r.now())
			}
		case query.DeltaRemove:
			if _, ok := r.alive.Load(d.Entry.ID); ok {
				r.falseLeaves.Add(1)
			}
		}
		return true
	})
	ln.exp = telemetry.NewExporter(telemetry.ExporterConfig{Node: self.Addr, Name: name, ID: self.ID},
		telemetry.SinkFunc(func(b []byte) error {
			ln.frames = append(ln.frames, append([]byte(nil), b...))
			return nil
		}))
	go func() {
		defer close(ln.drainDone)
		for {
			select {
			case <-ln.sub.C():
			case <-ln.stopDrain:
				return
			}
		}
	}()
	return ln
}

// join runs one timed Join against boot.
func (r *liveRun) join(ln *liveNode, boot wire.Pointer, parent int64) error {
	sp := r.tr.begin(parent, "udp", "Join")
	t0 := time.Now()
	err := ln.n.Join(boot, 10*time.Second)
	r.joins.add(float64(time.Since(t0)) / 1e6)
	r.tr.end(sp, 1)
	if err != nil {
		return err
	}
	ln.joined.Store(r.now())
	r.alive.Store(ln.id, ln)
	return nil
}

// record reads the node's counters for the phase totals.
func (ln *liveNode) record() (metrics.Snapshot, uint64, uint64) {
	sent, _ := ln.n.Counters()
	return ln.n.MetricsSnapshot(), sent, ln.sub.Delivered()
}

// depart makes a node leave politely (Leave, then Close), after
// recording its final counters.
func (r *liveRun) depart(ln *liveNode) {
	ln.final, ln.finalSent, ln.finalDeltas = ln.record()
	r.alive.Delete(ln.id)
	ln.left.Store(r.now())
	ln.n.Leave()
}

func (ln *liveNode) shutdown() {
	ln.n.Close()
	ln.sub.Close()
	close(ln.stopDrain)
	<-ln.drainDone
}

// members returns the joined nodes that have not left.
func (r *liveRun) members() []*liveNode {
	var out []*liveNode
	for i := range r.slots {
		if ln := r.slots[i].Load(); ln != nil && ln.joined.Load() != 0 && ln.left.Load() == 0 {
			out = append(out, ln)
		}
	}
	return out
}

// buildOverlay listens and joins p.nodes nodes one at a time, each
// through a seed-chosen earlier node, and returns once every window holds
// every other node. Each join starts only when every window is complete:
// a node whose peer-list download overlaps another join's dissemination
// can miss that joiner for good (the workload's live config, like the
// udptransport tests', runs without refresh).
func (r *liveRun) buildOverlay(rng *xrand.Source, round int) {
	sp := r.tr.begin(0, "bench", "buildOverlay")
	for i := 0; i < r.p.nodes; i++ {
		ln := r.listen(i, fmt.Sprintf("pb-%d-%d", round, i))
		r.slots[i].Store(ln)
		if i == 0 {
			ln.n.Bootstrap()
			ln.joined.Store(r.now())
			r.alive.Store(ln.id, ln)
			continue
		}
		boot := r.slots[rng.Intn(i)].Load()
		if err := r.join(ln, boot.n.Self(), sp); err != nil {
			fail(fmt.Sprintf("live-udp: setup join %d: %v", i, err))
		}
		complete := r.poll(30*time.Second, func() bool {
			for j := 0; j <= i; j++ {
				if r.slots[j].Load().n.Query().View().Len() != i {
					return false
				}
			}
			return true
		})
		if !complete {
			fail(fmt.Sprintf("live-udp: setup join %d: windows incomplete after 30s", i))
		}
	}
	r.tr.end(sp, int64(r.p.nodes))
}

// poll reports whether cond came to hold within limit.
func (r *liveRun) poll(limit time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// livePlan is the seed-generated schedule of the measured phase.
type livePlan struct {
	changes []liveChange
	churn   []liveChurn
}

type liveChange struct {
	at   time.Duration
	slot int
}

type liveChurn struct {
	at     time.Duration
	victim int
	boot   int
	slot   int // the fresh node's slot
}

// makeLivePlan schedules changes at a fixed rate from nodes that have
// joined (fresh nodes: joinGrace after the departure they replace) and
// stay until the change's deadline, and one departure plus one fresh
// join every leaveEvery.
func makeLivePlan(p liveParams, seconds int, rng *xrand.Source) livePlan {
	phase := time.Duration(seconds) * time.Second
	var plan livePlan
	leaveAt := make(map[int]time.Duration) // slot -> departure time
	joinAt := make(map[int]time.Duration)  // slot -> planned join time (fresh nodes)
	alive := make([]int, p.nodes)
	for i := range alive {
		alive[i] = i
	}
	next := p.nodes
	for at := p.leaveEvery; at < phase; at += p.leaveEvery {
		vi := rng.Intn(len(alive))
		victim := alive[vi]
		alive = append(alive[:vi], alive[vi+1:]...)
		op := liveChurn{at: at, victim: victim, boot: alive[rng.Intn(len(alive))], slot: next}
		plan.churn = append(plan.churn, op)
		leaveAt[victim] = at
		joinAt[next] = at
		alive = append(alive, next)
		next++
	}
	n := int(p.rate * phase.Seconds())
	for k := 0; k < n; k++ {
		at := time.Duration(float64(k) / p.rate * float64(time.Second))
		var eligible []int
		for s := 0; s < next; s++ {
			if j, fresh := joinAt[s]; fresh && j+p.joinGrace > at {
				continue
			}
			if c, dies := leaveAt[s]; dies && c <= at+p.deadline {
				continue
			}
			eligible = append(eligible, s)
		}
		plan.changes = append(plan.changes, liveChange{at: at, slot: eligible[rng.Intn(len(eligible))]})
	}
	return plan
}

// runLiveUDP drives a loopback overlay of udptransport nodes: an open
// loop of SetInfo changes at a fixed rate, a departure and a fresh join
// every few seconds, window error taken from each node's query store, and
// a telemetry exporter per node flushed into one collector.
func runLiveUDP(o opts) *outcome {
	p := liveParamsFor(o.small)
	out := newOutcome()
	var heap heapPeak
	root := xrand.New(o.seed)
	plan := makeLivePlan(p, o.seconds, root.Split(1))
	r := &liveRun{p: p, base: time.Now(), tr: o.tr, changes: len(plan.changes),
		slots: make([]atomic.Pointer[liveNode], p.nodes+len(plan.churn))}
	r.collector = telemetry.NewCollector(telemetry.CollectorConfig{
		Clock: func() des.Time { return des.Time(r.now()) },
	})

	var setup []float64
	for round := 0; round < p.setups; round++ {
		if round > 0 {
			for i := 0; i < p.nodes; i++ {
				ln := r.slots[i].Load()
				r.alive.Delete(ln.id)
				ln.shutdown()
			}
			runtime.GC()
		}
		t0 := time.Now()
		r.buildOverlay(root.Split(uint64(100+round)), round)
		setup = append(setup, time.Since(t0).Seconds())
	}
	for i := 0; i < p.nodes; i++ {
		ln := r.slots[i].Load()
		ln.base, ln.baseSent, ln.baseDeltas = ln.record()
	}
	heap.sample()

	start, t0 := time.Now(), r.now()
	length := time.Duration(o.seconds) * time.Second
	d := r.measure(plan, start, length)
	tot := r.phaseTotals(t0)
	windowErr := r.windowErrors(t0, t0+int64(length))

	// Let the last changes reach everyone, then demand exact windows.
	time.Sleep(p.deadline)
	heap.sample()
	converged, detail := r.settle()
	prop, failedChanges, firstMiss := r.propagation(plan, start)
	var framesLost uint64
	var dropped int64
	for i := range r.slots {
		if ln := r.slots[i].Load(); ln != nil {
			framesLost += ln.exp.Stats().FramesDropped
			if _, missing, _, _, ok := r.collector.NodeStats(ln.addr); ok {
				framesLost += missing
			}
			dropped += int64(ln.sub.Dropped())
			ln.shutdown()
		}
	}

	changes := float64(len(plan.changes))
	cpuMs := float64(d.cpu) / 1e6
	delta := tot.delta
	garbage := delta.Counters[metrics.MetricNetGarbage]
	recvBits := 8 * float64(delta.Counters[metrics.MetricNetRecvBytes])
	failPct := 100 * float64(failedChanges) / changes

	out.set("setup_s", median(setup))
	out.set("sim_speed", d.wallPerCPU())
	out.set("window_error_pct", 100*median(windowErr))
	out.set("maint_bps", recvBits/tot.nodeSeconds)
	out.set("peak_heap_mb", heap.mb())
	out.set("cpu_ms_per_event", d.cpuMsPerWork())

	out.set("propagate_p50_ms", quantile(prop, 0.5))
	out.set("propagate_p99_ms", quantile(prop, 0.99))
	out.set("propagate_fail_pct", failPct)
	setCoreMetrics(out, delta, float64(delta.Counters[metrics.MetricNetSendPrefix+wire.MsgEvent.String()]))
	out.set("core.false_leaves", float64(r.falseLeaves.Load()))
	out.set("core.join_fail", float64(r.joinFails))
	var msgs, bytes float64
	for t := wire.MsgEvent; t <= wire.MsgTopListResp; t++ {
		c := float64(delta.Counters[metrics.MetricNetSendPrefix+t.String()])
		out.set("wire.msgs."+t.String(), c)
		msgs += c
	}
	bytes = float64(delta.Counters[metrics.MetricNetSendBytes])
	out.set("wire.bits_per_msg", ratio(8*bytes, msgs))
	out.set("udp.datagrams_per_event", float64(tot.datagrams)/changes)
	out.set("udp.cpu_us_per_datagram", ratio(1000*cpuMs, float64(tot.datagrams)))
	out.set("udp.setinfo_us_p50", r.setInfo.quantile(0.5))
	out.set("udp.setinfo_us_p99", r.setInfo.quantile(0.99))
	out.set("udp.join_ms_p50", r.joins.quantile(0.5))
	out.set("udp.join_ms_p90", r.joins.quantile(0.9))
	out.set("udp.garbage", float64(garbage))
	out.set("query.deltas_per_event", float64(tot.deltas)/changes)
	out.set("query.subs_dropped", float64(dropped))
	out.set("telemetry.flush_us_p50", r.flushes.quantile(0.5))
	out.set("telemetry.flush_us_p99", r.flushes.quantile(0.99))
	out.set("telemetry.ingest_us_p50", r.ingests.quantile(0.5))
	out.set("telemetry.bytes_per_frame", r.frameSize.quantile(0.5))
	out.set("telemetry.frames_lost", float64(framesLost))
	out.set("gen.late_ms_max", float64(r.lateMax)/1e6)
	setRuntimeMetrics(out, &d, changes)
	out.set("trace.cpu_ms_per_event", d.cpuMsPerWork())
	setSelfTimes(out, o.tr)

	out.check("windows", converged, "%s", detail)
	out.check("garbage", garbage == 0, "%d garbage datagrams", garbage)
	out.check("subs_dropped", dropped == 0, "%d subscription deltas dropped", dropped)
	out.check("frames_lost", framesLost == 0, "%d telemetry frames lost", framesLost)
	out.check("joins", r.joinFails == 0, "%d of %d churn joins failed", r.joinFails, len(plan.churn))
	// A change some member misses is the protocol's best-effort loss,
	// not a failed operation: a node acks an event on receipt and
	// forwards it ForwardDelay later (§4.2), and Leave stops it, so a
	// departure in between cuts the tree below it; and a change due just
	// after a join can precede the join's dissemination.
	// propagate_fail_pct measures it.
	out.note("%d changes missed the %v deadline at some member%s", failedChanges, p.deadline, firstMiss)
	// Failed operations that leave the output correct.
	out.note("%d changes were due at a node that had not joined %v later", r.badOrigins, p.detectLimit)
	out.note("%d of %d departures were still in some window after %v", r.lingering, len(plan.churn), p.detectLimit)
	out.attempted = int64(len(plan.changes) + 2*len(plan.churn))
	out.failed = r.joinFails + r.badOrigins + r.lingering +
		int64(garbage) + int64(framesLost) + dropped
	if !converged {
		out.failed++
	}
	return out
}

// measure runs the measured phase from start for length: the change
// generator, the churn and the telemetry flusher, each on its own
// goroutine. It returns the process counters over the phase, in
// segments of one churn period (each holds one departure and one join).
func (r *liveRun) measure(plan livePlan, start time.Time, length time.Duration) procDelta {
	var d procDelta
	d.resume()
	phase := r.tr.begin(0, "bench", "measure")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(3)
	go func() { defer wg.Done(); r.generate(plan, start, phase) }()
	go func() { defer wg.Done(); r.churn(plan, start, phase) }()
	go func() { defer wg.Done(); r.every(r.p.flushEvery, stop, func() { r.flush(phase) }) }()
	due := 0 // changes due before the current segment
	for end := r.p.leaveEvery; ; end += r.p.leaveEvery {
		if end > length {
			end = length
		}
		time.Sleep(time.Until(start.Add(end)))
		n := due
		for n < len(plan.changes) && plan.changes[n].at < end {
			n++
		}
		if end == length {
			close(stop)
			wg.Wait()
			d.pause(float64(n - due))
			break
		}
		d.pause(float64(n - due))
		d.resume()
		due = n
	}
	r.tr.end(phase, int64(len(plan.changes)))
	return d
}

// every calls fn every period until stop is closed.
func (r *liveRun) every(period time.Duration, stop <-chan struct{}, fn func()) {
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			fn()
		case <-stop:
			return
		}
	}
}

// liveTotals sums every node's counters over the measured phase.
type liveTotals struct {
	delta       metrics.Snapshot
	datagrams   uint64  // sent
	deltas      uint64  // query deltas delivered to the subscriptions
	nodeSeconds float64 // membership time inside the phase
}

// phaseTotals takes every node's counters now (or at its departure) minus
// its counters at the phase start, t0 (zero for fresh nodes).
func (r *liveRun) phaseTotals(t0 int64) liveTotals {
	var tot liveTotals
	t1 := r.now()
	for i := range r.slots {
		ln := r.slots[i].Load()
		if ln == nil {
			continue
		}
		if ln.left.Load() == 0 {
			ln.final, ln.finalSent, ln.finalDeltas = ln.record()
		}
		dd, _ := ln.final.Diff(ln.base)
		tot.delta.Merge(dd)
		tot.datagrams += ln.finalSent - ln.baseSent
		tot.deltas += ln.finalDeltas - ln.baseDeltas
		from, to := max(ln.joined.Load(), t0), t1
		if c := ln.left.Load(); c != 0 {
			to = c
		}
		if ln.joined.Load() != 0 && to > from {
			tot.nodeSeconds += float64(to-from) / 1e9
		}
	}
	return tot
}

// generate is the open-loop change generator: change k is due at
// start + k/rate whatever happened to change k-1. A fresh origin has
// normally joined long before its first change; if the departure
// before its join took long to clear, the generator waits for the join
// (at most detectLimit) and the wait shows in gen.late_ms_max.
func (r *liveRun) generate(plan livePlan, start time.Time, parent int64) {
	for k, c := range plan.changes {
		due := start.Add(c.at)
		time.Sleep(time.Until(due))
		var ln *liveNode
		joined := r.poll(r.p.detectLimit, func() bool {
			ln = r.slots[c.slot].Load()
			return ln != nil && ln.joined.Load() != 0
		})
		if late := time.Since(due); late > r.lateMax {
			r.lateMax = late
		}
		if !joined {
			r.badOrigins++
			continue
		}
		sp := r.tr.begin(parent, "udp", "SetInfo")
		t0 := time.Now()
		ln.n.SetInfo(changeInfo(k))
		r.setInfo.add(float64(time.Since(t0)) / 1e3)
		r.tr.end(sp, 1)
	}
}

// churn makes one node leave every leaveEvery and, once every window has
// dropped it, joins a fresh node: one membership change at a time, as in
// setup. Departures are polite. With crashes (Close) the leave that ring
// probing reports carries the detector's sequence number for the node (1
// when it learned the node from a peer-list download); a member that had
// already dropped the node after failed sends to it takes that leave for
// a duplicate and does not forward it, and the members below it in the
// tree kept the dead pointer. That happened in a few runs in a hundred,
// at random, so two sets of runs could not agree on it. full-churn
// measures crash departures.
func (r *liveRun) churn(plan livePlan, start time.Time, parent int64) {
	for _, op := range plan.churn {
		time.Sleep(time.Until(start.Add(op.at)))
		victim := r.slots[op.victim].Load()
		r.depart(victim)
		if !r.poll(r.p.detectLimit, func() bool { return r.forgotten(victim.id) }) {
			r.lingering++
		}
		ln := r.listen(op.slot, fmt.Sprintf("pb-fresh-%d", op.slot))
		r.slots[op.slot].Store(ln)
		if err := r.join(ln, r.slots[op.boot].Load().n.Self(), parent); err != nil {
			r.joinFails++
		}
	}
}

// forgotten reports whether no member's window holds id.
func (r *liveRun) forgotten(id nodeid.ID) bool {
	for _, m := range r.members() {
		if _, ok := m.n.Query().View().Get(id); ok {
			return false
		}
	}
	return true
}

// windowErrors integrates every member's window error over [t0, t1)
// from the window changes its query store reported, and returns the
// error rate of each churn period: integrated error over integrated
// size of the live set the window should hold. A member's error at an
// instant is the paper's absent + stale: live members other than itself
// its window lacks, plus entries for nodes that are not live. A node is
// live from the return of its Join until it leaves. Integrating, not
// sampling, matters here: a polite departure or a join leaves windows
// wrong for some tens of milliseconds only.
func (r *liveRun) windowErrors(t0, t1 int64) []float64 {
	period := int64(r.p.leaveEvery)
	errs := make([]float64, (t1-t0+period-1)/period)
	should := make([]float64, len(errs))
	// integrate adds count over [a, b) to the periods it overlaps.
	integrate := func(acc []float64, a, b int64, count int) {
		for a < b {
			k := (a - t0) / period
			end := min(b, t0+(k+1)*period)
			acc[k] += float64(count) * float64(end-a)
			a = end
		}
	}
	// A change is a window change of the member under study (window) or
	// a membership change of the overlay; in says added or joined.
	type change struct {
		at         int64
		id         nodeid.ID
		window, in bool
	}
	var nodes []*liveNode
	var membership []change
	for i := range r.slots {
		if ln := r.slots[i].Load(); ln != nil && ln.joined.Load() != 0 {
			nodes = append(nodes, ln)
			membership = append(membership, change{at: ln.joined.Load(), id: ln.id, in: true})
			if at := ln.left.Load(); at != 0 {
				membership = append(membership, change{at: at, id: ln.id})
			}
		}
	}
	for _, ln := range nodes {
		from, to := max(ln.joined.Load(), t0), t1
		if at := ln.left.Load(); at != 0 {
			to = min(to, at)
		}
		changes := append([]change(nil), membership...)
		ln.wmu.Lock()
		for _, w := range ln.wlog {
			changes = append(changes, change{at: w.at, id: w.id, window: true, in: w.add})
		}
		ln.wmu.Unlock()
		sort.SliceStable(changes, func(i, j int) bool { return changes[i].at < changes[j].at })
		held := make(map[nodeid.ID]bool)
		live := make(map[nodeid.ID]bool)
		wrong, others := 0, 0 // ids held xor live; live members other than ln
		last := from
		for _, c := range changes {
			if a, b := max(last, from), min(c.at, to); a < b {
				integrate(errs, a, b, wrong)
				integrate(should, a, b, others)
			}
			last = c.at
			if c.id == ln.id {
				continue
			}
			if held[c.id] != live[c.id] {
				wrong--
			}
			if c.window {
				held[c.id] = c.in
			} else {
				live[c.id] = c.in
				if c.in {
					others++
				} else {
					others--
				}
			}
			if held[c.id] != live[c.id] {
				wrong++
			}
		}
		if a := max(last, from); a < to {
			integrate(errs, a, to, wrong)
			integrate(should, a, to, others)
		}
	}
	rates := make([]float64, 0, len(errs))
	for k := range errs {
		if should[k] > 0 {
			rates = append(rates, errs[k]/should[k])
		}
	}
	return rates
}

// flush pushes every member's metrics through its exporter, then ingests
// the frames into the collector.
func (r *liveRun) flush(parent int64) {
	for _, ln := range r.members() {
		snap := ln.n.MetricsSnapshot()
		beacon := telemetry.Beacon{Level: ln.n.Level(), Window: ln.n.Query().View().Len()}
		sp := r.tr.begin(parent, "telemetry", "Flush")
		t0 := time.Now()
		ln.exp.Flush(ln.n.Now(), snap, beacon) // the sink never refuses; losses show in Stats
		r.flushes.add(float64(time.Since(t0)) / 1e3)
		r.tr.end(sp, int64(len(ln.frames)))
		for _, b := range ln.frames {
			sp := r.tr.begin(parent, "telemetry", "Ingest")
			t0 := time.Now()
			err := r.collector.Ingest(b)
			r.ingests.add(float64(time.Since(t0)) / 1e3)
			r.tr.end(sp, int64(len(b)))
			r.frameSize.add(float64(len(b)))
			if err != nil {
				fail(fmt.Sprintf("live-udp: collector rejected a frame: %v", err))
			}
		}
		ln.frames = ln.frames[:0]
	}
}

// settle waits until every member's window — its peer list, mirrored by
// its query store — holds exactly the other members. Whether each
// member also shows every change is the propagation measurement's
// business.
func (r *liveRun) settle() (bool, string) {
	deadline := time.Now().Add(r.p.settle)
	for {
		ok, detail := r.exact()
		if ok || time.Now().After(deadline) {
			return ok, detail
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (r *liveRun) exact() (bool, string) {
	members := r.members()
	live := make(map[nodeid.ID]bool, len(members))
	for _, m := range members {
		live[m.id] = true
	}
	for _, ln := range members {
		ptrs := ln.n.Pointers()
		for _, p := range ptrs {
			if !live[p.ID] || p.ID == ln.id {
				return false, fmt.Sprintf("node %d holds a pointer to %s, which is not a member", ln.slot, r.describe(p.ID))
			}
		}
		if len(ptrs) != len(members)-1 {
			return false, fmt.Sprintf("node %d holds %d of the %d other members", ln.slot, len(ptrs), len(members)-1)
		}
		if err := ln.n.Query().CheckAgainst(ptrs); err != nil {
			return false, fmt.Sprintf("node %d query store: %v", ln.slot, err)
		}
	}
	return true, fmt.Sprintf("all %d members hold exactly the live set; every query store mirrors its peer list", len(members))
}

// describe names the node with the given ID and when it joined and
// left, relative to the start of the run.
func (r *liveRun) describe(id nodeid.ID) string {
	for i := range r.slots {
		if ln := r.slots[i].Load(); ln != nil && ln.id == id {
			return fmt.Sprintf("node %d (joined %v, left %v)", ln.slot,
				time.Duration(ln.joined.Load()), time.Duration(ln.left.Load()))
		}
	}
	return "an unknown node"
}

// propagation returns, per change, the time from its due time until the
// last member alive throughout showed it (or a later change of the same
// node), in ms, and the number of changes that missed the deadline at
// some member, with a description of the first miss. A missed change is
// reported at the deadline.
func (r *liveRun) propagation(plan livePlan, start time.Time) ([]float64, int, string) {
	startNs := int64(start.Sub(r.base))
	deadline := int64(r.p.deadline)
	bySlot := make(map[int][]int)
	for k, c := range plan.changes {
		bySlot[c.slot] = append(bySlot[c.slot], k)
	}
	var nodes []*liveNode
	for i := range r.slots {
		if ln := r.slots[i].Load(); ln != nil {
			nodes = append(nodes, ln)
		}
	}
	lat := make([]float64, 0, len(plan.changes))
	failed := 0
	firstMiss := ""
	for k, c := range plan.changes {
		due := startNs + int64(c.at)
		later := bySlot[c.slot]
		for later[0] != k {
			later = later[1:]
		}
		worst := int64(0)
		missed := false
		for _, ln := range nodes {
			j := ln.joined.Load()
			if ln.slot == c.slot || j == 0 || j > due {
				continue
			}
			if x := ln.left.Load(); x != 0 && x <= due+deadline {
				continue
			}
			seen := int64(0)
			for _, k2 := range later {
				if t := ln.seen[k2].Load(); t != 0 && (seen == 0 || t < seen) {
					seen = t
				}
			}
			if seen == 0 || seen-due > deadline {
				missed = true
				if firstMiss == "" {
					when := "never"
					if seen != 0 {
						when = "after " + time.Duration(seen-due).String()
					}
					firstMiss = fmt.Sprintf("; first: change %d of node %d, at node %d (joined %v before the change) %s",
						k, c.slot, ln.slot, time.Duration(due-j), when)
				}
				break
			}
			if seen-due > worst {
				worst = seen - due
			}
		}
		if missed {
			failed++
			worst = deadline
		}
		lat = append(lat, float64(worst)/1e6)
	}
	return lat, failed, firstMiss
}
