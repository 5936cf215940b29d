package main

import (
	"bufio"
	"encoding/json"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// span is one benchmark call into a layer. Child is the time covered by
// the span's children, including children that were counted but not
// retained (see tracer.addUnretained), so self time is End-Start-Child.
// Count is the work count recorded at the same boundary (events run in
// a chunk, nodes audited, bytes in a frame).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Child  int64  `json:"child_ns"`
	Count  int64  `json:"count,omitempty"`
}

// tracer keeps spans in memory for the traced run and writes them out
// when the run ends. A nil *tracer is the untraced run: every method is
// a no-op, so call sites need no branches.
type tracer struct {
	t0 time.Time

	mu         sync.Mutex
	spans      []span
	selfNs     map[string]int64
	unretained int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), selfNs: make(map[string]int64)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under parent (0 for a root) and returns its ID.
func (t *tracer) begin(parent int64, layer, name string) int64 {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: int64(len(t.spans) + 1), Parent: parent, Layer: layer, Name: name, Start: start,
	})
	return int64(len(t.spans))
}

// end closes span id, records its work count, and charges its duration
// to the parent's child time.
func (t *tracer) end(id, count int64) {
	if t == nil || id == 0 {
		return
	}
	stop := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End, s.Count = stop, count
	d := s.End - s.Start
	t.selfNs[s.Layer] += d - s.Child
	if s.Parent != 0 {
		t.spans[s.Parent-1].Child += d
	}
}

// record adds a closed leaf span measured by the caller.
func (t *tracer) record(parent int64, layer, name string, start, end time.Time, count int64) {
	if t == nil {
		return
	}
	id := t.begin(parent, layer, name)
	t.mu.Lock()
	s := &t.spans[id-1]
	s.Start, s.End, s.Count = int64(start.Sub(t.t0)), int64(end.Sub(t.t0)), count
	d := s.End - s.Start
	t.selfNs[layer] += d
	if parent != 0 {
		t.spans[parent-1].Child += d
	}
	t.mu.Unlock()
}

// addUnretained charges n leaf calls of total duration d to the layer's
// self time and the parent's child time without keeping a span each —
// the per-Engine.Step calls, of which only a sample is retained.
func (t *tracer) addUnretained(parent int64, layer string, n, d int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.selfNs[layer] += d
	t.unretained += n
	if parent != 0 {
		t.spans[parent-1].Child += d
	}
}

// selfMs returns the layer's self time in milliseconds.
func (t *tracer) selfMs(layer string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return float64(t.selfNs[layer]) / 1e6
}

// write dumps the spans as JSON lines, followed by one summary line of
// per-layer self time.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	summary := map[string]any{"self_ns": t.selfNs, "spans": len(t.spans), "unretained": t.unretained}
	t.mu.Unlock()
	if err := enc.Encode(summary); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// samples collects a modest number of measurements for exact quantiles.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

// quantile returns the q-quantile by linear interpolation between order
// statistics, or 0 when empty.
func (s *samples) quantile(q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return quantile(s.v, q)
}

func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// logHist is a log-linear histogram of non-negative integers (16
// sub-buckets per power of two, about 4% resolution) for the millions of
// Engine.Step timings a traced simulation produces.
type logHist struct {
	counts [64 * 16]uint64
	n      uint64
}

func (h *logHist) add(v uint64) {
	h.counts[logBucket(v)]++
	h.n++
}

func logBucket(v uint64) int {
	if v < 16 {
		return int(v)
	}
	e := bits.Len64(v) - 5 // keep the top 5 bits: the leading 1 and 4 of mantissa
	return (e+1)*16 + int(v>>uint(e)&15)
}

// bucketMid returns a representative value for bucket b.
func bucketMid(b int) float64 {
	if b < 16 {
		return float64(b)
	}
	e := b/16 - 1
	m := uint64(b%16) | 16
	lo := m << uint(e)
	return float64(lo) + float64(uint64(1)<<uint(e))/2
}

func (h *logHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n-1))
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen > rank {
			return bucketMid(b)
		}
	}
	return 0
}

// procStats is a point-in-time reading of process-wide counters.
type procStats struct {
	wall       time.Time
	cpu        time.Duration // user+sys from getrusage
	gcCPU      float64       // runtime estimate, seconds
	usedCPU    float64       // runtime estimate of non-idle CPU, seconds
	allocBytes uint64
	allocObjs  uint64
}

var procMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readProc() procStats {
	ms := make([]metrics.Sample, len(procMetricNames))
	for i, n := range procMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	var ru syscall.Rusage
	cpu := time.Duration(0)
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return procStats{
		wall:       time.Now(),
		cpu:        cpu,
		gcCPU:      ms[0].Value.Float64(),
		usedCPU:    ms[1].Value.Float64() - ms[2].Value.Float64(),
		allocBytes: ms[3].Value.Uint64(),
		allocObjs:  ms[4].Value.Uint64(),
	}
}

// procDelta is process activity over an interval: the sum of the
// segments between resume and pause calls, and each segment on its own.
type procDelta struct {
	wall, cpu             time.Duration
	gcCPU, usedCPU        float64
	allocBytes, allocObjs uint64
	segs                  []segment

	cur procStats
}

// segment is one measured stretch and the work done in it (des events,
// info changes).
type segment struct {
	wall, cpu time.Duration
	work      float64
}

// resume starts a measured segment.
func (d *procDelta) resume() { d.cur = readProc() }

// pause ends a measured segment that did work units of work and adds it
// to the totals.
func (d *procDelta) pause(work float64) {
	b := readProc()
	seg := segment{wall: b.wall.Sub(d.cur.wall), cpu: b.cpu - d.cur.cpu, work: work}
	d.segs = append(d.segs, seg)
	d.wall += seg.wall
	d.cpu += seg.cpu
	d.gcCPU += b.gcCPU - d.cur.gcCPU
	d.usedCPU += b.usedCPU - d.cur.usedCPU
	d.allocBytes += b.allocBytes - d.cur.allocBytes
	d.allocObjs += b.allocObjs - d.cur.allocObjs
}

// gcFraction is the share of the process's CPU spent in the collector.
func (d *procDelta) gcFraction() float64 { return ratio(d.gcCPU, d.usedCPU) }

// The end-to-end rates are medians over segments, so that a burst of
// load from elsewhere on the host moves a few segments, not the figure.

// medianWall returns the median segment wall time in seconds.
func (d *procDelta) medianWall() float64 {
	return d.medianOf(func(s segment) float64 { return s.wall.Seconds() })
}

// cpuMsPerWork returns the median over segments of CPU milliseconds per
// unit of work.
func (d *procDelta) cpuMsPerWork() float64 {
	return d.medianOf(func(s segment) float64 { return ratio(float64(s.cpu)/1e6, s.work) })
}

// workPerCPU returns the median over segments of protocol seconds per
// CPU second, for segments that each cover secs of protocol time.
func (d *procDelta) workPerCPU(secs float64) float64 {
	return d.medianOf(func(s segment) float64 { return ratio(secs, s.cpu.Seconds()) })
}

// wallPerCPU returns the median over segments of wall time per CPU time.
func (d *procDelta) wallPerCPU() float64 {
	return d.medianOf(func(s segment) float64 { return ratio(s.wall.Seconds(), s.cpu.Seconds()) })
}

func (d *procDelta) medianOf(f func(segment) float64) float64 {
	v := make([]float64, len(d.segs))
	for i, s := range d.segs {
		v[i] = f(s)
	}
	return median(v)
}

// heapPeak tracks the peak live heap, sampled at fixed points of a
// workload: each sample forces a collection and reads the heap it marked
// live, so the figure is the workload's live data, not how much garbage
// the last concurrent cycle happened to float.
type heapPeak struct{ peak uint64 }

func (h *heapPeak) sample() {
	runtime.GC()
	ms := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(ms)
	if v := ms[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

func (h *heapPeak) mb() float64 { return float64(h.peak) / (1 << 20) }

// hostRefMs times a fixed pointer chase through a 32 MB array and
// returns the median of passes in milliseconds: how fast the host ran
// around a measurement. It runs no repository code, so no change to the
// program moves it, and it leans on the caches and memory the
// simulations lean on. The shared hosts this benchmark runs on change
// speed by a third and more within minutes; this is the figure that tells
// a slow host from a slow program.
func hostRefMs(passes int) float64 {
	const n = 1 << 23
	next := make([]uint32, n)
	x := uint64(88172645463325252)
	for i := range next {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		next[i] = uint32(x % n)
	}
	v := make([]float64, passes)
	for p := range v {
		t0 := time.Now()
		j := uint32(0)
		for i := 0; i < 1<<20; i++ {
			j = next[j]
		}
		refSink += uint64(j)
		v[p] = float64(time.Since(t0)) / 1e6
	}
	return median(v)
}

var refSink uint64
