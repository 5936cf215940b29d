// Command perfbench is the PeerWindow benchmark: three workloads that
// between them drive every layer of the system, each checked for
// correct output, each printing its end-to-end metrics (untraced run)
// or its per-layer metrics (traced run) by name with units.
//
//	perfbench --workload full-churn --seed 1 --seconds 30 --trace 0
//	perfbench --all --seed 1 --seconds 30     # every workload, untraced and traced
//	perfbench --describe                      # the metric ledger (ledger.json)
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. ledger.json names every
// metric, its unit, the layer it measures and the end-to-end metric and
// workload it serves; README.md describes the workloads.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"peerwindow/internal/core"
	"peerwindow/internal/metrics"
)

//go:embed ledger.json
var ledgerJSON []byte

// ledger is the machine-readable description of the benchmark; the
// fields the program and its self-tests read.
type ledger struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name    string            `json:"name"`
		Unit    string            `json:"unit"`
		Better  string            `json:"better"`
		Bound   float64           `json:"bound"`
		Meaning map[string]string `json:"meaning"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name       string   `json:"name"`
		Unit       string   `json:"unit"`
		Better     string   `json:"better"`
		Layer      string   `json:"layer"`
		Workloads  []string `json:"workloads"`
		Serves     []string `json:"serves"`
		Supersedes string   `json:"supersedes"`
	} `json:"per_layer"`
}

func loadLedger() ledger {
	var l ledger
	if err := json.Unmarshal(ledgerJSON, &l); err != nil {
		panic(fmt.Sprintf("perfbench: ledger.json: %v", err))
	}
	return l
}

// units maps every metric name in the ledger to its unit; traced reports
// whether the metric belongs to the traced run.
func (l ledger) units() (units map[string]string, traced map[string]bool) {
	units, traced = make(map[string]string), make(map[string]bool)
	for _, m := range l.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range l.PerLayer {
		units[m.Name] = m.Unit
		traced[m.Name] = true
	}
	return units, traced
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// check is one output check of a workload.
type check struct {
	name   string
	ok     bool
	detail string
}

// outcome is what a workload run produces: both metric sets (the caller
// prints the one its mode asks for), its checks, notes on failed
// operations, and its operation counts.
type outcome struct {
	values    map[string]float64
	checks    []check
	notes     []string
	attempted int64
	failed    int64
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

func (o *outcome) set(name string, v float64) { o.values[name] = v }

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// opts are the inputs every workload receives.
type opts struct {
	seed    uint64
	seconds int
	tr      *tracer // nil in the untraced run
	small   bool    // reduced sizes for the self-tests
}

// benchWorkload is one benchmark workload. procs, when non-zero, caps
// GOMAXPROCS for it. full-churn is a single-threaded simulation: on one P
// its wall time does not depend on whether a second CPU happens to be
// free for the collector. live-udp is mostly goroutines waiting on
// sockets and timers: on one P the scheduler does not spin a second
// thread looking for work (on a two-CPU host, two Ps made its CPU per
// change vary by about ±10% from run to run).
type benchWorkload struct {
	run   func(o opts) *outcome
	procs int
}

// measure runs the workload between two timings of the host reference
// pass, which it reports as host.ref_ms.
func (w benchWorkload) measure(o opts) *outcome {
	ref := hostRefMs(3)
	runtime.GC() // the reference array is garbage; keep it out of the workload
	out := w.run(o)
	out.set("host.ref_ms", (ref+hostRefMs(3))/2)
	return out
}

var workloads = map[string]benchWorkload{
	"full-churn":    {run: runFullChurn, procs: 1},
	"million-churn": {run: runMillionChurn},
	"live-udp":      {run: runLiveUDP, procs: 1},
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: full-churn, million-churn or live-udp")
		seed     = flag.Uint64("seed", 1, "workload seed; every input is generated from it")
		seconds  = flag.Int("seconds", 30, "length of the measured phase (see README.md for how each workload scales it)")
		traceArg = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file")
		all      = flag.Bool("all", false, "run every workload untraced and traced, each in its own process")
		describe = flag.Bool("describe", false, "print the metric ledger and exit")
	)
	flag.Parse()
	if *describe {
		os.Stdout.Write(ledgerJSON)
		return
	}
	if *seconds < 1 {
		fail("--seconds must be at least 1")
	}
	if *all {
		os.Exit(runAll(*seed, *seconds))
	}
	w, ok := workloads[*name]
	if !ok {
		fail(fmt.Sprintf("unknown --workload %q", *name))
	}
	if *traceArg != 0 && *traceArg != 1 {
		fail("--trace must be 0 or 1")
	}
	o := opts{seed: *seed, seconds: *seconds}
	if *traceArg == 1 {
		o.tr = newTracer()
	}
	if w.procs > 0 && w.procs < runtime.GOMAXPROCS(0) {
		runtime.GOMAXPROCS(w.procs)
	}
	printEnv(*name, o)
	out := w.measure(o)
	if o.tr != nil {
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := o.tr.write(path); err != nil {
			fail(fmt.Sprintf("writing spans: %v", err))
		}
		fmt.Printf("spans written to %s\n", path)
	}
	res, err := report(*name, out, o.tr != nil)
	if err != nil {
		fail(err.Error())
	}
	b, err := json.Marshal(res)
	if err != nil {
		fail(err.Error())
	}
	fmt.Println(string(b))
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "perfbench:", msg)
	os.Exit(2)
}

// printEnv records the run's environment with every result.
func printEnv(name string, o opts) {
	env := map[string]any{
		"workload":   name,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"traced":     o.tr != nil,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
	b, _ := json.Marshal(env) // a map of plain values always marshals
	fmt.Printf("env %s\n", b)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// report prints checks and metrics as human-readable lines and builds
// the result: the end-to-end metrics for the untraced run, the per-layer
// metrics for the traced one. The workload must emit every end-to-end
// metric and exactly the per-layer metrics the ledger lists for it; the
// per-layer metrics of layers it bypasses are reported as 0.
func report(wl string, out *outcome, traced bool) (result, error) {
	l := loadLedger()
	units, isLayer := l.units()
	bypassed := make(map[string]bool)
	for _, m := range l.PerLayer {
		bypassed[m.Name] = !contains(m.Workloads, wl)
	}
	res := result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: make(map[string]metric)}
	for _, c := range out.checks {
		status := "ok"
		if !c.ok {
			status = "FAIL"
			res.Correct = false
		}
		fmt.Printf("check %-28s %-4s %s\n", c.name, status, c.detail)
	}
	for _, n := range out.notes {
		fmt.Printf("note  %s\n", n)
	}
	for name := range out.values {
		if _, ok := units[name]; !ok {
			return res, fmt.Errorf("metric %q is not in ledger.json", name)
		}
		if bypassed[name] {
			return res, fmt.Errorf("metric %q is not listed for %s in ledger.json", name, wl)
		}
	}
	names := make([]string, 0, len(units))
	for name := range units {
		if isLayer[name] == traced {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		v, ok := out.values[name]
		if !ok && !bypassed[name] {
			return res, fmt.Errorf("workload did not emit %q", name)
		}
		res.Metrics[name] = metric{Value: v, Unit: units[name]}
		fmt.Printf("metric %-28s %16.6g %s\n", name, v, units[name])
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operations attempted")
	}
	return res, nil
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// runAll runs every workload untraced and then traced, each in its own
// process so heap peaks and GC state do not leak between them, and
// prints the tracing overhead per workload.
func runAll(seed uint64, seconds int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	status := 0
	for _, name := range names {
		var runs [2]result
		for traced := 0; traced < 2; traced++ {
			cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(traced))
			cmd.Stderr = os.Stderr
			b, err := cmd.Output()
			os.Stdout.Write(b)
			lines := strings.Split(strings.TrimSpace(string(b)), "\n")
			if err != nil || json.Unmarshal([]byte(lines[len(lines)-1]), &runs[traced]) != nil {
				fmt.Printf("%s trace=%d: run failed: %v\n", name, traced, err)
				status = 1
				continue
			}
			if !runs[traced].Correct {
				status = 1
			}
		}
		base := runs[0].Metrics["cpu_ms_per_event"].Value
		traced := runs[1].Metrics["trace.cpu_ms_per_event"].Value
		if base > 0 {
			fmt.Printf("tracing overhead %s: %+.1f%% CPU per event (%.6g ms untraced, %.6g ms traced)\n",
				name, 100*(traced-base)/base, base, traced)
		}
	}
	return status
}

// setCoreMetrics derives the core ratios from a node-metrics delta and
// the number of multicast event messages sent in the same interval.
func setCoreMetrics(out *outcome, d metrics.Snapshot, eventMsgs float64) {
	originated := float64(d.Counters[core.MetricMulticastOriginated])
	delivered := float64(d.Counters[core.MetricMulticastDelivered])
	out.set("core.msgs_per_event", ratio(eventMsgs, originated))
	out.set("core.dup_ratio", ratio(float64(d.Counters[core.MetricMulticastDuplicates]), delivered))
	out.set("core.ack_retry_ratio", ratio(float64(d.Counters[core.MetricAckRetries]), eventMsgs))
	depth := d.Histograms[core.MetricMulticastStepDepth]
	out.set("core.mcast_depth_mean", ratio(depth.Sum, float64(depth.Count)))
	detect := d.Histograms[core.MetricProbeDetectLatency]
	p50 := 0.0
	if detect.Count > 0 {
		p50 = 1000 * detect.Quantile(0.5)
	}
	out.set("core.detect_ms_p50", p50)
}

// setRuntimeMetrics reports the Go runtime's share of a phase, per
// workload event.
func setRuntimeMetrics(out *outcome, d *procDelta, events float64) {
	out.set("gc.cpu_fraction", d.gcFraction())
	out.set("alloc.bytes_per_event", float64(d.allocBytes)/events)
	out.set("alloc.objs_per_event", float64(d.allocObjs)/events)
}

// selfLayers are the layers the benchmark's spans are attributed to.
var selfLayers = []string{"sim", "des", "shard", "core", "oracle", "udp", "telemetry"}

func setSelfTimes(out *outcome, tr *tracer) {
	for _, l := range selfLayers {
		out.set(l+".self_ms", tr.selfMs(l))
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
