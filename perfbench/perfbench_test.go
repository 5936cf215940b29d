package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestLedgerMatchesBenchmarkJSON pins the repository's BENCHMARK.json to
// ledger.json: same workloads and reasons, same metrics, units,
// directions and bounds.
func TestLedgerMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Command    []string            `json:"command"`
		Paths      []string            `json:"paths"`
		RunSeconds int                 `json:"run_seconds"`
		Workloads  []map[string]string `json:"workloads"`
		EndToEnd   []map[string]any    `json:"end_to_end"`
		PerLayer   []map[string]string `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	l := loadLedger()
	var wls []map[string]string
	for _, w := range l.Workloads {
		wls = append(wls, map[string]string{"name": w.Name, "why": w.Why})
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("ledger workload %q has no implementation", w.Name)
		}
	}
	if !reflect.DeepEqual(wls, bench.Workloads) {
		t.Errorf("workloads differ:\nledger    %v\nBENCHMARK %v", wls, bench.Workloads)
	}
	if len(l.Workloads) != len(workloads) {
		t.Errorf("%d workloads implemented, %d in the ledger", len(workloads), len(l.Workloads))
	}
	var e2e []map[string]any
	for _, m := range l.EndToEnd {
		e2e = append(e2e, map[string]any{"name": m.Name, "unit": m.Unit, "better": m.Better, "bound": m.Bound})
		for _, w := range l.Workloads {
			if m.Meaning[w.Name] == "" {
				t.Errorf("end-to-end metric %s has no meaning on %s", m.Name, w.Name)
			}
		}
	}
	if !reflect.DeepEqual(e2e, bench.EndToEnd) {
		t.Errorf("end_to_end differs:\nledger    %v\nBENCHMARK %v", e2e, bench.EndToEnd)
	}
	var layer []map[string]string
	for _, m := range l.PerLayer {
		layer = append(layer, map[string]string{"name": m.Name, "unit": m.Unit, "better": m.Better})
		if m.Layer == "" || len(m.Serves) == 0 || len(m.Workloads) == 0 || m.Supersedes == "" {
			t.Errorf("per-layer metric %s lacks its layer, workloads, the metric it serves or what it supersedes", m.Name)
		}
	}
	if !reflect.DeepEqual(layer, bench.PerLayer) {
		t.Errorf("per_layer differs:\nledger    %v\nBENCHMARK %v", layer, bench.PerLayer)
	}
	if !reflect.DeepEqual(bench.Command, []string{"bash", "perfbench/run.sh"}) || !reflect.DeepEqual(bench.Paths, []string{"perfbench"}) ||
		bench.RunSeconds < 1 {
		t.Errorf("command %v, paths %v, run_seconds %d", bench.Command, bench.Paths, bench.RunSeconds)
	}
}

// runSmall runs a reduced-size workload and returns its result in the
// given mode, failing the test if a metric is missing or a check fails.
func runSmall(t *testing.T, name string, seed uint64, traced bool) result {
	t.Helper()
	o := opts{seed: seed, seconds: 2, small: true}
	if traced {
		o.tr = newTracer()
	}
	res, err := report(name, workloads[name].measure(o), traced)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	// Failed operations (a simulated join that errs) are reported, not
	// output checks.
	if !res.Correct || res.Attempted < 1 || res.Failed > res.Attempted/10 {
		t.Fatalf("%s seed %d: correct=%v failed=%d attempted=%d", name, seed, res.Correct, res.Failed, res.Attempted)
	}
	units, _ := loadLedger().units()
	for n, m := range res.Metrics {
		if m.Unit == "" || m.Unit != units[n] {
			t.Errorf("%s: metric %s has unit %q, ledger says %q", name, n, m.Unit, units[n])
		}
	}
	return res
}

// TestWorkloadsSmall runs every workload at reduced size, untraced and
// traced: every named metric is emitted with its unit and every output
// check passes.
func TestWorkloadsSmall(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			e2e := runSmall(t, name, 1, false)
			for _, m := range loadLedger().EndToEnd {
				if v := e2e.Metrics[m.Name].Value; v <= 0 {
					t.Errorf("end-to-end metric %s = %g, want > 0", m.Name, v)
				}
			}
			runSmall(t, name, 1, true)
		})
	}
}

// TestSeedDeterminism shows that the simulated workloads are a function
// of their seed: one seed twice gives identical deterministic metrics,
// traced or not, and another seed changes them.
func TestSeedDeterminism(t *testing.T) {
	cases := map[string][]string{
		"full-churn":    {"window_error_pct", "maint_bps", "des.events"},
		"million-churn": {"window_error_pct", "maint_bps", "des.events", "sim.bytes_per_node"},
	}
	for name, keys := range cases {
		t.Run(name, func(t *testing.T) {
			values := func(seed uint64, traced bool) map[string]float64 {
				o := opts{seed: seed, seconds: 2, small: true}
				if traced {
					o.tr = newTracer()
				}
				v := workloads[name].run(o).values
				out := make(map[string]float64)
				for _, k := range keys {
					out[k] = v[k]
				}
				return out
			}
			a, b, traced, other := values(7, false), values(7, false), values(7, true), values(8, false)
			if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, traced) {
				t.Errorf("seed 7 not reproducible:\n%v\n%v\ntraced %v", a, b, traced)
			}
			for _, k := range keys {
				if a[k] == other[k] {
					t.Errorf("%s identical for seeds 7 and 8 (%g)", k, a[k])
				}
			}
		})
	}
}

func TestLogHistQuantile(t *testing.T) {
	var h logHist
	for v := uint64(1); v <= 10000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 10000
		if got := h.quantile(q); got < 0.95*want || got > 1.05*want {
			t.Errorf("quantile(%g) = %g, want about %g", q, got, want)
		}
	}
}

func TestChangeInfoRoundTrip(t *testing.T) {
	for _, k := range []int{0, 7, 1234567} {
		if got, ok := parseChange(string(changeInfo(k))); !ok || got != k {
			t.Errorf("parseChange(changeInfo(%d)) = %d, %v", k, got, ok)
		}
	}
	if _, ok := parseChange("zone=eu!"); ok {
		t.Error("parsed a foreign info as a change")
	}
}
