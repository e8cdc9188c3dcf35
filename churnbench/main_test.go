package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"churntomo"
)

// tinyScale runs every workload in about a second: SmallConfig's world
// over a handful of days.
var tinyScale = func() scale {
	dims := churntomo.SmallConfig()
	dims.Workers = 2
	return scale{dims: dims, synthDays: 8, replayDays: 10, warmupDays: 2, window: 4, setupReps: 1}
}()

// tinyReference records a one-world reference per family at tiny scale.
func tinyReference(t *testing.T, dir string) *reference {
	t.Helper()
	ref, err := recordReference(context.Background(), tinyScale, dir, []uint64{1}, 1, io.Discard)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	// Round-trip through JSON as the embedded file does.
	path := filepath.Join(dir, "reference.json")
	if err := writeReference(path, ref); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if ref, err = loadReference(data); err != nil {
		t.Fatal(err)
	}
	return ref
}

func checkMetrics(t *testing.T, wl string, defs []metricDef, got report) {
	t.Helper()
	if len(got.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", wl, len(got.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := got.Metrics[d.name]
		if !ok {
			t.Errorf("%s: metric %s missing", wl, d.name)
			continue
		}
		if m.Unit != d.unit {
			t.Errorf("%s: metric %s unit %q, want %q", wl, d.name, m.Unit, d.unit)
		}
	}
}

// TestSmokeEveryWorkload runs every workload end to end and traced, and
// checks each emits every metric with its unit and passes the gate.
func TestSmokeEveryWorkload(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	ref := tinyReference(t, dir)
	for _, wl := range workloads {
		b, err := newBench(tinyScale, wl, ref, 1, dir, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		e2e, err := b.endToEnd(ctx, 0)
		if err != nil {
			t.Fatalf("%s end to end: %v", wl.name, err)
		}
		if !e2e.Correct || e2e.Attempted != 1 || e2e.Failed != 0 {
			t.Errorf("%s end to end: correct=%v attempted=%d failed=%d", wl.name, e2e.Correct, e2e.Attempted, e2e.Failed)
		}
		checkMetrics(t, wl.name, endToEndMetrics, e2e)
		if v := e2e.Metrics["run_s"].Value; v <= 0 {
			t.Errorf("%s: run_s = %v", wl.name, v)
		}

		traced, err := b.traceMode(ctx)
		if err != nil {
			t.Fatalf("%s traced: %v", wl.name, err)
		}
		if !traced.Correct || traced.Failed != 0 {
			t.Errorf("%s traced: correct=%v failed=%d", wl.name, traced.Correct, traced.Failed)
		}
		checkMetrics(t, wl.name, perLayerMetrics, traced)
	}
}

// TestTamperedReferenceTripsGate alters one recorded fact at a time and
// checks the gate counts the run as failed.
func TestTamperedReferenceTripsGate(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	synth, _ := workloadByName("batch-synth")
	replay, _ := workloadByName("stream-replay")

	ref := tinyReference(t, dir)
	world := &ref.Families[familySynth][0]
	v := world.Verdicts[synth.name]
	v.Identified = append(append([]uint32(nil), v.Identified...), 1)
	world.Verdicts[synth.name] = v
	b, err := newBench(tinyScale, synth, ref, 1, dir, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.endToEnd(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Correct || got.Failed != got.Attempted {
		t.Errorf("tampered verdict: correct=%v attempted=%d failed=%d", got.Correct, got.Attempted, got.Failed)
	}
	if got.Metrics["pass_frac"].Value != 0 {
		t.Errorf("tampered verdict: pass_frac %v, want 0", got.Metrics["pass_frac"].Value)
	}

	ref = tinyReference(t, dir)
	ref.Families[familySynth][0].Counts[synth.name]["tomo.clauses"]++
	if b, err = newBench(tinyScale, synth, ref, 1, dir, io.Discard); err != nil {
		t.Fatal(err)
	}
	if got, err = b.traceMode(ctx); err != nil {
		t.Fatal(err)
	}
	if got.Correct || got.Failed != 1 {
		t.Errorf("tampered count: correct=%v failed=%d", got.Correct, got.Failed)
	}

	ref = tinyReference(t, dir)
	wc := ref.Families[familyReplay][0].Verdicts[replay.name]
	wc.WindowCensors = append(append([]int(nil), wc.WindowCensors...), 0)
	ref.Families[familyReplay][0].Verdicts[replay.name] = wc
	if b, err = newBench(tinyScale, replay, ref, 1, dir, io.Discard); err != nil {
		t.Fatal(err)
	}
	if got, err = b.traceMode(ctx); err != nil {
		t.Fatal(err)
	}
	if got.Correct || got.Failed != 1 {
		t.Errorf("tampered window counts: correct=%v failed=%d", got.Correct, got.Failed)
	}

	ref = tinyReference(t, dir)
	ref.Families[familyReplay][0].FileSHA256 = strings.Repeat("0", 64)
	if b, err = newBench(tinyScale, replay, ref, 1, dir, io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := b.endToEnd(ctx, 0); err == nil {
		t.Error("tampered file digest: set-up succeeded")
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the reported metrics and
// BENCHMARK.json in agreement.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, driver %v", names, workloadNames())
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, driver %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), driver %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEndMetrics)
	compare("per_layer", spec.PerLayer, perLayerMetrics)
}

// TestRunRejectsBadArguments checks the command line fails without a
// result line.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--workload", "batch-synth", "--trace", "2"},
		{"--no-such-flag"},
	} {
		var stdout bytes.Buffer
		if code := run(append(args, "-workdir", t.TempDir()), &stdout, io.Discard); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q", args, stdout.String())
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.9); got < 3.69 || got > 3.71 {
		t.Errorf("p90 = %v, want 3.7", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(nil) = %v", got)
	}
}
