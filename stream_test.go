package versaslot

import (
	"encoding/json"
	"math"
	"sort"
	"testing"

	"versaslot/internal/sim"
)

// streamScenario is the shared stream-mode scenario the determinism
// tests run: enough apps for meaningful percentiles, windows sized so
// the time-series has several entries.
func streamScenario() Scenario {
	return Scenario{
		Name:      "stream-determinism",
		Condition: "stress",
		Apps:      120,
		Seed:      7,
		Metrics:   &MetricsSpec{Mode: "stream", Window: 5 * sim.Second, MaxWindows: 32},
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestStreamRunManyDeterministic pins that a stream-mode run is byte-
// identical whether executed solo or inside a concurrent RunMany
// batch: sketches and windows fold per-engine and merge in fixed
// engine order, so worker scheduling cannot perturb the output.
func TestStreamRunManyDeterministic(t *testing.T) {
	solo, err := Run(streamScenario())
	if err != nil {
		t.Fatal(err)
	}
	batch := []Scenario{streamScenario(), streamScenario(), streamScenario()}
	many, err := RunMany(batch, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, solo)
	for i, r := range many {
		if got := mustJSON(t, r); got != want {
			t.Errorf("RunMany result %d differs from the solo run", i)
		}
	}
}

// TestStreamFarmShardedDeterministic pins the sketch-merge guarantee
// at fleet scale: a stream-mode farm produces byte-identical results at
// width 1 and across worker goroutines (run with -race in CI).
func TestStreamFarmShardedDeterministic(t *testing.T) {
	base := Scenario{
		Name:           "stream-farm",
		Topology:       TopologyFarm,
		Pairs:          6,
		Condition:      "stress",
		Apps:           90,
		Seed:           11,
		RebalanceEvery: 5 * sim.Second,
		Metrics:        &MetricsSpec{Mode: "stream", Window: 5 * sim.Second, MaxWindows: 16},
	}
	seq, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, seq)
	for _, shards := range []int{2, 4} {
		s := base
		s.Shards = shards
		got, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if mustJSON(t, got) != want {
			t.Errorf("shards=%d stream farm differs from the sequential run", shards)
		}
	}
	if len(seq.TimeSeries) == 0 {
		t.Error("stream farm produced no time-series windows")
	}
	if len(seq.Samples) != 0 {
		t.Errorf("stream farm retained %d samples; stream mode must retain none", len(seq.Samples))
	}
}

// TestStreamMatchesExact runs the same seed in both metrics modes and
// pins stream mode to its documented contract: mean/min/max/queue and
// utilization match the exact run bit-for-bit (they are tracked
// exactly), and each reported percentile lands within 1% rank error
// of the exact sample distribution.
func TestStreamMatchesExact(t *testing.T) {
	ex := streamScenario()
	ex.Metrics = nil
	exact, err := Run(ex)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := Run(streamScenario())
	if err != nil {
		t.Fatal(err)
	}
	es, ss := exact.Summary, stream.Summary
	if es.Apps != ss.Apps || es.MeanRT != ss.MeanRT || es.MinRT != ss.MinRT ||
		es.MaxRT != ss.MaxRT || es.MeanQueue != ss.MeanQueue ||
		es.UtilLUT != ss.UtilLUT || es.UtilFF != ss.UtilFF {
		t.Errorf("exactly-tracked stats diverged:\nexact  %+v\nstream %+v", es, ss)
	}
	if exact.Makespan != stream.Makespan {
		t.Errorf("makespan diverged: exact %v stream %v", exact.Makespan, stream.Makespan)
	}
	sorted := make([]float64, len(exact.Samples))
	for i, s := range exact.Samples {
		sorted[i] = float64(s.Response)
	}
	sort.Float64s(sorted)
	n := float64(len(sorted))
	for _, q := range []struct {
		p   float64
		got sim.Duration
	}{{50, ss.P50}, {95, ss.P95}, {99, ss.P99}} {
		v := float64(q.got)
		// Fractional ranks of the estimate in the exact distribution,
		// tie-aware: [share strictly below, share at or below].
		lo := float64(sort.SearchFloat64s(sorted, v)) / n
		hi := float64(sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })) / n
		target := q.p / 100
		if target < lo-0.01 || target > hi+0.01 {
			t.Errorf("P%.0f=%v has exact rank [%.4f, %.4f]; target %.2f is outside the 1%% bound",
				q.p, q.got, lo, hi, target)
		}
		// And the estimate stays within the sketch's relative value
		// band of the exact percentile, widened by the local
		// inter-sample gap interpolation can span at this n.
		exactV := exact.Percentile(q.p)
		if exactV > 0 {
			rel := math.Abs(v-float64(exactV)) / float64(exactV)
			if rel > 0.05 {
				t.Errorf("P%.0f: stream %v vs exact %v (relative error %.4f)", q.p, q.got, exactV, rel)
			}
		}
	}
	if len(stream.TimeSeries) == 0 {
		t.Fatal("stream run produced no time-series")
	}
	apps := 0
	for _, w := range stream.TimeSeries {
		apps += w.Apps
	}
	if apps != ss.Apps {
		t.Errorf("time-series windows account for %d apps, summary has %d", apps, ss.Apps)
	}
	if stream.MetricsMode != "stream" {
		t.Errorf("metrics_mode %q, want \"stream\"", stream.MetricsMode)
	}
	if exact.MetricsMode != "" || len(exact.TimeSeries) != 0 {
		t.Errorf("exact run leaked stream fields: mode %q, %d windows", exact.MetricsMode, len(exact.TimeSeries))
	}
}

// TestStreamClusterRuns smoke-tests the switching-pair topology in
// stream mode: both boards' sketches merge into the pair summary.
func TestStreamClusterRuns(t *testing.T) {
	r, err := Run(Scenario{
		Topology:  TopologyCluster,
		Condition: "stress",
		Apps:      40,
		Seed:      3,
		Metrics:   &MetricsSpec{Mode: "stream"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Summary.Apps != 40 {
		t.Errorf("cluster stream run finished %d apps, want 40", r.Summary.Apps)
	}
	if len(r.Samples) != 0 {
		t.Errorf("stream cluster retained %d samples", len(r.Samples))
	}
	if len(r.TimeSeries) == 0 {
		t.Error("stream cluster produced no time-series")
	}
}

// TestMetricsSpecValidation pins the metrics block's validation rules.
func TestMetricsSpecValidation(t *testing.T) {
	bad := []Scenario{
		{Metrics: &MetricsSpec{Mode: "sketchy"}},
		{Metrics: &MetricsSpec{Mode: "exact", Window: sim.Second}},
		{Metrics: &MetricsSpec{Mode: "exact", MaxWindows: 4}},
		{Metrics: &MetricsSpec{Mode: "stream", Window: -sim.Second}},
		{Metrics: &MetricsSpec{Mode: "stream", MaxWindows: -1}},
		{Metrics: &MetricsSpec{Mode: "stream", MaxWindows: 1 << 20}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("scenario %d: metrics block %+v validated; want an error", i, *s.Metrics)
		}
	}
	ok := Scenario{Metrics: &MetricsSpec{Mode: "stream", Window: 60 * sim.Second, MaxWindows: 128}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid stream block rejected: %v", err)
	}
}
