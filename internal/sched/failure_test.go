package sched

import (
	"testing"

	"versaslot/internal/appmodel"
	"versaslot/internal/bitstream"
	"versaslot/internal/fabric"
	"versaslot/internal/hypervisor"
	"versaslot/internal/sim"
	"versaslot/internal/workload"
)

// prFlakyRetries is the retry bound of the flaky-PR model the tests
// install (the pr-flaky injector's default).
const prFlakyRetries = 3

// runWithFailureRate executes a small workload under the flaky-PR
// model (the pr-flaky injector's bounded retry with backoff) at the
// given per-attempt failure rate and returns the engine.
func runWithFailureRate(t *testing.T, rate float64, kind Kind) *Engine {
	t.Helper()
	k := sim.NewKernel(7)
	repo := bitstream.NewRepository()
	bitstream.NewGenerator().GenerateAll(repo, workload.Suite())
	cfg := fabric.ZCU216OnlyLittle
	model := hypervisor.SingleCore
	if kind == KindVersaSlotBL {
		cfg, model = fabric.ZCU216BigLittle, hypervisor.DualCore
	}
	if kind == KindVersaSlotOL {
		model = hypervisor.DualCore
	}
	e := NewEngine(k, DefaultParams(), fabric.NewBoard(0, fabric.MustPlatform(cfg)), model, repo)
	e.SetPolicy(New(kind))
	e.SetPRFault(rate, prFlakyRetries, sim.Millisecond, 2, sim.NewRNG(11))
	apps := []*appmodel.App{
		appmodel.NewApp(0, workload.IC, 8, 0),
		appmodel.NewApp(1, workload.OF, 8, sim.Time(50*sim.Millisecond)),
		appmodel.NewApp(2, workload.AN, 8, sim.Time(100*sim.Millisecond)),
	}
	e.InjectSequence(apps)
	k.Run()
	e.CheckQuiescent()
	return e
}

func TestPRFailureInjectionRetriesAndCompletes(t *testing.T) {
	for _, kind := range []Kind{KindNimblock, KindVersaSlotOL, KindVersaSlotBL} {
		e := runWithFailureRate(t, 0.4, kind)
		if e.Col.PRRetries == 0 {
			t.Errorf("%v: 40%% PR failure rate produced no retries", kind)
		}
		if len(e.Col.Responses) != 3 {
			t.Errorf("%v: %d of 3 apps finished under failure injection", kind, len(e.Col.Responses))
		}
	}
}

func TestNoFailuresWithoutInjection(t *testing.T) {
	e := runWithFailureRate(t, 0, KindVersaSlotBL)
	if e.Col.PRRetries != 0 {
		t.Fatalf("retries recorded with rate 0: %d", e.Col.PRRetries)
	}
}

func TestFailureInjectionSlowsResponse(t *testing.T) {
	clean := runWithFailureRate(t, 0, KindNimblock)
	faulty := runWithFailureRate(t, 0.6, KindNimblock)
	var cleanSum, faultySum sim.Duration
	for i := range clean.Col.Responses {
		cleanSum += clean.Col.Responses[i].Response
		faultySum += faulty.Col.Responses[i].Response
	}
	if faultySum <= cleanSum {
		t.Fatalf("PR retries did not slow the run: %v vs %v", faultySum, cleanSum)
	}
}

func TestFailureRateCapKeepsRetriesFinite(t *testing.T) {
	// At a high failure rate every load still retries at most
	// prFlakyRetries times; exhausted loads crash-restart their app,
	// and the run still completes.
	e := runWithFailureRate(t, 0.7, KindVersaSlotBL)
	if len(e.Col.Responses) != 3 {
		t.Fatal("run under a 70% PR failure rate did not complete")
	}
	if max := prFlakyRetries * e.Col.PRLoads; e.Col.PRRetries == 0 || e.Col.PRRetries > max {
		t.Fatalf("%d retries over %d loads, want 1..%d", e.Col.PRRetries, e.Col.PRLoads, max)
	}
}

func TestFailureInjectionDeterministic(t *testing.T) {
	a := runWithFailureRate(t, 0.4, KindVersaSlotOL)
	b := runWithFailureRate(t, 0.4, KindVersaSlotOL)
	if a.Col.PRRetries != b.Col.PRRetries {
		t.Fatalf("retry counts differ across identical runs: %d vs %d",
			a.Col.PRRetries, b.Col.PRRetries)
	}
	for i := range a.Col.Responses {
		if a.Col.Responses[i].Response != b.Col.Responses[i].Response {
			t.Fatal("responses differ across identical seeded runs")
		}
	}
}
