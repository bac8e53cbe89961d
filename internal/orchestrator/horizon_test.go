package orchestrator_test

import (
	"testing"

	"versaslot/internal/cluster"
	"versaslot/internal/orchestrator"
	"versaslot/internal/sim"
	"versaslot/internal/workload"
)

// TestTickHorizonAutoscale pins the orchestrator's share of the
// sharded executor's lookahead bound: before Start nothing is armed;
// after Start the autoscaler's first evaluation tick is the horizon,
// and the coordinator kernel's next event lies at or before it — the
// invariant that keeps shards from running past a control tick.
func TestTickHorizonAutoscale(t *testing.T) {
	f := cluster.MustNewFarm(cluster.DefaultFarmConfig(2))
	o := mustOrchestrate(t, f, orchestrator.Config{
		Autoscale: &orchestrator.AutoscaleSpec{Max: 2, Every: sim.Second},
	})
	if _, armed := o.TickHorizon(); armed {
		t.Fatal("TickHorizon armed before Start")
	}
	o.Start()
	horizon, armed := o.TickHorizon()
	if !armed {
		t.Fatal("autoscale tick scheduled but TickHorizon reports none")
	}
	if want := f.K.Now() + sim.Time(sim.Second); horizon != want {
		t.Errorf("autoscale horizon %v, want %v", horizon, want)
	}
	if next, ok := f.K.NextAt(); !ok || next > horizon {
		t.Errorf("coordinator next event %v (pending=%v) past the orchestrator horizon %v", next, ok, horizon)
	}
}

// pumpProbe is a coordinator-kernel tracer: before every control event
// it checks that an armed admission pump (or autoscale tick) is visible
// on the coordinator kernel at or before the reported horizon.
type pumpProbe struct {
	t   *testing.T
	f   *cluster.Farm
	o   *orchestrator.Orchestrator
	saw bool
}

func (p *pumpProbe) Event(sim.Time) {
	horizon, armed := p.o.TickHorizon()
	if !armed {
		return
	}
	p.saw = true
	if now := p.f.K.Now(); horizon < now {
		p.t.Fatalf("horizon %v behind the clock %v", horizon, now)
	}
	if next, ok := p.f.K.NextAt(); !ok || next > horizon {
		p.t.Fatalf("pump tick at %v invisible to the coordinator (next event %v, pending=%v)", horizon, next, ok)
	}
}

// TestTickHorizonTracksAdmissionPump runs a quota-throttled farm with a
// probe on the coordinator kernel: whenever the admission pump (or an
// autoscale tick) is pending, the reported horizon must be visible on
// the coordinator kernel at or before that instant.
func TestTickHorizonTracksAdmissionPump(t *testing.T) {
	f := cluster.MustNewFarm(cluster.DefaultFarmConfig(2))
	o := mustOrchestrate(t, f, orchestrator.Config{
		Tenants:    []orchestrator.TenantSpec{{Name: "batch", Quota: 1}},
		AdmitEvery: 100 * sim.Millisecond,
	})
	if err := o.InjectTenants([]*workload.Sequence{tenantSeq(workload.Stress, 8, 7, "batch")}); err != nil {
		t.Fatal(err)
	}
	o.Start()
	probe := &pumpProbe{t: t, f: f, o: o}
	f.K.SetTracer(probe)
	if sum := f.Run(); sum.Apps != 8 {
		t.Errorf("%d of 8 apps finished", sum.Apps)
	}
	if !probe.saw {
		t.Error("quota-1 tenant with 8 apps never armed the admission pump")
	}
}
