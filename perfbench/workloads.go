package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"versaslot"
	"versaslot/internal/cluster"
	"versaslot/internal/fault"
	"versaslot/internal/metrics"
	"versaslot/internal/orchestrator"
	"versaslot/internal/rng"
	"versaslot/internal/sim"
	"versaslot/internal/workload"
)

// Workload sizes. Each repetition is big enough that the simulated
// metrics pool thousands of samples, so they move little from one
// benchmark seed to the next.
const (
	gridSeqs        = 32   // 20-app sequences per condition (paper: 10)
	farmPairs       = 1024 // farm-wide switching pairs
	farmAppsPerPair = 3
	fleetRuns       = 80 // fleet-ops farms per repetition, one seed each
	fleetTenantApps = 40
)

// simStats is everything a repetition reports in simulated units. The
// simulator is deterministic, so two repetitions of one seed must
// produce equal values; any difference is a bug, never noise.
type simStats struct {
	Runs, Guarded       int
	Submitted, Finished int

	RTSamples         int
	MeanRT, P50, P99  float64 // simulated seconds
	UtilLUT, UtilFF   float64
	Fig5Err           float64 // paper-grid only
	SLOMet, SLOFinish int     // fleet-ops SLO tenant

	Events                              uint64
	PRLoads, PRBlocked                  uint64
	PRWait                              float64 // simulated seconds, summed
	CacheHits, CacheMisses              uint64
	LaunchWait                          float64 // simulated seconds, summed
	Switches, MigratedApps              int
	SwitchTime                          float64 // simulated seconds, summed
	CrossMigratedApps, Requeued         int
	Admitted, Rejected, Throttled       int
	ScaleUps, ScaleDowns, DrainMigrated int
	FaultEvents, FailedApps             uint64
	RetriedApps                         int
	AvailSum                            float64
	AvailRuns                           int
}

// repOut is one repetition's result.
type repOut struct {
	sim       simStats
	setup     time.Duration              // input generation + facade call to first event, summed over runs
	gen       time.Duration              // input generation in the benchmark
	build     time.Duration              // facade call to first event on farm runs
	failures  []string                   // why guard-ended runs ended
	lastEvent sim.Time                   // latest final event of any run that finished
	maxGap    sim.Duration               // longest wait between finishes in a farm run that finished
	checks    []string                   // failed output checks
	samples   [][]metrics.ResponseSample // per run, kept in traced runs for the metrics replay
	stream    bool                       // runs used the stream metrics mode
}

type workloadDef struct {
	name string
	rep  func(seed uint64, tr *layerTrace) repOut
}

var workloads = []workloadDef{
	{name: "paper-grid", rep: paperGrid},
	{name: "farm-wide", rep: farmWide},
	{name: "fleet-ops", rep: fleetOps},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// addResult folds the counters of a run that finished into o.
func (o *repOut) addResult(c *runCtx, r *versaslot.Result) {
	o.lastEvent = max(o.lastEvent, c.last)
	o.maxGap = max(o.maxGap, c.maxGap)
	s := &o.sim
	sum := r.Summary
	s.PRLoads += sum.PRLoads
	s.PRBlocked += sum.PRBlocked
	s.PRWait += sum.PRWait.Seconds()
	s.CacheHits += r.CacheHits
	s.CacheMisses += r.CacheMisses
	s.LaunchWait += r.LaunchWait.Seconds()
	s.Switches += r.Switches
	s.MigratedApps += r.MigratedApps
	s.SwitchTime += r.MeanSwitchTime.Seconds() * float64(r.Switches)
	s.CrossMigratedApps += r.CrossMigratedApps
	for _, p := range r.PairStats {
		s.Requeued += p.Requeued
	}
	s.FaultEvents += sum.FaultEvents
	s.FailedApps += sum.FailedApps
	s.RetriedApps += sum.RetriedApps
	if sum.Availability > 0 {
		s.AvailSum += sum.Availability
		s.AvailRuns++
	}
}

// setRT fills the response-time statistics from pooled samples.
func (s *simStats) setRT(rts []float64) {
	s.RTSamples = len(rts)
	if len(rts) == 0 {
		return
	}
	sort.Float64s(rts)
	var sum float64
	for _, v := range rts {
		sum += v
	}
	s.MeanRT = sum / float64(len(rts))
	s.P50 = metrics.Percentile(rts, 50)
	s.P99 = metrics.Percentile(rts, 99)
}

func (o *repOut) fail(runName string, stopped string, err error) {
	o.sim.Guarded++
	msg := stopped
	if err != nil {
		msg = "error: " + err.Error()
	}
	o.failures = append(o.failures, runName+": "+msg)
}

// paperGrid is the paper's own evaluation: every Fig. 5 system on a
// single board, under the four congestion conditions, over gridSeqs
// 20-app sequences each. Response-time and utilization metrics pool the
// versaslot-bl cells only.
func paperGrid(seed uint64, tr *layerTrace) repOut {
	var o repOut
	conds := workload.Conditions()
	rtSum := make([][]float64, len(conds)) // [condition][policy] summed per-run mean RT
	rtN := make([][]int, len(conds))
	var blRT []float64
	var utilLUT, utilFF float64
	var blRuns int
	for ci, cond := range conds {
		rtSum[ci] = make([]float64, len(gridPolicies))
		rtN[ci] = make([]int, len(gridPolicies))
		for si := 0; si < gridSeqs; si++ {
			t0 := time.Now()
			seq := workload.Generate(workload.DefaultGenParams(cond),
				rng.Derive(seed, fmt.Sprintf("paper-grid/%s/%d", cond.Key(), si)))
			gen := time.Since(t0)
			o.gen += gen
			o.setup += gen
			kseed := rng.Derive(seed, fmt.Sprintf("paper-grid/kernel/%d", si))
			for pi, pol := range gridPolicies {
				c := &runCtx{tr: tr}
				out := runGuarded(c, versaslot.Scenario{Policy: decorated + pol, Workload: seq, Seed: kseed})
				o.setup += c.setup()
				o.sim.Events += c.events
				o.sim.Runs++
				o.sim.Submitted += len(seq.Arrivals)
				name := fmt.Sprintf("%s/%s/%d", pol, cond.Key(), si)
				if out.res == nil {
					o.fail(name, out.stopped, out.err)
					continue
				}
				r := out.res
				o.sim.Finished += r.Summary.Apps
				if r.Summary.Apps != len(seq.Arrivals) {
					o.checks = append(o.checks, fmt.Sprintf("%s finished %d of %d apps", name, r.Summary.Apps, len(seq.Arrivals)))
				}
				rtSum[ci][pi] += r.Summary.MeanRT.Seconds()
				rtN[ci][pi]++
				if tr != nil {
					o.samples = append(o.samples, r.Samples)
				}
				if pol != "versaslot-bl" {
					continue
				}
				o.addResult(c, r)
				for _, s := range r.Samples {
					blRT = append(blRT, s.Response.Seconds())
				}
				utilLUT += r.Summary.UtilLUT
				utilFF += r.Summary.UtilFF
				blRuns++
			}
		}
	}
	o.sim.setRT(blRT)
	if blRuns > 0 {
		o.sim.UtilLUT = utilLUT / float64(blRuns)
		o.sim.UtilFF = utilFF / float64(blRuns)
	}
	o.sim.Fig5Err = fig5Error(conds, rtSum, rtN)
	return o
}

// fig5Error is the mean absolute relative error between the simulated
// Fig. 5 reductions (baseline mean RT over each system's mean RT, per
// condition) and the paper's cells.
func fig5Error(conds []workload.Condition, rtSum [][]float64, rtN [][]int) float64 {
	var errSum float64
	var cells int
	for ci, cond := range conds {
		if rtN[ci][0] == 0 {
			continue
		}
		base := rtSum[ci][0] / float64(rtN[ci][0])
		for pi, pol := range gridPolicies[1:] {
			n := rtN[ci][pi+1]
			paper, ok := fig5Paper[cond.Key()][pol]
			if n == 0 || !ok {
				continue
			}
			red := base / (rtSum[ci][pi+1] / float64(n))
			errSum += math.Abs(red-paper) / paper
			cells++
		}
	}
	if cells == 0 {
		return math.NaN()
	}
	return errSum / float64(cells)
}

// farmWide is a 1,024-pair farm under the classic stress generator at
// three apps per pair: mostly idle pairs, so host time goes to the
// kernel's shared event heap and to dispatch over every pair.
func farmWide(seed uint64, tr *layerTrace) repOut {
	return runFarmWide(seed, 1, &runCtx{tr: tr})
}

// runFarmWide runs the farm-wide scenario at a shard width (0 = auto)
// under the run context c.
func runFarmWide(seed uint64, shards int, c *runCtx) repOut {
	var o repOut
	t0 := time.Now()
	p := workload.DefaultGenParams(workload.Stress)
	p.Apps = farmPairs * farmAppsPerPair
	seq := workload.Generate(p, rng.Derive(seed, "farm-wide/workload"))
	o.gen = time.Since(t0)
	out := runGuarded(c, versaslot.Scenario{
		Topology:       versaslot.TopologyFarm,
		Pairs:          farmPairs,
		Workload:       seq,
		Dispatcher:     decorated + cluster.DispatchLeastLoaded,
		RebalanceEvery: 2 * sim.Second,
		Shards:         shards,
		Seed:           rng.Derive(seed, "farm-wide/kernel"),
	})
	o.build = c.setup()
	o.setup = o.gen + o.build
	o.sim.Events = c.events
	o.sim.Runs = 1
	o.sim.Submitted = len(seq.Arrivals)
	if out.res == nil {
		o.fail("farm-wide", out.stopped, out.err)
		return o
	}
	r := out.res
	o.sim.Finished = r.Summary.Apps
	if r.Summary.Apps != len(seq.Arrivals) {
		o.checks = append(o.checks, fmt.Sprintf("farm-wide finished %d of %d apps", r.Summary.Apps, len(seq.Arrivals)))
	}
	o.addResult(c, r)
	rts := make([]float64, len(r.Samples))
	for i, s := range r.Samples {
		rts[i] = s.Response.Seconds()
	}
	o.sim.setRT(rts)
	o.sim.UtilLUT, o.sim.UtilFF = r.Summary.UtilLUT, r.Summary.UtilFF
	if c.tr != nil {
		o.samples = append(o.samples, r.Samples)
	}
	return o
}

// fleetScenario is one fleet-ops farm: two MMPP tenants (a throttled
// batch tenant and a rejecting interactive tenant with an SLO) under
// the autoscaler, a fault mix and stream metrics. The timed workload
// runs it without the rebalancer; with the rebalancer, some farms never
// finish (known defect 2 in NOTES.md), which rebalanceFleetProbe
// measures.
func fleetScenario(seed uint64, rebalance bool) versaslot.Scenario {
	ms := sim.Millisecond
	burst := func() *workload.ArrivalSpec {
		return &workload.ArrivalSpec{Process: "mmpp", BurstMean: 40 * ms, CalmMean: 400 * ms,
			BurstDwell: 2 * sim.Second, CalmDwell: 8 * sim.Second}
	}
	var every sim.Duration
	if rebalance {
		every = 2 * sim.Second
	}
	return versaslot.Scenario{
		Topology:       versaslot.TopologyFarm,
		Condition:      "stress",
		Seed:           seed,
		Pairs:          4,
		Shards:         1,
		Dispatcher:     decorated + cluster.DispatchLeastLoaded,
		RebalanceEvery: every,
		Tenants: []orchestrator.TenantSpec{
			{Name: "batch", Apps: fleetTenantApps, Quota: 12, Priority: 2, Arrival: burst()},
			{Name: "interactive", Apps: fleetTenantApps, Quota: 16, Priority: 1,
				OverQuota: orchestrator.OverQuotaReject, SLO: 4 * sim.Second, Arrival: burst()},
		},
		Autoscale: &orchestrator.AutoscaleSpec{Min: 2, Max: 32, Every: sim.Second, Window: 3, UpLoad: 4, DownLoad: 1},
		Faults: &fault.Spec{Injectors: []fault.InjectorSpec{
			{Kind: "board-fail", MTBF: 60 * sim.Second, MTTR: 2 * sim.Second},
			{Kind: "slot-fail", MTBF: 30 * sim.Second, MTTR: sim.Second},
			{Kind: "straggler", MTBF: 20 * sim.Second, MTTR: 2 * sim.Second, Factor: 2},
			{Kind: "pr-flaky", Rate: 0.05},
			{Kind: "checkpoint", CheckpointBytes: 64, RestoreDelay: ms},
		}},
		Metrics: &versaslot.MetricsSpec{Mode: "stream"},
	}
}

// fleetOps runs fleetRuns fleet-ops farms, one seed each. Response
// times pool the samples of every run that finished, collected through
// engine hooks because stream mode keeps no per-app samples.
func fleetOps(seed uint64, tr *layerTrace) repOut {
	o := repOut{stream: true}
	var rts []float64
	var utilLUT, utilFF, utilW float64
	for i := 0; i < fleetRuns; i++ {
		sc := fleetScenario(rng.Derive(seed, fmt.Sprintf("fleet-ops/%d", i)), false)
		submitted := 0
		for _, t := range sc.Tenants {
			submitted += t.Apps
		}
		c := &runCtx{tr: tr}
		c.keep = true
		out := runGuarded(c, sc)
		o.build += c.setup()
		o.sim.Events += c.events
		o.sim.Runs++
		o.sim.Submitted += submitted
		name := fmt.Sprintf("fleet-ops/%d", i)
		if out.res == nil {
			o.fail(name, out.stopped, out.err)
			continue
		}
		r := out.res
		ledgerSubmitted := 0
		for _, t := range r.Tenants {
			ledgerSubmitted += t.Submitted
			if t.Submitted != t.Admitted+t.Rejected+t.Queued || t.Admitted != t.Finished+t.InFlight {
				o.checks = append(o.checks, fmt.Sprintf("%s tenant %s ledger does not reconcile: %+v", name, t.Tenant, t))
			}
			o.sim.Finished += t.Finished
			o.sim.Admitted += t.Admitted
			o.sim.Rejected += t.Rejected
			o.sim.Throttled += t.Throttled
			if t.SLO > 0 {
				o.sim.SLOFinish += t.Finished
				o.sim.SLOMet += int(math.Round(t.SLOAttainment * float64(t.Finished)))
			}
		}
		if ledgerSubmitted != submitted {
			o.checks = append(o.checks, fmt.Sprintf("%s ledger has %d submissions, the tenants declare %d", name, ledgerSubmitted, submitted))
		}
		if len(c.responses) != r.Summary.Apps {
			o.checks = append(o.checks, fmt.Sprintf("%s hooks saw %d finishes, the summary %d", name, len(c.responses), r.Summary.Apps))
		}
		if a := r.Autoscale; a != nil {
			o.sim.ScaleUps += a.ScaleUps
			o.sim.ScaleDowns += a.ScaleDowns
			o.sim.DrainMigrated += a.DrainedApps
		}
		o.addResult(c, r)
		for _, s := range c.responses {
			rts = append(rts, s.Response.Seconds())
		}
		w := float64(r.Summary.Apps)
		utilLUT += r.Summary.UtilLUT * w
		utilFF += r.Summary.UtilFF * w
		utilW += w
		if tr != nil {
			o.samples = append(o.samples, c.responses)
		}
	}
	o.setup = o.build
	o.sim.setRT(rts)
	if utilW > 0 {
		o.sim.UtilLUT = utilLUT / utilW
		o.sim.UtilFF = utilFF / utilW
	}
	return o
}

// boardFailProbe runs the known board-fail defect scenario (a loaded
// 4-pair farm with board failures and the rebalancer) on a few seeds
// derived from the benchmark seed and reports the share of runs that survive, with the
// reason each other run ended.
func boardFailProbe(seed uint64, seeds int) (survival float64, ends []string) {
	ok := 0
	for i := 0; i < seeds; i++ {
		c := &runCtx{}
		out := runGuarded(c, versaslot.Scenario{
			Topology:       versaslot.TopologyFarm,
			Condition:      "stress",
			Apps:           3000,
			Pairs:          4,
			Shards:         1,
			Dispatcher:     decorated + cluster.DispatchLeastLoaded,
			RebalanceEvery: 2 * sim.Second,
			Seed:           rng.Derive(seed, fmt.Sprintf("board-fail-probe/%d", i)),
			Arrival:        &workload.ArrivalSpec{Process: "poisson", Mean: 20 * sim.Millisecond},
			Faults: &fault.Spec{Injectors: []fault.InjectorSpec{
				{Kind: "board-fail", MTBF: 60 * sim.Second, MTTR: 2 * sim.Second},
			}},
		})
		if probeEnd(out, &ends) {
			ok++
		}
	}
	return float64(ok) / float64(seeds), ends
}

// rebalanceFleetProbe runs the fleet-ops farm with the rebalancer every
// 2 s (known defect 2) on farms seeded from the benchmark seed and
// reports the share of farms that finish, with the reason each other
// farm ended.
func rebalanceFleetProbe(seed uint64, farms int) (survival float64, ends []string) {
	ok := 0
	for i := 0; i < farms; i++ {
		out := runGuarded(&runCtx{}, fleetScenario(rng.Derive(seed, fmt.Sprintf("rebalance-fleet-probe/%d", i)), true))
		if probeEnd(out, &ends) {
			ok++
		}
	}
	return float64(ok) / float64(farms), ends
}

// probeEnd reports whether a probe run finished, and otherwise appends
// why it ended to ends.
func probeEnd(out runOutcome, ends *[]string) bool {
	switch {
	case out.res != nil:
		return true
	case out.err != nil:
		*ends = append(*ends, "error: "+out.err.Error())
	default:
		*ends = append(*ends, out.stopped)
	}
	return false
}
