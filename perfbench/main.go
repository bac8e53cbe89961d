// Command perfbench is the repository's benchmark. It runs one named
// workload through the public versaslot facade for a fixed host time,
// checks the simulated outputs, and prints every metric with its unit;
// the last line of standard output is a JSON summary.
//
//	bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// runs the workload untraced and then traced, and reports per-layer
// metrics; see NOTES.md for what each workload loads and why.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"time"
)

const (
	minReps  = 5
	maxReps  = 400
	maxFails = 5 // guard-ended runs listed in the report
)

// repHost is one repetition's host-side measurement.
type repHost struct {
	wall, cpu, setup, gen, build time.Duration
	// calWall and calCPU time the calibration loop run just before the
	// repetition; they measure how fast the host is at that moment.
	calWall, calCPU time.Duration
	finished        int
	events          uint64
}

// Host-normalized figures: a host time scaled to what it would be on a
// host where the calibration loop takes calRef, the loop's time on an
// undisturbed run of the 2-vCPU sizing host.
func (h repHost) appsPerS() float64 {
	return float64(h.finished) / h.wall.Seconds() * h.calWall.Seconds() / calRef.Seconds()
}

func (h repHost) appsPerCPUS() float64 {
	return float64(h.finished) / h.cpu.Seconds() * h.calCPU.Seconds() / calRef.Seconds()
}

func (h repHost) setupS() float64 {
	return h.setup.Seconds() * calRef.Seconds() / h.calWall.Seconds()
}

// phase is one measured pass over a workload: a warm-up repetition
// that also serves as the determinism reference, then timed
// repetitions until the phase's host time is spent.
type phase struct {
	ref       repOut
	last      repOut
	reps      []repHost
	attempted int
	failed    int
	checks    []string
	profile   []byte
}

func measure(w workloadDef, seed uint64, dur time.Duration, tr *layerTrace) (phase, error) {
	var p phase
	p.ref = w.rep(seed, tr)
	p.checks = append(p.checks, p.ref.checks...)
	if tr != nil {
		*tr = layerTrace{}
	}
	var prof bytes.Buffer
	if tr != nil {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return p, fmt.Errorf("start CPU profile: %w", err)
		}
	}
	start := time.Now()
	for len(p.reps) < minReps || (time.Since(start) < dur && len(p.reps) < maxReps) {
		// Each repetition starts from a collected heap, so garbage of
		// the one before neither lands in its time nor in the peak RSS.
		runtime.GC()
		// The traced phase skips the calibration loop, which would
		// otherwise show in its CPU profile and allocation counts.
		var calWall, calCPU time.Duration
		var rt0 runtimeSample
		if tr == nil {
			calWall, calCPU = calibrate()
		} else {
			rt0 = readRuntime()
		}
		t0, c0 := time.Now(), processCPU()
		o := w.rep(seed, tr)
		h := repHost{wall: time.Since(t0), cpu: processCPU() - c0,
			setup: o.setup, gen: o.gen, build: o.build,
			calWall: calWall, calCPU: calCPU,
			finished: o.sim.Finished, events: o.sim.Events}
		if tr != nil {
			tr.addRuntime(rt0, readRuntime())
		}
		if o.sim != p.ref.sim {
			p.checks = append(p.checks, fmt.Sprintf("determinism: repetition %d simulated %+v, the first %+v", len(p.reps)+1, o.sim, p.ref.sim))
		}
		p.attempted += o.sim.Runs
		p.failed += o.sim.Guarded
		p.reps = append(p.reps, h)
		p.last = o
	}
	if tr != nil {
		pprof.StopCPUProfile()
		p.profile = prof.Bytes()
	}
	return p, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func rawWall(h repHost) float64 { return float64(h.finished) / h.wall.Seconds() }

// values maps every repetition through f.
func (p *phase) values(f func(repHost) float64) []float64 {
	xs := make([]float64, len(p.reps))
	for i, r := range p.reps {
		xs[i] = f(r)
	}
	return xs
}

// over returns the median of f over the repetitions.
func (p *phase) over(f func(repHost) float64) float64 { return median(p.values(f)) }

// spread is the interquartile range of f over the repetitions as a
// share of its median, printed beside each host metric.
func (p *phase) spread(f func(repHost) float64) float64 {
	xs := p.values(f)
	sort.Float64s(xs)
	q := func(f float64) float64 { return xs[int(f*float64(len(xs)-1)+0.5)] }
	return (q(0.75) - q(0.25)) / median(xs)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	metrics map[string]metric
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) add(name string, v float64, unit, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{v, unit}
	if note != "" {
		note = "  # " + note
	}
	fmt.Printf("metric %-34s %-16.6g %-6s%s\n", name, v, unit, note)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: paper-grid, farm-wide or fleet-ops")
	seed := flag.Uint64("seed", 1, "workload seed; every input derives from it")
	seconds := flag.Int("seconds", 20, "host seconds of timed repetitions")
	traceFlag := flag.Int("trace", 0, "1 = per-layer traced run, 0 = end-to-end run")
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (paper-grid|farm-wide|fleet-ops), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	if err := registerDecorators(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	// The simulator runs on one goroutine. One P keeps the garbage
	// collector on the same thread, so a repetition and the calibration
	// loop before it run alike: one thread on one vCPU at a time. Only
	// the shard-width comparison uses more.
	runtime.GOMAXPROCS(1)
	host := stampHost()
	ticks0, ticksOK := readCPUTicks()
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *traceFlag)
	fmt.Printf("# host nproc=%d gomaxprocs=%d go=%s cpu=%q\n", host.NProc, host.GOMAXPROCS, host.GoVersion, host.CPUModel)

	dur := time.Duration(*seconds) * time.Second
	rep := newReport()
	var checks []string
	var attempted, failed int
	if *traceFlag == 0 {
		p, err := measure(w, *seed, dur, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		checks, attempted, failed = p.checks, p.attempted, p.failed
		endToEnd(rep, w, &p)
	} else {
		var err error
		checks, attempted, failed, err = perLayer(rep, w, *seed, dur)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	ticks1, ok1 := readCPUTicks()
	steal := stealShare(ticks0, ticks1, ticksOK && ok1)
	fmt.Printf("# host steal_share=%.4f over the run (from /proc/stat)\n", steal)
	if *traceFlag == 1 {
		rep.add("host.steal_share", steal, "ratio", "CPU time stolen from this host's vCPUs during the run")
	}
	for _, c := range checks {
		fmt.Printf("# CHECK FAILED: %s\n", c)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(checks) == 0, attempted, failed, rep.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func printFailures(p *phase) {
	fails := p.ref.failures
	fmt.Printf("# guard-ended runs per repetition: %d of %d\n", len(fails), p.ref.sim.Runs)
	fmt.Printf("# runs that finished: last event at %.1f simulated s at the latest; longest wait between app finishes on a farm %.1f s\n",
		p.ref.lastEvent.Seconds(), p.ref.maxGap.Seconds())
	for i, f := range fails {
		if i == maxFails {
			fmt.Printf("#   ... %d more\n", len(fails)-maxFails)
			break
		}
		fmt.Printf("#   %s\n", f)
	}
}

// endToEnd reports the user-visible metrics of an untraced phase.
func endToEnd(r *report, w workloadDef, p *phase) {
	s := p.ref.sim
	fmt.Printf("# %d timed repetitions after one warm-up; host metrics are medians over them, spread = IQR/median\n", len(p.reps))
	printFailures(p)
	rawCPU := func(h repHost) float64 { return float64(h.finished) / h.cpu.Seconds() }
	rawSetup := func(h repHost) float64 { return h.setup.Seconds() }
	rates := make([]string, len(p.reps))
	for i, h := range p.reps {
		rates[i] = fmt.Sprintf("%.0f", h.appsPerS())
	}
	fmt.Printf("# apps_per_s of each repetition: %s\n", strings.Join(rates, " "))
	fmt.Printf("# calibration loop: median %.2f ms wall, %.2f ms CPU; reference %.0f ms\n",
		p.over(func(h repHost) float64 { return h.calWall.Seconds() * 1e3 }),
		p.over(func(h repHost) float64 { return h.calCPU.Seconds() * 1e3 }), calRef.Seconds()*1e3)
	r.add("apps_per_s", p.over(repHost.appsPerS), "1/s",
		fmt.Sprintf("simulated apps finished per host wall-second, host-normalized; %d apps per repetition; spread %.3f; raw %.1f",
			s.Finished, p.spread(repHost.appsPerS), p.over(rawWall)))
	r.add("apps_per_cpu_s", p.over(repHost.appsPerCPUS), "1/s",
		fmt.Sprintf("per host CPU-second (user+sys) of the process, host-normalized; spread %.3f; raw %.1f",
			p.spread(repHost.appsPerCPUS), p.over(rawCPU)))
	r.add("setup_s", p.over(repHost.setupS), "s",
		fmt.Sprintf("input generation + build before the first event, over %d runs, host-normalized; spread %.3f; raw %.6f",
			s.Runs, p.spread(repHost.setupS), p.over(rawSetup)))
	r.add("peak_rss_mb", peakRSSMB(), "MB", "peak resident memory of the process")
	pool := "all finished apps"
	if w.name == "paper-grid" {
		pool = "versaslot-bl cells only"
	}
	r.add("sim_mean_rt_s", s.MeanRT, "s", fmt.Sprintf("simulated; n=%d samples, %s", s.RTSamples, pool))
	r.add("sim_p50_rt_s", s.P50, "s", fmt.Sprintf("simulated; n=%d samples", s.RTSamples))
	r.add("sim_p99_rt_s", s.P99, "s", fmt.Sprintf("simulated; n=%d samples, %d beyond p99", s.RTSamples, s.RTSamples/100))
	r.add("sim_util_lut", s.UtilLUT, "ratio", "simulated LUT utilization")
	r.add("sim_util_ff", s.UtilFF, "ratio", "simulated FF utilization")
	r.add("finished_share", ratio(float64(s.Finished), float64(s.Submitted)),
		"ratio", fmt.Sprintf("%d of %d submitted apps finished; rejected, unfinished and guard-ended count as not finished", s.Finished, s.Submitted))
	if w.name == "paper-grid" {
		r.add("sim_fig5_err", s.Fig5Err, "ratio",
			fmt.Sprintf("calibration error vs the paper's 20 Fig. 5 cells over %d sequences per condition; the model is unvalidated on held-out data", gridSeqs))
	} else {
		r.add("sim_fig5_err", 1, "ratio", "n/a: only paper-grid runs the Fig. 5 grid; reported as 1")
	}
	if w.name == "fleet-ops" {
		r.add("sim_slo_attainment", ratio(float64(s.SLOMet), float64(s.SLOFinish)), "ratio",
			fmt.Sprintf("SLO tenant: %d of %d finished apps within the SLO", s.SLOMet, s.SLOFinish))
	} else {
		r.add("sim_slo_attainment", 1, "ratio", "n/a: no tenant has an SLO on this workload; reported as 1")
	}
}

// perLayer runs the workload untraced and then traced, checks that the
// two simulate identically, and reports the per-layer metrics.
func perLayer(r *report, w workloadDef, seed uint64, dur time.Duration) (checks []string, attempted, failed int, err error) {
	plain, err := measure(w, seed, dur/2, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	tr := &layerTrace{}
	traced, err := measure(w, seed, dur/2, tr)
	if err != nil {
		return nil, 0, 0, err
	}
	checks = append(plain.checks, traced.checks...)
	if traced.ref.sim != plain.ref.sim {
		checks = append(checks, fmt.Sprintf("tracing changed the simulation: traced %+v, untraced %+v", traced.ref.sim, plain.ref.sim))
	}
	attempted = plain.attempted + traced.attempted
	failed = plain.failed + traced.failed
	s := plain.ref.sim
	n := float64(len(traced.reps))
	bypassed := func(zero bool, what string) string {
		if zero {
			return "bypassed on this workload"
		}
		return what
	}
	farm := w.name != "paper-grid"
	fmt.Printf("# %d untraced and %d traced repetitions; host times are medians over the untraced ones\n", len(plain.reps), len(traced.reps))
	printFailures(&plain)
	untracedRate, tracedRate := plain.over(rawWall), traced.over(rawWall)
	r.add("trace.overhead_share", 1-ratio(tracedRate, untracedRate), "ratio",
		fmt.Sprintf("raw apps_per_s untraced %.1f vs traced %.1f", untracedRate, tracedRate))

	genNote := "benchmark-side input generation per repetition"
	if w.name == "fleet-ops" {
		genNote = "bypassed: tenant inputs are generated inside the facade, counted in cluster.build_s"
	}
	r.add("workload.gen_s", plain.over(func(h repHost) float64 { return h.gen.Seconds() }), "s", genNote)
	r.add("cluster.build_s", plain.over(func(h repHost) float64 { return h.build.Seconds() }), "s",
		bypassed(!farm, "facade call to first event on farm runs, per repetition"))
	r.add("cluster.pick_calls", ratio(float64(tr.pickCalls), n), "count", bypassed(!farm, "dispatcher Pick calls per repetition"))
	r.add("cluster.pick_ns", ratio(float64(tr.pickNs), float64(tr.pickCalls)), "ns", bypassed(!farm, "host ns per Pick"))
	r.add("cluster.cross_migrated_apps", float64(s.CrossMigratedApps), "count", "cross-pair migrated apps per repetition (rebalancer and autoscaler drains)")
	r.add("cluster.requeued", float64(s.Requeued), "count", "apps returned to their own pair's queue for want of a destination")
	shardsW, wallRatio, cpuRatio := 0.0, 0.0, 0.0
	if w.name == "farm-wide" {
		shardsW, wallRatio, cpuRatio = shardComparison(seed)
	}
	note := "auto-chosen shard width vs 1, medians of alternating runs; report-only"
	if w.name != "farm-wide" {
		note = "compared on farm-wide only"
	}
	r.add("cluster.shards", shardsW, "count", note)
	r.add("cluster.shard_wall_ratio", wallRatio, "ratio", note)
	r.add("cluster.shard_cpu_ratio", cpuRatio, "ratio", note)

	r.add("sim.events", float64(s.Events), "count", "kernel events per repetition")
	r.add("sim.events_per_app", ratio(float64(s.Events), float64(s.Submitted)), "count", "per submitted app")
	r.add("sim.pending_peak", float64(tr.pendingPeak), "count", "largest pending-event count seen in one kernel")
	r.add("sim.host_ns_per_event", plain.over(func(h repHost) float64 {
		return ratio(float64((h.wall - h.setup).Nanoseconds()), float64(h.events))
	}), "ns", "untraced repetition wall time after set-up per event")
	r.add("sim.step_ns", stepNs(tr.pendingPeak, seed), "ns", "Schedule+Step loop on a fresh kernel at pending_peak depth")

	r.add("sched.schedule_calls", ratio(float64(tr.scheduleCalls), n), "count", "Policy.Schedule calls per repetition")
	r.add("sched.schedule_ns", ratio(float64(tr.scheduleNs), float64(tr.scheduleCalls)), "ns", "host ns per Schedule")

	r.add("pcap.pr_loads", float64(s.PRLoads), "count", "simulated partial reconfigurations per repetition")
	r.add("pcap.pr_blocked_share", ratio(float64(s.PRBlocked), float64(s.PRLoads)), "ratio", "loads that queued behind another")
	r.add("pcap.pr_wait_s", ratio(s.PRWait, float64(s.PRLoads)), "s", "simulated PCAP wait per load")
	r.add("bitstream.cache_hit_share", ratio(float64(s.CacheHits), float64(s.CacheHits+s.CacheMisses)), "ratio", "simulated bitstream cache")
	r.add("hypervisor.launch_wait_s", ratio(s.LaunchWait, float64(s.RTSamples)), "s", "simulated launch wait on the scheduler CPU per finished app")
	if w.name == "paper-grid" {
		fmt.Println("# pcap/bitstream/hypervisor pool the versaslot-bl cells, like the response times")
	}

	r.add("migrate.switches", float64(s.Switches), "count", "intra-pair board switches per repetition")
	r.add("migrate.migrated_apps", float64(s.MigratedApps), "count", "apps moved by them")
	r.add("migrate.mean_switch_s", ratio(s.SwitchTime, float64(s.Switches)), "s", "simulated time per switch")

	obsNs, sumS := replayMetrics(traced.last.samples, traced.last.stream)
	mode := "exact"
	if traced.last.stream {
		mode = "stream"
	}
	r.add("metrics.observe_ns", obsNs, "ns", "RecordResponse replaying one repetition's samples into fresh "+mode+"-mode collectors")
	r.add("metrics.summarize_s", sumS, "s", "Summarize of those collectors, per repetition")

	r.add("orchestrator.admitted", float64(s.Admitted), "count", bypassed(s.Admitted == 0, "per repetition"))
	r.add("orchestrator.rejected", float64(s.Rejected), "count", "")
	r.add("orchestrator.throttled", float64(s.Throttled), "count", "")
	r.add("orchestrator.scale_ups", float64(s.ScaleUps), "count", "")
	r.add("orchestrator.scale_downs", float64(s.ScaleDowns), "count", "")
	r.add("orchestrator.drain_migrated", float64(s.DrainMigrated), "count", "")

	r.add("fault.events", float64(s.FaultEvents), "count", "injected failures per repetition")
	r.add("fault.failed_apps", float64(s.FailedApps), "count", "crash-restarted apps")
	r.add("fault.retried_apps", float64(s.RetriedApps), "count", "apps with retried reconfigurations")
	r.add("fault.availability", ratio(s.AvailSum, float64(s.AvailRuns)), "ratio", bypassed(s.AvailRuns == 0, "mean slot availability over runs with faults"))
	r.add("fault.guarded_runs", float64(s.Guarded), "count", fmt.Sprintf("guard-ended runs per repetition, of %d", s.Runs))
	survival, ends := boardFailProbe(seed, 3)
	r.add("fault.board_fail_survival", survival, "ratio", "known defect probe: 4-pair farm, 3,000 stress apps, board-fail MTBF 60 s")
	for _, e := range ends {
		fmt.Printf("#   board-fail probe run ended: %s\n", e)
	}
	survival, ends = rebalanceFleetProbe(seed, fleetRuns)
	r.add("fault.rebalance_fleet_survival", survival, "ratio",
		fmt.Sprintf("known defect probe: %d fleet-ops farms with the rebalancer every 2 s", fleetRuns))
	for i, e := range ends {
		if i == maxFails {
			fmt.Printf("#   ... %d more\n", len(ends)-maxFails)
			break
		}
		fmt.Printf("#   rebalance-fleet probe run ended: %s\n", e)
	}

	finished := 0
	for _, h := range traced.reps {
		finished += h.finished
	}
	r.add("runtime.alloc_bytes_per_app", ratio(tr.allocBytes, float64(finished)), "B", "heap bytes allocated per finished app (traced run)")
	r.add("runtime.allocs_per_app", ratio(tr.allocs, float64(finished)), "count", "heap objects allocated per finished app")
	r.add("runtime.gc_cpu_share", ratio(tr.gcCPU, tr.totalCPU), "ratio", "GC share of the process's CPU time")

	shares, samples, err := cpuShares(traced.profile)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("read CPU profile: %w", err)
	}
	fmt.Printf("# CPU profile of the traced repetitions: %d samples; self time by package\n", samples)
	var other []string
	for k, v := range shares {
		if !slices.Contains(cpuShareLayers, k) {
			other = append(other, fmt.Sprintf("%s=%.3f", k, v))
		}
	}
	sort.Strings(other)
	fmt.Printf("# cpu_share of other packages: %s\n", strings.Join(other, " "))
	for _, l := range cpuShareLayers {
		r.add("cpu_share."+l, shares[l], "ratio", "")
	}
	return checks, attempted, failed, nil
}

// shardComparison runs farm-wide at the automatic shard width and at
// one shard, alternating, and returns the automatic width and the
// ratios of their median wall and CPU times.
func shardComparison(seed uint64) (width, wallRatio, cpuRatio float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	const pairs = 3
	var wall, cpu [2][]float64
	for i := 0; i < pairs; i++ {
		for j, shards := range []int{0, 1} {
			c := &runCtx{bare: true}
			t0, c0 := time.Now(), processCPU()
			runFarmWide(seed, shards, c)
			wall[j] = append(wall[j], time.Since(t0).Seconds())
			cpu[j] = append(cpu[j], (processCPU() - c0).Seconds())
			if shards == 0 {
				width = float64(c.shards)
			}
		}
	}
	return width, ratio(median(wall[0]), median(wall[1])), ratio(median(cpu[0]), median(cpu[1]))
}
