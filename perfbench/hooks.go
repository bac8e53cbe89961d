package main

import (
	"fmt"
	"time"

	"versaslot"
	"versaslot/internal/appmodel"
	"versaslot/internal/cluster"
	"versaslot/internal/metrics"
	"versaslot/internal/migrate"
	"versaslot/internal/sched"
	"versaslot/internal/sim"
)

// The benchmark reaches into a facade run only through public
// extension points: it registers decorated copies of the scheduling
// policies and of the least-loaded dispatcher. Their Init hands the
// benchmark the run's kernel and engines, where it installs the run
// guard (a sim.Tracer), engine hooks and, in the traced run, timing
// wrappers. Decorators only forward calls, so every simulated result
// equals the undecorated run's.
const decorated = "perfbench-"

// cur is the run the decorators attach to. Facade runs execute one at a
// time on the main goroutine (farms are pinned to one shard), so a
// single slot suffices.
var cur *runCtx

// Guard bounds for one facade run, far past what any run that
// finishes takes. A finished farm keeps firing timer events (fault
// chains, autoscaler ticks) for up to about 10 simulated minutes after
// its last app, so the stall bound applies only while the farm still
// holds unfinished apps.
const (
	simBound   = sim.Time(24 * time.Hour)
	stallBound = sim.Duration(2 * time.Minute)
	hostBound  = 20 * time.Second
)

// guardStop is the panic value the guard raises to end a run.
type guardStop struct{ reason string }

// runCtx is the benchmark-side state of one facade run.
type runCtx struct {
	quiescent  func() bool  // the farm's Quiescent; nil for single boards
	lastFinish sim.Time     // when an app last finished
	maxGap     sim.Duration // longest time between two finishes

	start  time.Time // when the facade call began
	first  time.Time // when the first simulated event fired
	last   sim.Time  // when the last simulated event fired
	events uint64
	shards int

	tr        *layerTrace              // nil in untraced runs
	responses []metrics.ResponseSample // filled when keep is set
	keep      bool                     // collect samples through engine hooks
	bare      bool                     // attach nothing (shard-width comparison)
}

// guard is the run's kernel tracer. It stamps the first event (the end
// of set-up), counts events, and ends a run that passes its bounds.
type guard struct {
	c *runCtx
	k *sim.Kernel
}

func (g *guard) Event(at sim.Time) {
	c := g.c
	c.events++
	if c.events == 1 {
		c.first = time.Now()
	}
	c.last = at
	if at > simBound {
		panic(guardStop{fmt.Sprintf("simulated time passed %v", sim.Duration(simBound))})
	}
	if c.quiescent != nil && at.Sub(c.lastFinish) > stallBound && !c.quiescent() {
		panic(guardStop{fmt.Sprintf("no app finished for %v while the farm held unfinished apps", stallBound)})
	}
	if c.events&(1<<14-1) == 0 && time.Since(c.start) > hostBound {
		panic(guardStop{fmt.Sprintf("host time passed %v", hostBound)})
	}
	if c.tr != nil {
		if p := g.k.Pending(); p > c.tr.pendingPeak {
			c.tr.pendingPeak = p
		}
	}
}

func (c *runCtx) attachKernel(k *sim.Kernel) { k.SetTracer(&guard{c: c, k: k}) }

// attachEngine installs the per-engine hooks of a farm board: finish
// tracking for the stall bound, sample collection when keep is set,
// and in traced runs a timing decorator around the policy (farm boards
// build their policies directly, not through the registry).
func (c *runCtx) attachEngine(e *sched.Engine) {
	if c.tr != nil {
		e.SetPolicy(newTimedPolicy(e.Policy(), false))
	}
	prev := e.OnAppFinished
	e.OnAppFinished = func(a *appmodel.App) {
		if prev != nil {
			prev(a)
		}
		c.maxGap = max(c.maxGap, a.Finish.Sub(c.lastFinish))
		c.lastFinish = a.Finish
		if c.keep {
			c.responses = append(c.responses, metrics.ResponseSample{
				AppID: a.ID, Spec: a.Spec.Name, Batch: a.Batch,
				Arrival: a.Arrival, Finish: a.Finish,
				Response: a.ResponseTime(), QueueDelay: a.QueueDelay(),
			})
		}
	}
}

// runOutcome is how a guarded facade run ended.
type runOutcome struct {
	res     *versaslot.Result
	err     error  // the facade returned an error
	stopped string // non-empty when the guard ended the run or a panic was recovered
}

// runGuarded executes one scenario through the facade under the guard.
// A recovered panic and a guard stop both end the run as failed; a run
// that finishes is untouched by the guard.
func runGuarded(c *runCtx, s versaslot.Scenario) (out runOutcome) {
	cur = c
	defer func() { cur = nil }()
	defer func() {
		if r := recover(); r != nil {
			out.res = nil
			if g, ok := r.(guardStop); ok {
				out.stopped = "guard: " + g.reason
			} else {
				out.stopped = fmt.Sprintf("panic: %v", r)
			}
		}
	}()
	c.start = time.Now()
	out.res, out.err = versaslot.Run(s)
	return out
}

// setup is the host time from the facade call to the first simulated
// event: scenario validation, topology build and workload injection.
func (c *runCtx) setup() time.Duration {
	if c.first.IsZero() {
		return time.Since(c.start)
	}
	return c.first.Sub(c.start)
}

// timedPolicy forwards every call to the wrapped policy and, in traced
// runs, times Schedule.
type timedPolicy struct {
	inner sched.Policy
	// fromRegistry marks an instance built by the registry factory:
	// the engine's SetPolicy call is its first Init. A policy wrapped
	// after the fact is already initialized.
	fromRegistry bool
}

// timedLimiter keeps the optional MigrationLimiter extension visible
// through the decorator, so the farm rebalancer takes the same path.
type timedLimiter struct{ *timedPolicy }

func (p timedLimiter) ExtractMigratableUpTo(n int) []*appmodel.App {
	return p.inner.(sched.MigrationLimiter).ExtractMigratableUpTo(n)
}

func newTimedPolicy(inner sched.Policy, fromRegistry bool) sched.Policy {
	p := &timedPolicy{inner: inner, fromRegistry: fromRegistry}
	if _, ok := inner.(sched.MigrationLimiter); ok {
		return timedLimiter{p}
	}
	return p
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Init(e *sched.Engine) {
	if !p.fromRegistry {
		return
	}
	p.inner.Init(e)
	if c := cur; c != nil && !c.bare {
		c.attachKernel(e.K)
	}
}

func (p *timedPolicy) AppArrived(a *appmodel.App) { p.inner.AppArrived(a) }

func (p *timedPolicy) Schedule() {
	tr := cur.tracer()
	if tr == nil {
		p.inner.Schedule()
		return
	}
	t0 := time.Now()
	p.inner.Schedule()
	tr.scheduleNs += time.Since(t0).Nanoseconds()
	tr.scheduleCalls++
}

func (p *timedPolicy) AppFinished(a *appmodel.App)         { p.inner.AppFinished(a) }
func (p *timedPolicy) ExtractMigratable() []*appmodel.App  { return p.inner.ExtractMigratable() }
func (p *timedPolicy) AcceptMigrated(apps []*appmodel.App) { p.inner.AcceptMigrated(apps) }

func (c *runCtx) tracer() *layerTrace {
	if c == nil {
		return nil
	}
	return c.tr
}

// timedDispatch decorates a farm dispatcher: Init attaches the guard
// and hooks to the farm, Pick is timed in traced runs.
type timedDispatch struct{ inner cluster.Dispatcher }

func (d *timedDispatch) Name() string { return decorated + d.inner.Name() }

func (d *timedDispatch) Init(f *cluster.Farm) {
	d.inner.Init(f)
	c := cur
	if c == nil {
		return
	}
	c.shards = f.ShardCount()
	if c.bare {
		return
	}
	c.attachKernel(f.K)
	c.quiescent = f.Quiescent
	for _, pair := range f.Pairs {
		for _, mode := range []migrate.Mode{migrate.Base, migrate.Boost} {
			c.attachEngine(pair.Engine(mode))
		}
	}
}

func (d *timedDispatch) Pick(a *appmodel.App) int {
	tr := cur.tracer()
	if tr == nil {
		return d.inner.Pick(a)
	}
	t0 := time.Now()
	i := d.inner.Pick(a)
	tr.pickNs += time.Since(t0).Nanoseconds()
	tr.pickCalls++
	return i
}

// PoolChanged forwards the optional PoolAware extension.
func (d *timedDispatch) PoolChanged(f *cluster.Farm) {
	if pa, ok := d.inner.(cluster.PoolAware); ok {
		pa.PoolChanged(f)
	}
}

// registerDecorators adds the decorated policies and dispatcher to the
// facade's registries.
func registerDecorators() error {
	for _, name := range gridPolicies {
		reg, ok := sched.Lookup(name)
		if !ok {
			return fmt.Errorf("policy %q is not registered", name)
		}
		// The copy keeps the platform, core model and platform check
		// of the original registration.
		r := *reg
		r.Name, r.Aliases = decorated+reg.Name, nil
		factory := reg.Factory
		r.Factory = func() sched.Policy { return newTimedPolicy(factory(), true) }
		if err := sched.Register(r); err != nil {
			return err
		}
	}
	return cluster.RegisterDispatcher(cluster.DispatcherReg{
		Name: decorated + cluster.DispatchLeastLoaded,
		Factory: func() cluster.Dispatcher {
			d, err := cluster.NewDispatcher(cluster.DispatchLeastLoaded)
			if err != nil {
				panic(err) // a built-in; only a broken registry gets here
			}
			return &timedDispatch{inner: d}
		},
	})
}
