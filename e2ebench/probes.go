package main

import (
	"fmt"
	"math/rand"
	"time"

	"superglue/internal/cbuf"
	"superglue/internal/core"
	"superglue/internal/experiments"
	"superglue/internal/idl"
	"superglue/internal/kernel"
	"superglue/internal/obs"
	"superglue/internal/services/event"
	"superglue/internal/services/lock"
	"superglue/internal/services/mm"
	"superglue/internal/services/ramfs"
	"superglue/internal/services/sched"
	"superglue/internal/services/timer"
	"superglue/internal/storage"
	"superglue/internal/swifi"
	"superglue/internal/webserver"
)

// The layer probes time calls into each layer's public entry points
// with the workload's inputs. Every probe repeats its measurement and
// keeps the median; a probe that runs its layer through a harness with
// fixed set-up cost times the harness at n operations and at zero and
// divides the difference by n.

const probeReps = 5

// prober collects per-layer metrics and wraps each probe in a span.
type prober struct {
	seed    int64
	http    httpConfig
	log     *spanLog
	metrics map[string]float64
}

func (p *prober) set(name string, v float64) { p.metrics[name] = v }

// run times one probe as a span.
func (p *prober) run(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	p.log.add("probe."+name, 0, -1, start, time.Now())
	if err != nil {
		return fmt.Errorf("probe %s: %w", name, err)
	}
	return nil
}

// sink keeps probed results alive so the compiler cannot drop the calls.
var sink any

// timed runs fn once and returns its wall time and heap allocations.
func timed(fn func() error) (time.Duration, uint64, error) {
	a0 := allocsNow()
	t0 := time.Now()
	err := fn()
	return time.Since(t0), allocsNow() - a0, err
}

// perOp returns the median time (ns) and allocations per operation of
// harness(n) over harness(0), over probeReps repetitions.
func perOp(n int, harness func(n int) error) (ns, allocs float64, err error) {
	var nss, als []float64
	for r := 0; r < probeReps; r++ {
		t0, a0, err := timed(func() error { return harness(0) })
		if err != nil {
			return 0, 0, err
		}
		tn, an, err := timed(func() error { return harness(n) })
		if err != nil {
			return 0, 0, err
		}
		nss = append(nss, float64(tn-t0)/float64(n))
		als = append(als, (float64(an)-float64(a0))/float64(n))
	}
	return median(nss), median(als), nil
}

// loop returns the median time (ns) and allocations per call of n calls
// of fn, over probeReps repetitions.
func loop(n int, fn func(i int) error) (ns, allocs float64, err error) {
	var nss, als []float64
	for r := 0; r < probeReps; r++ {
		t, a, err := timed(func() error {
			for i := 0; i < n; i++ {
				if err := fn(i); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return 0, 0, err
		}
		nss = append(nss, float64(t)/float64(n))
		als = append(als, float64(a)/float64(n))
	}
	return median(nss), median(als), nil
}

// fromStart times a harness that calls start right before its timed
// loop (the experiments.*Bench convention), per operation.
func fromStart(n int, harness func(n int, start func()) error) (ns, allocs float64, err error) {
	var nss, als []float64
	for r := 0; r < probeReps; r++ {
		var t0 time.Time
		var a0 uint64
		err := harness(n, func() { a0 = allocsNow(); t0 = time.Now() })
		t, a := time.Since(t0), allocsNow()-a0
		if err != nil {
			return 0, 0, err
		}
		nss = append(nss, float64(t)/float64(n))
		als = append(als, float64(a)/float64(n))
	}
	return median(nss), median(als), nil
}

// webserverLayer probes request parsing and response rendering over the
// workload's request mix, and the same server run in process.
func (p *prober) webserverLayer() error {
	s := newSite(webserver.DefaultFiles())
	mix := requestMix(p.seed, len(s.paths))
	const n = 20_000
	ns, allocs, err := loop(n, func(i int) error {
		req, err := webserver.ParseRequest(s.reqs[mix[i%mixLen]])
		sink = req
		return err
	})
	if err != nil {
		return err
	}
	p.set("webserver.parse_ns", ns)
	p.set("webserver.parse_allocs", allocs)
	ns, allocs, err = loop(n, func(i int) error {
		sink = webserver.FormatResponse(200, s.files[s.paths[mix[i%mixLen]]])
		return nil
	})
	if err != nil {
		return err
	}
	p.set("webserver.format_ns", ns)
	p.set("webserver.format_allocs", allocs)

	cfg := p.http.server(s.files)
	cfg.Requests = 20_000
	var rps []float64
	for r := 0; r < 3; r++ {
		st, err := runInProc(cfg)
		if err != nil {
			return err
		}
		rps = append(rps, st.Throughput)
	}
	p.set("webserver.inproc_rps", median(rps))
	// The one-core machine's virtual clock does not advance on the
	// request path, so the tick count is read from the same traffic on
	// two simulated cores, where each request pays dispatch quanta and
	// migration charges.
	cfg.Cores = 2
	st, err := runInProc(cfg)
	if err != nil {
		return err
	}
	p.set("kernel.vticks_per_req", float64(st.VirtualTicks)/float64(st.Completed))
	return nil
}

// runInProc runs the server in process and checks that every request
// completed without error.
func runInProc(cfg webserver.Config) (*webserver.Stats, error) {
	st, err := webserver.Run(cfg)
	if err == nil && (st.Errors > 0 || st.Completed != cfg.Requests) {
		err = fmt.Errorf("webserver.Run: %d of %d completed, %d errors", st.Completed, cfg.Requests, st.Errors)
	}
	return st, err
}

// kernelLayer probes synchronous invocation, same-core and cross-core.
func (p *prober) kernelLayer() error {
	ns, allocs, err := fromStart(200_000, experiments.KernelInvokeBench)
	if err != nil {
		return err
	}
	p.set("kernel.invoke_ns", ns)
	p.set("kernel.invoke_allocs", allocs)
	ns, _, err = fromStart(100_000, experiments.KernelInvokeCrossCoreBench)
	if err != nil {
		return err
	}
	p.set("kernel.invoke_xcore_ns", ns)
	return nil
}

// coreLayer probes each service's micro-op through the SuperGlue stub
// (tracking) and through the bare binding (the service body), and one
// µ-reboot plus recovery of the service.
func (p *prober) coreLayer() error {
	for _, svc := range swifi.Targets() {
		svc := svc
		track, allocs, err := perOp(20_000, func(n int) error {
			return experiments.RunMicrobench(svc, experiments.KindSuperGlue, n)
		})
		if err != nil {
			return fmt.Errorf("%s tracking: %w", svc, err)
		}
		base, _, err := perOp(20_000, func(n int) error {
			return experiments.RunMicrobench(svc, experiments.KindBase, n)
		})
		if err != nil {
			return fmt.Errorf("%s base: %w", svc, err)
		}
		rec, _, err := perOp(300, func(n int) error {
			return experiments.RunRecoveryBench(svc, experiments.KindSuperGlue, n)
		})
		if err != nil {
			return fmt.Errorf("%s recovery: %w", svc, err)
		}
		p.set("core.track_ns."+svc, track)
		p.set("core.track_allocs."+svc, allocs)
		p.set("services.body_ns."+svc, base)
		p.set("core.stub_overhead."+svc, stubOverhead(track, base))
		p.set("core.recovery_us."+svc, rec/1e3)
	}
	return nil
}

// storageLayer probes descriptor resolution through one and three
// replicas (ids remapped twice, as by two faults) and a quorum write.
func (p *prober) storageLayer() error {
	for _, r := range []int{1, 3} {
		st := storage.NewReplicated(cbuf.NewManager(0), r)
		st.Attach(kernel.ComponentID(42))
		const ids = 64
		for i := kernel.Word(1); i <= ids; i++ {
			st.Remap(1, i, i+1000)
			st.Remap(1, i+1000, i+2000)
		}
		var got kernel.Word
		ns, allocs, err := loop(50_000, func(i int) error {
			got = st.Resolve(1, kernel.Word(i%ids+1))
			return nil
		})
		if err != nil {
			return err
		}
		if want := kernel.Word((50_000-1)%ids + 2001); got != want {
			return fmt.Errorf("Resolve with %d replicas returned %d, want %d", r, got, want)
		}
		p.set(fmt.Sprintf("storage.resolve_ns.r%d", r), ns)
		if r == 3 {
			p.set("storage.resolve_allocs.r3", allocs)
		}
	}
	ns, allocs, err := fromStart(2_000, experiments.StorageQuorumWriteBench)
	if err != nil {
		return err
	}
	p.set("storage.quorum_write_ns", ns)
	p.set("storage.quorum_write_allocs", allocs)
	return nil
}

// idlSources are the builtin specs a campaign compiles.
var idlSources = map[string]string{
	"sched": sched.IDLSource(), "mm": mm.IDLSource(), "ramfs": ramfs.IDLSource(),
	"lock": lock.IDLSource(), "event": event.IDLSource(), "timer": timer.IDLSource(),
}

// swifiLayer probes campaign set-up: spec compile, one trial's system
// build, per-trial RNG seeding and each service's dry run.
func (p *prober) swifiLayer() error {
	targets := swifi.Targets()
	ns, _, err := loop(50*len(targets), func(i int) error {
		svc := targets[i%len(targets)]
		spec, err := idl.Parse(svc, idlSources[svc])
		if err != nil {
			return err
		}
		sm, err := core.NewStateMachine(spec)
		sink = sm
		return err
	})
	if err != nil {
		return err
	}
	p.set("swifi.spec_compile_us", ns/1e3)
	for _, svc := range targets {
		svc := svc
		ns, _, err := loop(100, func(int) error {
			sys, err := core.NewSystemWithStorage(core.OnDemand, 1, p.http.replicas)
			if err != nil {
				return err
			}
			_, err = swifi.Workloads()[svc](campaignIters).Build(sys)
			sink = sys
			return err
		})
		if err != nil {
			return fmt.Errorf("%s trial build: %w", svc, err)
		}
		p.set("swifi.trial_build_us."+svc, ns/1e3)
		ns, _, err = loop(1, func(int) error {
			_, err := swifi.Opportunities(campaignConfig(svc, p.seed, campaignWorkers))
			return err
		})
		if err != nil {
			return fmt.Errorf("%s dry run: %w", svc, err)
		}
		p.set("swifi.dry_run_ms."+svc, ns/1e6)
	}
	ns, _, err = loop(2_000, func(i int) error {
		sink = rand.New(rand.NewSource(swifi.TrialSeed(p.seed, i)))
		return nil
	})
	if err != nil {
		return err
	}
	p.set("swifi.rng_seed_ns", ns)
	return nil
}

// obsLayer probes folding one trial's snapshot into a row's rolling
// snapshot, as the campaign engine does for each committed trial: from
// an empty snapshot, campaignTrials folds (Merge, or Splice), each
// followed by the engine's Trim.
func (p *prober) obsLayer() error {
	cfg := campaignConfig("lock", p.seed, campaignWorkers)
	cfg.Trials = 1
	one, err := swifi.Run(cfg)
	if err != nil {
		return err
	}
	if one.Recovery == nil {
		return fmt.Errorf("traced campaign returned no snapshot")
	}
	trial := *one.Recovery
	for _, fold := range []struct {
		name string
		fn   func(s *obs.Snapshot, o obs.Snapshot)
	}{{"obs.merge_us", (*obs.Snapshot).Merge}, {"obs.splice_us", (*obs.Snapshot).Splice}} {
		var snap obs.Snapshot
		ns, _, err := loop(campaignTrials, func(i int) error {
			if i == 0 {
				snap = obs.Snapshot{}
			}
			fold.fn(&snap, trial)
			snap.Trim(obs.DefaultCapacity)
			return nil
		})
		if err != nil {
			return err
		}
		p.set(fold.name, ns/1e3)
	}
	return nil
}

// campaignLayer reports one Table II round: each swifi.Run's wall time
// and the round's exact simulated counts.
func (p *prober) campaignLayer(perSvc map[string][]float64, fp fingerprint) {
	for _, svc := range swifi.Targets() {
		p.set("swifi.run_s."+svc, median(perSvc[svc]))
	}
	for name, v := range swifiCounts(fp) {
		p.set(name, v)
	}
}

// httpLayer reports the client-side request spans in µs.
func (p *prober) httpLayer(spans []span) error {
	w, t, r, n := httpLayerSpans(spans)
	if n == 0 {
		return fmt.Errorf("no traced requests")
	}
	p.set("http.write_us", w)
	p.set("http.ttfb_us", t)
	p.set("http.read_us", r)
	return nil
}

// runtimeLayer reports what the Go runtime did during the untraced
// measured phase, per end-to-end operation.
func (p *prober) runtimeLayer(rt rtDelta, ops int) {
	p.set("runtime.allocs_per_op", float64(rt.allocObjs)/float64(ops))
	p.set("runtime.alloc_bytes_per_op", float64(rt.allocBytes)/float64(ops))
	p.set("runtime.gc_cpu_frac", rt.gcCPUFrac)
	p.set("runtime.sched_latency_p99_us", rt.schedP99us)
}

// layerProbes runs every probe that does not depend on the measured
// phase.
func (p *prober) layerProbes() error {
	for _, pr := range []struct {
		name string
		fn   func() error
	}{
		{"webserver", p.webserverLayer},
		{"kernel", p.kernelLayer},
		{"core", p.coreLayer},
		{"storage", p.storageLayer},
		{"swifi", p.swifiLayer},
		{"obs", p.obsLayer},
	} {
		if err := p.run(pr.name, pr.fn); err != nil {
			return err
		}
	}
	return nil
}
