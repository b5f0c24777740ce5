// Command e2ebench is the repository's end-to-end benchmark. It drives
// the two user paths of the system through their public entry points —
// webserver.Serve over loopback TCP from a closed-loop load generator,
// and swifi.Run over the six Table II services — checks every output,
// and prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as the last line of standard output. See README.md.
//
// Usage (from the repository root):
//
//	bash e2ebench/run.sh --workload http-keepalive --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"superglue/internal/swifi"
)

// workload is one benchmark input set: an HTTP traffic configuration or
// the SWIFI campaign.
type workload struct {
	http *httpConfig
	why  string
}

var workloads = map[string]workload{
	"http-keepalive": {
		http: &httpConfig{faultEvery: 0, replicas: 1, sessionRequests: 20_000},
		why:  "failure-free request path over one keep-alive connection",
	},
	"http-recovery": {
		http: &httpConfig{faultEvery: 50, replicas: 3, sessionRequests: 20_000},
		why:  "one connection while a component crash is injected every 50 requests, 3 storage replicas",
	},
	"swifi-table2": {
		why: "the Table II register-flip campaign over the six services, traced, 2 workers",
	},
}

// keepalive is the HTTP configuration probed on the campaign workload.
var keepalive = *workloads["http-keepalive"].http

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// e2eUnits are the end-to-end metrics, printed by an untraced run.
var e2eUnits = map[string]string{
	"setup_s": "s", "ops_per_s": "1/s", "latency_p50_us": "us", "latency_tail_us": "us", "peak_heap_mb": "MB",
}

// layerUnits are the per-layer metrics, printed by a traced run.
func layerUnits() map[string]string {
	u := map[string]string{
		"http.write_us": "us", "http.ttfb_us": "us", "http.read_us": "us",
		"webserver.parse_ns": "ns", "webserver.parse_allocs": "count",
		"webserver.format_ns": "ns", "webserver.format_allocs": "count",
		"webserver.inproc_rps": "1/s", "webserver.io_us_per_req": "us",
		"kernel.invoke_ns": "ns", "kernel.invoke_allocs": "count", "kernel.invoke_xcore_ns": "ns",
		"kernel.vticks_per_req": "ticks",
		"storage.resolve_ns.r1": "ns", "storage.resolve_ns.r3": "ns", "storage.resolve_allocs.r3": "count",
		"storage.quorum_write_ns": "ns", "storage.quorum_write_allocs": "count",
		"swifi.spec_compile_us": "us", "swifi.rng_seed_ns": "ns",
		"obs.merge_us": "us", "obs.splice_us": "us",
		"swifi.recovered": "count", "swifi.undetected": "count", "swifi.not_recovered": "count",
		"swifi.reboots": "count", "swifi.walk_steps": "count", "swifi.invokes": "count",
		"runtime.allocs_per_op": "count", "runtime.alloc_bytes_per_op": "B",
		"runtime.gc_cpu_frac": "ratio", "runtime.sched_latency_p99_us": "us",
		"trace.ops_slowdown": "ratio", "trace.p50_slowdown": "ratio",
	}
	for _, svc := range swifi.Targets() {
		u["core.track_ns."+svc] = "ns"
		u["core.track_allocs."+svc] = "count"
		u["services.body_ns."+svc] = "ns"
		u["core.stub_overhead."+svc] = "ratio"
		u["core.recovery_us."+svc] = "us"
		u["swifi.trial_build_us."+svc] = "us"
		u["swifi.dry_run_ms."+svc] = "ms"
		u["swifi.run_s."+svc] = "s"
	}
	return u
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	outDir   string
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "http-keepalive, http-recovery or swifi-table2")
	fs.Int64Var(&o.seed, "seed", referenceSeed, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 20, "length of the measured phase")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced run and prints the per-layer metrics")
	fs.StringVar(&o.outDir, "out", ".bench_build/e2ebench", "directory for span files")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return o, errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	if conns, workers := uses(workloads[o.workload], o.trace); max(conns, workers) > runtime.NumCPU() {
		return o, fmt.Errorf("refusing %d connections and %d campaign workers on %d CPUs: neither may exceed nproc", conns, workers, runtime.NumCPU())
	}
	return o, nil
}

// uses returns the client connections and campaign workers a run of w
// starts. A traced run also probes the other user path: an HTTP
// workload runs one campaign round, the campaign a short HTTP run.
func uses(w workload, trace int) (conns, workers int) {
	if w.http != nil || trace == 1 {
		conns = clientConns
	}
	if w.http == nil || trace == 1 {
		workers = campaignWorkers
	}
	return conns, workers
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		logf("%v", err)
		os.Exit(2)
	}
	res, prov, err := run(o)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]any{"provenance": prov}); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	if err := out.Encode(res); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
}

// provenance records what a result was measured on and with.
type provenance struct {
	Workload   string         `json:"workload"`
	Why        string         `json:"why"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      int            `json:"trace"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Transport  string         `json:"transport,omitempty"`
	Conns      int            `json:"connections,omitempty"`
	Workers    int            `json:"campaign_workers,omitempty"`
	Samples    map[string]any `json:"samples"`
	Notes      []string       `json:"notes,omitempty"`
}

// procs is the GOMAXPROCS every workload runs with. On one P every
// hand-off between goroutines (load generator and server, campaign
// workers and merger) stays on one CPU. On a 2-vCPU VM whose CPUs the
// host also schedules, a P per vCPU made cross-CPU wake-ups and
// descheduled lock holders set the figures: over alternating 20 s runs,
// swifi-table2 committed 3530–3993 trials/s at GOMAXPROCS 1 and
// 1603–3285 at GOMAXPROCS 2, and http-keepalive's p99 read 42–48 µs
// against 68–125 µs.
const procs = 1

func run(o options) (*result, *provenance, error) {
	runtime.GOMAXPROCS(procs)
	w := workloads[o.workload]
	prov := &provenance{
		Workload: o.workload, Why: w.why, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Samples: map[string]any{},
	}
	prov.Conns, prov.Workers = uses(w, o.trace)
	if prov.Conns > 0 {
		prov.Transport = "loopback TCP"
	}
	p := &prober{seed: o.seed, metrics: make(map[string]float64), http: keepalive}
	var tr *tracer
	if o.trace == 1 {
		tr = newTracer()
		p.log = tr.log()
	}
	var m *measured
	var err error
	if w.http != nil {
		p.http = *w.http
		m, err = measureHTTP(o, p.http, p, prov)
	} else {
		m, err = measureSwifi(o, p, prov)
	}
	if err != nil {
		return nil, nil, err
	}
	res := &m.res
	res.Metrics = make(map[string]metric)
	if o.trace == 0 {
		for name, v := range m.e2e {
			res.Metrics[name] = m.metric(name, v, e2eUnits[name])
		}
		report(os.Stdout, o, res.Metrics, nil)
		return res, prov, nil
	}
	if err := p.layerProbes(); err != nil {
		return nil, nil, err
	}
	p.set("webserver.io_us_per_req", ioPerRequest(m.socketRPS, p.metrics["webserver.inproc_rps"]))
	units := layerUnits()
	for name, v := range p.metrics {
		u, ok := units[name]
		if !ok {
			return nil, nil, fmt.Errorf("per-layer metric %q has no unit", name)
		}
		res.Metrics[name] = m.metric(name, v, u)
	}
	if len(res.Metrics) != len(units) {
		return nil, nil, fmt.Errorf("traced run produced %d per-layer metrics, want %d", len(res.Metrics), len(units))
	}
	all := append(m.spans, tr.spans()...)
	report(os.Stdout, o, res.Metrics, selfTimes(all))
	path, err := writeSpans(o.outDir, fmt.Sprintf("%s-seed%d.spans.jsonl", o.workload, o.seed), all)
	if err != nil {
		logf("writing spans: %v", err)
	} else {
		prov.Notes = append(prov.Notes, "spans: "+filepath.ToSlash(path))
	}
	return res, prov, nil
}

// measured is what a workload's measured phases gave: the result line
// (without metrics), the end-to-end values, the recorded spans, and the
// loopback request rate the socket-cost metric is derived from.
type measured struct {
	res       result
	e2e       map[string]float64
	spans     []span
	socketRPS float64
}

// fail marks the result incorrect and says why on standard error.
func (m *measured) fail(err error) {
	m.res.Correct = false
	logf("incorrect: %v", err)
}

// metric returns a reported value. A value that is not a number means
// the run measured nothing for it (every request failed, say): it is
// reported as 0 and the result as incorrect.
func (m *measured) metric(name string, v float64, unit string) metric {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		m.fail(fmt.Errorf("%s has no value", name))
		v = 0
	}
	return metric{Value: v, Unit: unit}
}

func measureHTTP(o options, cfg httpConfig, p *prober, prov *provenance) (*measured, error) {
	hr := runHTTP(cfg, o.seed, time.Duration(o.seconds)*time.Second, o.trace == 1)
	attempted, failed, firstErr := hr.counts()
	m := &measured{res: result{Correct: true, Attempted: attempted, Failed: failed}, socketRPS: hr.main.rps()}
	if failed > 0 || firstErr != nil {
		m.fail(firstErr)
	}
	lat := hr.main.latency()
	m.e2e = map[string]float64{
		"setup_s": median(hr.main.setups), "ops_per_s": hr.main.rps(),
		"latency_p50_us": lat.p50, "latency_tail_us": lat.p99, "peak_heap_mb": hr.peakHeapMB,
	}
	prov.Samples["sessions"] = hr.main.sessions
	prov.Samples["requests_per_session"] = cfg.sessionRequests
	prov.Samples["setups"] = len(hr.main.setups)
	prov.Samples["latency"] = map[string]any{"tail_percentile": 99, "windows": lat.windows,
		"samples": lat.samples, "requests_per_window": windowRequests}
	if o.trace == 0 {
		return m, nil
	}
	m.spans = hr.spans
	if err := p.httpLayer(hr.spans); err != nil {
		return nil, err
	}
	p.runtimeLayer(hr.rt, hr.main.correct)
	tlat := hr.traced.latency()
	p.set("trace.ops_slowdown", hr.main.rps()/hr.traced.rps())
	p.set("trace.p50_slowdown", tlat.p50/lat.p50)
	// The campaign layers on this workload: one round at the run's seed.
	fp, rows, err := campaignRound(o.seed, campaignWorkers, p.log, 0)
	if err != nil {
		return nil, err
	}
	if err := roundCorrect(fp); err != nil {
		m.fail(err)
	}
	perSvc := make(map[string][]float64)
	for i, r := range fp.Rows {
		perSvc[r.Service] = []float64{rows[i]}
	}
	p.campaignLayer(perSvc, fp)
	return m, nil
}

func measureSwifi(o options, p *prober, prov *provenance) (*measured, error) {
	sr := runSwifi(o.seed, time.Duration(o.seconds)*time.Second, o.trace == 1)
	ph := sr.main
	m := &measured{res: result{Correct: true, Attempted: ph.attempted, Failed: ph.attempted - ph.trials}}
	if ph.err != nil {
		m.fail(ph.err)
	} else if m.res.Failed > 0 {
		m.fail(fmt.Errorf("%d trials did not commit", m.res.Failed))
	}
	if err := checkReference(sr.fp); err != nil {
		m.fail(err)
	}
	if o.seed != referenceSeed {
		fp, _ := json.Marshal(sr.fp)
		fmt.Printf("# fingerprint at seed %d: %s\n", o.seed, fp)
	}
	sum := ph.summary()
	m.e2e = map[string]float64{
		"setup_s": median(ph.setups), "ops_per_s": sum.trialsPerSec,
		"latency_p50_us": sum.rowP50 * 1e6, "latency_tail_us": sum.rowP95 * 1e6, "peak_heap_mb": sr.peakHeapMB,
	}
	prov.Samples["latency"] = map[string]any{"unit_of_work": "one swifi.Run (one Table II row)",
		"tail_percentile": 95, "windows": sum.windows, "rows_per_window": sum.rowsPerWindow, "rows": len(ph.rowSecs)}
	prov.Samples["rounds"] = ph.rounds
	prov.Samples["setups"] = len(ph.setups)
	prov.Samples["trials"] = ph.trials
	if o.trace == 0 {
		return m, nil
	}
	if sr.traced == nil {
		return nil, errors.New("no traced phase")
	}
	if sr.traced.err != nil {
		m.fail(sr.traced.err)
	}
	m.res.Attempted += sr.traced.attempted
	m.res.Failed += sr.traced.attempted - sr.traced.trials
	m.spans = sr.spans
	p.campaignLayer(sr.traced.perSvc, sr.fp)
	p.runtimeLayer(sr.rt, ph.trials)
	tsum := sr.traced.summary()
	p.set("trace.ops_slowdown", sum.trialsPerSec/tsum.trialsPerSec)
	p.set("trace.p50_slowdown", tsum.rowP50/sum.rowP50)
	// The HTTP layers on this workload: a short keep-alive run.
	hr := runHTTP(keepalive, o.seed, 2*time.Second, true)
	if _, failed, firstErr := hr.counts(); failed > 0 || firstErr != nil {
		m.fail(fmt.Errorf("HTTP probe: %w", firstErr))
	}
	if err := p.httpLayer(hr.spans); err != nil {
		return nil, err
	}
	m.spans = append(m.spans, hr.spans...)
	m.socketRPS = hr.main.rps()
	return m, nil
}

// roundCorrect checks one probe round's rows and, at the reference
// seed, its fingerprint.
func roundCorrect(fp fingerprint) error {
	for _, r := range fp.Rows {
		if err := checkRow(r, campaignTrials); err != nil {
			return err
		}
	}
	return checkReference(fp)
}

// report prints the metrics (and span self times) for a reader, each
// line starting with '#'.
func report(f *os.File, o options, ms map[string]metric, totals []spanTotals) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(f, "# %s seed %d, %d s, trace %d\n", o.workload, o.seed, o.seconds, o.trace)
	for _, n := range names {
		fmt.Fprintf(f, "#   %-34s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
	if len(totals) > 0 {
		fmt.Fprintf(f, "# spans: name, count, total ms, self ms\n")
		for _, t := range totals {
			fmt.Fprintf(f, "#   %-34s %9d %12.3f %12.3f\n", t.Name, t.Count, float64(t.TotalNS)/1e6, float64(t.SelfNS)/1e6)
		}
	}
}
