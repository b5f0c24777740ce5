package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"superglue/internal/swifi"
)

// The Table II campaign as the benchmark runs it: the legacy
// register-flip shape over the six services in swifi.Targets() order.
const (
	campaignTrials = 100 // trials per service per round
	campaignIters  = 5   // workload iterations per trial
	// campaignWorkers is swifi.Config.Workers of every campaign the
	// benchmark runs.
	campaignWorkers = 2
)

func campaignConfig(svc string, seed int64, workers int) swifi.Config {
	return swifi.Config{
		Service:       svc,
		Workload:      swifi.Workloads()[svc],
		Iters:         campaignIters,
		Trials:        campaignTrials,
		Seed:          seed,
		Profile:       swifi.Profiles()[svc],
		Trace:         true,
		Workers:       workers,
		DiscardTrials: true,
	}
}

// rowPrint is one Table II row's simulated statistics: the outcome
// columns and the counts of the campaign's merged trace snapshot. A
// change that only makes the campaign faster must leave it identical.
type rowPrint struct {
	Service    string `json:"service"`
	Injected   int    `json:"injected"`
	Recovered  int    `json:"recovered"`
	Segfault   int    `json:"segfault"`
	Propagated int    `json:"propagated"`
	Other      int    `json:"other"`
	Degraded   int    `json:"degraded"`
	Undetected int    `json:"undetected"`
	Reboots    uint64 `json:"reboots"`
	WalkSteps  uint64 `json:"walk_steps"`
	Invokes    uint64 `json:"invokes"`
	Events     uint64 `json:"events"`
}

// fingerprint is one round's rows at one seed.
type fingerprint struct {
	Seed   int64      `json:"seed"`
	Trials int        `json:"trials_per_service"`
	Iters  int        `json:"iters"`
	Rows   []rowPrint `json:"rows"`
}

// referenceSeed is the seed whose fingerprint is committed beside the
// benchmark; heldOutSeed is the second seed a performance claim must
// also pass (see README.md).
const (
	referenceSeed = 1
	heldOutSeed   = 7
)

//go:embed fingerprint_seed1.json
var referenceFingerprint []byte

func newRowPrint(res *swifi.Result) rowPrint {
	p := rowPrint{
		Service: res.Service, Injected: res.Injected, Recovered: res.Recovered,
		Segfault: res.Segfault, Propagated: res.Propagated, Other: res.Other,
		Degraded: res.Degraded, Undetected: res.Undetected,
	}
	if snap := res.Recovery; snap != nil {
		p.Events = snap.TotalEvents
		for _, c := range snap.Components {
			p.Reboots += c.Reboots
			p.Invokes += c.Invokes
		}
		for _, m := range snap.Mechanisms {
			p.WalkSteps += m.TotalSteps
		}
	}
	return p
}

// checkRow verifies a row's own arithmetic: every requested trial was
// committed and the outcome columns sum to the trials run.
func checkRow(p rowPrint, trials int) error {
	if p.Injected != trials {
		return fmt.Errorf("%s: %d of %d trials committed", p.Service, p.Injected, trials)
	}
	if sum := p.Recovered + p.Segfault + p.Propagated + p.Other + p.Degraded + p.Undetected; sum != p.Injected {
		return fmt.Errorf("%s: outcome columns sum to %d, not the %d trials run", p.Service, sum, p.Injected)
	}
	return nil
}

// campaignRound runs the six per-service campaigns once, in Table II
// order, recording a round span with one child span per swifi.Run.
func campaignRound(seed int64, workers int, log *spanLog, round int) (fingerprint, []float64, error) {
	fp := fingerprint{Seed: seed, Trials: campaignTrials, Iters: campaignIters}
	rows := make([]float64, 0, len(swifi.Targets()))
	start := time.Now()
	root := log.open("swifi.round", uint64(round+1), -1, start)
	for _, svc := range swifi.Targets() {
		t0 := time.Now()
		res, err := swifi.Run(campaignConfig(svc, seed, workers))
		t1 := time.Now()
		if err != nil {
			return fp, nil, fmt.Errorf("swifi.Run %s: %w", svc, err)
		}
		log.add("swifi.run."+svc, uint64(round+1), root, t0, t1)
		rows = append(rows, t1.Sub(t0).Seconds())
		fp.Rows = append(fp.Rows, newRowPrint(res))
	}
	log.close(root, time.Now())
	return fp, rows, nil
}

// swifiPhase is one measured stretch of whole campaign rounds.
type swifiPhase struct {
	rounds    int
	trials    int
	attempted int
	setups    []float64            // seconds, one campaign set-up before each round
	roundSecs []float64            // every round's wall time, set-up excluded
	rowSecs   []float64            // every row's wall time, round by round
	perSvc    map[string][]float64 // row wall times by service
	err       error
}

// roundsPerWindow is how many whole rounds one summary window holds.
const roundsPerWindow = 10

// campaignSummary is the median over windows of roundsPerWindow rounds
// of each window's trial rate and its rows' p50 and p95 wall times, so a
// stall that spans less than half of the windows does not move it.
type campaignSummary struct {
	trialsPerSec, rowP50, rowP95 float64
	windows, rowsPerWindow       int
}

func (p swifiPhase) summary() campaignSummary {
	per := roundsPerWindow
	if p.rounds < per {
		per = max(p.rounds, 1) // a short phase is one window
	}
	rows := len(swifi.Targets())
	var rates, p50s, p95s []float64
	for w := 0; (w+1)*per <= p.rounds; w++ {
		var secs float64
		for _, r := range p.roundSecs[w*per : (w+1)*per] {
			secs += r
		}
		rates = append(rates, float64(per*rows*campaignTrials)/secs)
		q := quantiles(p.rowSecs[w*per*rows:(w+1)*per*rows], 0.50, 0.95)
		p50s = append(p50s, q[0].Value)
		p95s = append(p95s, q[1].Value)
	}
	return campaignSummary{trialsPerSec: median(rates), rowP50: median(p50s), rowP95: median(p95s),
		windows: len(rates), rowsPerWindow: per * rows}
}

// runRounds runs whole rounds, each after a timed campaign set-up, until
// dur has passed. It checks every row and every round's fingerprint
// against want (set from the first round when nil).
func runRounds(seed int64, dur time.Duration, log *spanLog, want *fingerprint) swifiPhase {
	p := swifiPhase{perSvc: make(map[string][]float64)}
	start := time.Now()
	for time.Since(start) < dur {
		setup, err := setupCampaign(seed)
		if err != nil {
			p.err = err
			break
		}
		p.setups = append(p.setups, setup.Seconds())
		p.attempted += campaignTrials * len(swifi.Targets())
		roundStart := time.Now()
		fp, rows, err := campaignRound(seed, campaignWorkers, log, p.rounds)
		if err != nil {
			p.err = err
			break
		}
		p.roundSecs = append(p.roundSecs, time.Since(roundStart).Seconds())
		p.rounds++
		for i, r := range fp.Rows {
			if err := checkRow(r, campaignTrials); err != nil && p.err == nil {
				p.err = err
			}
			p.trials += r.Injected
			p.rowSecs = append(p.rowSecs, rows[i])
			p.perSvc[r.Service] = append(p.perSvc[r.Service], rows[i])
		}
		if want.Rows == nil {
			*want = fp
		} else if err := sameFingerprint(*want, fp); err != nil && p.err == nil {
			p.err = fmt.Errorf("round %d: %w", p.rounds, err)
		}
	}
	return p
}

func sameFingerprint(want, got fingerprint) error {
	a, _ := json.Marshal(want)
	b, _ := json.Marshal(got)
	if string(a) != string(b) {
		return fmt.Errorf("fingerprint differs:\n want %s\n got  %s", a, b)
	}
	return nil
}

// setupCampaign is the campaign's set-up: the six dry runs that count
// each service's injection opportunities.
func setupCampaign(seed int64) (time.Duration, error) {
	start := time.Now()
	for _, svc := range swifi.Targets() {
		if _, err := swifi.Opportunities(campaignConfig(svc, seed, campaignWorkers)); err != nil {
			return 0, fmt.Errorf("dry run %s: %w", svc, err)
		}
	}
	return time.Since(start), nil
}

// swifiRun is the outcome of one swifi-table2 run.
type swifiRun struct {
	main       swifiPhase
	traced     *swifiPhase
	fp         fingerprint
	peakHeapMB float64
	rt         rtDelta
	spans      []span
}

func runSwifi(seed int64, dur time.Duration, traced bool) *swifiRun {
	run := &swifiRun{}
	mainDur := dur
	if traced {
		mainDur = dur / 2
	}
	runtime.GC()
	heap := startHeapSampler(5 * time.Millisecond)
	before := readRuntime()
	run.main = runRounds(seed, mainDur, nil, &run.fp)
	run.rt = runtimeDelta(before, readRuntime())
	run.peakHeapMB = heap.finish()
	if traced && run.main.err == nil {
		tr := newTracer()
		p := runRounds(seed, dur-mainDur, tr.log(), &run.fp)
		run.traced = &p
		run.spans = tr.spans()
	}
	return run
}

// checkReference compares a first-round fingerprint with the committed
// one when the seed is the reference seed.
func checkReference(fp fingerprint) error {
	if fp.Seed != referenceSeed {
		return nil
	}
	var want fingerprint
	if err := json.Unmarshal(referenceFingerprint, &want); err != nil {
		return fmt.Errorf("committed fingerprint: %w", err)
	}
	return sameFingerprint(want, fp)
}

// swifiCounts sums the exact simulated counts of one round.
func swifiCounts(fp fingerprint) map[string]float64 {
	var rec, und, notRec, reboots, walk, inv float64
	for _, r := range fp.Rows {
		rec += float64(r.Recovered)
		und += float64(r.Undetected)
		notRec += float64(r.Segfault + r.Propagated + r.Other)
		reboots += float64(r.Reboots)
		walk += float64(r.WalkSteps)
		inv += float64(r.Invokes)
	}
	return map[string]float64{
		"swifi.recovered": rec, "swifi.undetected": und, "swifi.not_recovered": notRec,
		"swifi.reboots": reboots, "swifi.walk_steps": walk, "swifi.invokes": inv,
	}
}
