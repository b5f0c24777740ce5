package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite fingerprint_seed1.json from a fresh round")

// The campaign's simulated statistics depend only on the seed: one
// worker and two workers give the same fingerprint.
func TestFingerprintIndependentOfWorkers(t *testing.T) {
	one, _, err := campaignRound(heldOutSeed, 1, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	two, _, err := campaignRound(heldOutSeed, 2, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameFingerprint(one, two); err != nil {
		t.Fatal(err)
	}
	for _, r := range one.Rows {
		if err := checkRow(r, campaignTrials); err != nil {
			t.Error(err)
		}
		if r.Invokes == 0 || r.Events == 0 {
			t.Errorf("%s: empty trace counts %+v", r.Service, r)
		}
	}
}

// The committed fingerprint is the reference seed's round.
func TestReferenceFingerprint(t *testing.T) {
	fp, _, err := campaignRound(referenceSeed, 2, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		data, err := json.MarshalIndent(fp, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("fingerprint_seed1.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err := checkReference(fp); err != nil {
		t.Fatal(err)
	}
	other := fp
	other.Seed = heldOutSeed
	if err := checkReference(other); err != nil {
		t.Errorf("a fingerprint at another seed was compared: %v", err)
	}
	other = fp
	other.Rows = append([]rowPrint(nil), fp.Rows...)
	other.Rows[0].Recovered++
	if err := checkReference(other); err == nil {
		t.Errorf("a changed fingerprint matched the committed one")
	}
}

func TestCheckRowColumns(t *testing.T) {
	ok := rowPrint{Service: "lock", Injected: 10, Recovered: 6, Segfault: 1, Propagated: 1, Other: 0, Degraded: 0, Undetected: 2}
	if err := checkRow(ok, 10); err != nil {
		t.Errorf("balanced row refused: %v", err)
	}
	short := ok
	short.Injected = 9
	if checkRow(short, 10) == nil {
		t.Errorf("row with an uncommitted trial accepted")
	}
	lopsided := ok
	lopsided.Undetected = 3
	if checkRow(lopsided, 10) == nil {
		t.Errorf("row whose columns overcount accepted")
	}
}

// The campaign summary is the median over windows of whole rounds, so
// one disturbed window does not move it, and a partial window is left
// out.
func TestCampaignSummaryWindows(t *testing.T) {
	var p swifiPhase
	for r := 0; r < 3*roundsPerWindow+4; r++ {
		secs, scale := 0.5, 1.0 // 600 trials in 0.5 s: 1200 trials/s
		if r < roundsPerWindow {
			secs, scale = 1.5, 3 // the first window runs three times slower
		}
		p.roundSecs = append(p.roundSecs, secs)
		for i := 1; i <= 6; i++ {
			p.rowSecs = append(p.rowSecs, scale*float64(i)/100)
		}
		p.rounds++
	}
	got := p.summary()
	want := campaignSummary{trialsPerSec: 1200, rowP50: 0.03, rowP95: 0.06, windows: 3, rowsPerWindow: 6 * roundsPerWindow}
	if math.Abs(got.trialsPerSec-want.trialsPerSec) > 1e-9 || got.rowP50 != want.rowP50 || got.rowP95 != want.rowP95 ||
		got.windows != want.windows || got.rowsPerWindow != want.rowsPerWindow {
		t.Errorf("summary %+v, want %+v", got, want)
	}
}
