//go:build sgcstubs

package gen

import (
	"testing"

	"superglue/internal/swifi"
)

// TestCampaignThroughGeneratedStubs runs fault-injection campaigns whose
// workloads drive the sgc-generated stubs: the deployed artifact recovers
// under fire, not just the spec-interpreting runtime.
func TestCampaignThroughGeneratedStubs(t *testing.T) {
	for name, cfg := range map[string]swifi.Config{
		"lock": {
			Service:  "lock",
			Workload: NewLockWorkload,
			Iters:    4,
			Trials:   120,
			Seed:     5150,
			Profile:  swifi.Profiles()["lock"],
		},
		"event": {
			Service:  "event",
			Workload: NewEventWorkload,
			Iters:    4,
			Trials:   120,
			Seed:     5150,
			Profile:  swifi.Profiles()["event"],
		},
	} {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			res, err := swifi.Run(cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			for _, tr := range res.Trials {
				if tr.Outcome == swifi.OutcomeOther && tr.Injection.Effect == swifi.EffectCrash {
					t.Errorf("generated stub failed to recover a detected crash: %s (inj %+v)",
						tr.Detail, tr.Injection)
				}
			}
			if res.SuccessRate() < 0.7 {
				t.Errorf("success rate %.2f below sanity floor", res.SuccessRate())
			}
		})
	}
}

// TestGeneratedAndInterpretedCampaignsAgree compares campaign outcome
// distributions between generated-stub and interpreted-stub workloads for
// the lock service under the same seed: the two implementations of the same
// specification should recover the same classes of faults.
func TestGeneratedAndInterpretedCampaignsAgree(t *testing.T) {
	genRes, err := swifi.Run(swifi.Config{
		Service: "lock", Workload: NewLockWorkload,
		Iters: 4, Trials: 150, Seed: 606, Profile: swifi.Profiles()["lock"],
	})
	if err != nil {
		t.Fatalf("generated campaign: %v", err)
	}
	intRes, err := swifi.Run(swifi.Config{
		Service: "lock", Workload: swifi.Workloads()["lock"],
		Iters: 4, Trials: 150, Seed: 606, Profile: swifi.Profiles()["lock"],
	})
	if err != nil {
		t.Fatalf("interpreted campaign: %v", err)
	}
	// The workload structures differ slightly (client wiring), so exact
	// per-trial equality is not expected; the recovery quality must agree.
	if genRes.SuccessRate() < intRes.SuccessRate()-0.1 {
		t.Errorf("generated stubs recover worse: %.2f vs %.2f",
			genRes.SuccessRate(), intRes.SuccessRate())
	}
	if genRes.Recovered == 0 || intRes.Recovered == 0 {
		t.Error("a campaign recovered nothing")
	}
}
