// Package superglue's repository-level benchmarks regenerate every table
// and figure of the paper's evaluation as testing.B benchmarks:
//
//	Fig. 6(a) — BenchmarkTracking<Service>/{base,c3,superglue}
//	Fig. 6(b) — BenchmarkRecovery<Service>/{c3,superglue}
//	Fig. 6(c) — BenchmarkIDLCompile (plus `go run ./cmd/microbench -fig 6c`)
//	Table II  — BenchmarkSWIFICampaign (injections/sec; the table itself is
//	            `go run ./cmd/swifi`)
//	Fig. 7    — BenchmarkWebServer/{baseline,composite,c3,superglue,
//	            superglue-faults}, reporting req/s; BenchmarkServeLoopback
//	            is the same server live, over a loopback socket
//
// Run with: go test -bench=. -benchmem
package superglue

import (
	"testing"

	"superglue/internal/codegen"
	"superglue/internal/experiments"
	"superglue/internal/idl"
	"superglue/internal/services/event"
	"superglue/internal/swifi"
	"superglue/internal/webserver"
)

// benchKinds are the stub bindings compared in Fig. 6(a).
var benchKinds = []struct {
	name string
	kind experiments.StubKind
}{
	{"base", experiments.KindBase},
	{"c3", experiments.KindC3},
	{"superglue", experiments.KindSuperGlue},
}

// benchTracking is the Fig. 6(a) micro-benchmark for one service.
func benchTracking(b *testing.B, service string) {
	for _, k := range benchKinds {
		b.Run(k.name, func(b *testing.B) {
			if err := experiments.RunMicrobench(service, k.kind, b.N); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkTrackingSched(b *testing.B) { benchTracking(b, "sched") }
func BenchmarkTrackingMM(b *testing.B)    { benchTracking(b, "mm") }
func BenchmarkTrackingFS(b *testing.B)    { benchTracking(b, "ramfs") }
func BenchmarkTrackingLock(b *testing.B)  { benchTracking(b, "lock") }
func BenchmarkTrackingEvent(b *testing.B) { benchTracking(b, "event") }
func BenchmarkTrackingTimer(b *testing.B) { benchTracking(b, "timer") }

// benchRecovery is the Fig. 6(b) per-descriptor recovery benchmark: each
// iteration is one fault, µ-reboot, recovery walk, and redone operation.
func benchRecovery(b *testing.B, service string) {
	for _, k := range benchKinds[1:] { // recovery needs stubs
		b.Run(k.name, func(b *testing.B) {
			if err := experiments.RunRecoveryBench(service, k.kind, b.N); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkRecoverySched(b *testing.B) { benchRecovery(b, "sched") }
func BenchmarkRecoveryMM(b *testing.B)    { benchRecovery(b, "mm") }
func BenchmarkRecoveryFS(b *testing.B)    { benchRecovery(b, "ramfs") }
func BenchmarkRecoveryLock(b *testing.B)  { benchRecovery(b, "lock") }
func BenchmarkRecoveryEvent(b *testing.B) { benchRecovery(b, "event") }
func BenchmarkRecoveryTimer(b *testing.B) { benchRecovery(b, "timer") }

// BenchmarkIDLCompile measures the full compiler pipeline (parse → IR →
// generate client + server stubs) for the Fig. 3 event specification.
func BenchmarkIDLCompile(b *testing.B) {
	src := event.IDLSource()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spec, err := idl.Parse("event", src)
		if err != nil {
			b.Fatal(err)
		}
		ir, err := codegen.NewIR(spec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := codegen.Generate(ir); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSWIFICampaign runs Table II's fault-injection trials (lock
// service) at b.N injections.
func BenchmarkSWIFICampaign(b *testing.B) {
	res, err := swifi.Run(swifi.Config{
		Service:  "lock",
		Workload: swifi.Workloads()["lock"],
		Iters:    3,
		Trials:   b.N,
		Seed:     2026,
		Profile:  swifi.Profiles()["lock"],
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(100*res.SuccessRate(), "%success")
	b.ReportMetric(100*res.ActivationRatio(), "%activation")
}

// BenchmarkSWIFICampaignTraced is BenchmarkSWIFICampaign as the e2ebench
// swifi-table2 workload runs it: every trial traced into its own
// recorder and folded into the campaign snapshot, on two workers. Its
// B/op and allocs/op are what one traced trial costs, set-up included.
func BenchmarkSWIFICampaignTraced(b *testing.B) {
	b.ReportAllocs()
	res, err := swifi.Run(swifi.Config{
		Service:  "lock",
		Workload: swifi.Workloads()["lock"],
		Iters:    3,
		Trials:   b.N,
		Seed:     2026,
		Profile:  swifi.Profiles()["lock"],
		Trace:    true,
		Workers:  2,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(100*res.SuccessRate(), "%success")
}

// benchWebServer is one Fig. 7 bar: b.N requests through the variant.
func benchWebServer(b *testing.B, variant webserver.Variant, faultEvery int) {
	n := b.N
	if n < 64 {
		n = 64
	}
	st, err := webserver.Run(webserver.Config{
		Variant:    variant,
		Requests:   n,
		Workers:    2,
		FaultEvery: faultEvery,
	})
	if err != nil {
		b.Fatal(err)
	}
	if st.Errors > 0 {
		b.Fatalf("%d request errors", st.Errors)
	}
	b.ReportMetric(st.Throughput, "req/s")
}

func BenchmarkWebServer(b *testing.B) {
	b.Run("baseline", func(b *testing.B) { benchWebServer(b, webserver.VariantBaseline, 0) })
	b.Run("composite", func(b *testing.B) { benchWebServer(b, webserver.VariantComposite, 0) })
	b.Run("c3", func(b *testing.B) { benchWebServer(b, webserver.VariantC3, 0) })
	b.Run("superglue", func(b *testing.B) { benchWebServer(b, webserver.VariantSuperGlue, 0) })
	b.Run("superglue-faults", func(b *testing.B) {
		n := b.N
		if n < 64 {
			n = 64
		}
		benchWebServer(b, webserver.VariantSuperGlue, n/4+1)
	})
}

// BenchmarkKernelInvoke measures the bare component-invocation primitive,
// the substrate cost every stub comparison sits on. The scenario lives in
// experiments.KernelInvokeBench so `cmd/benchjson` measures the same thing.
func BenchmarkKernelInvoke(b *testing.B) {
	b.ReportAllocs()
	if err := experiments.KernelInvokeBench(b.N, b.ResetTimer); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkServeLoopback measures one keep-alive GET through the live
// server (webserver.Serve) over a real loopback socket: HTTP edge, bridge,
// netif and worker threads and the component path, one connection.
func BenchmarkServeLoopback(b *testing.B) {
	c := startLoopback(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.do(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := c.close(); err != nil {
		b.Fatal(err)
	}
}
