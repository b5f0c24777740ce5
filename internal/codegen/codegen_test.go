package codegen

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"superglue/internal/idl"
	"superglue/internal/services/event"
	"superglue/internal/services/lock"
	"superglue/internal/services/mm"
	"superglue/internal/services/ramfs"
	"superglue/internal/services/sched"
	"superglue/internal/services/timer"
)

// serviceIRs compiles the IR of every system service.
func serviceIRs(t *testing.T) map[string]*IR {
	t.Helper()
	out := make(map[string]*IR)
	for name, src := range map[string]string{
		"lock":  lock.IDLSource(),
		"event": event.IDLSource(),
		"sched": sched.IDLSource(),
		"timer": timer.IDLSource(),
		"mm":    mm.IDLSource(),
		"ramfs": ramfs.IDLSource(),
	} {
		spec, err := idl.Parse(name, src)
		if err != nil {
			t.Fatalf("Parse(%s): %v", name, err)
		}
		ir, err := NewIR(spec)
		if err != nil {
			t.Fatalf("NewIR(%s): %v", name, err)
		}
		out[name] = ir
	}
	return out
}

// TestRegistryHas72Pairs pins the size of the template-predicate network to
// the paper's reported 72 (§IV-B).
func TestRegistryHas72Pairs(t *testing.T) {
	names := Registry()
	if len(names) != 72 {
		t.Fatalf("registry has %d template-predicate pairs; want 72:\n%s",
			len(names), strings.Join(names, "\n"))
	}
	seen := make(map[string]bool)
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate fragment name %q", n)
		}
		seen[n] = true
	}
}

// TestGenerateAllServicesParses generates both stubs for every service and
// type-checks each generated package from source against genrt, core and
// kernel, so sgc output compiles without a committed copy of it: renaming
// or removing a genrt symbol the generator emits fails here.
func TestGenerateAllServicesParses(t *testing.T) {
	fset := token.NewFileSet()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	for name, ir := range serviceIRs(t) {
		files, err := Generate(ir)
		if err != nil {
			t.Fatalf("Generate(%s): %v", name, err)
		}
		var asts []*ast.File
		for fname, content := range files {
			if !strings.Contains(content, "DO NOT EDIT") {
				t.Errorf("%s/%s missing generated-code marker", name, fname)
			}
			if len(content) < 200 {
				t.Errorf("%s/%s suspiciously small (%d bytes)", name, fname, len(content))
			}
			f, err := parser.ParseFile(fset, ir.Package()+"/"+fname, content, 0)
			if err != nil {
				t.Fatalf("parse %s/%s: %v", name, fname, err)
			}
			asts = append(asts, f)
		}
		if _, err := conf.Check(ir.Package(), fset, asts, nil); err != nil {
			t.Errorf("type-check %s: %v", ir.Package(), err)
		}
	}
}

// TestPredicatesSelectMechanisms checks that generated code contains exactly
// the recovery machinery the model calls for.
func TestPredicatesSelectMechanisms(t *testing.T) {
	irs := serviceIRs(t)

	gen := func(name string) string {
		t.Helper()
		src, err := GenerateClient(irs[name])
		if err != nil {
			t.Fatalf("GenerateClient(%s): %v", name, err)
		}
		return src
	}

	lockSrc := gen("lock")
	if !strings.Contains(lockSrc, "holdRec") {
		t.Error("lock stub missing hold tracking (sm_hold)")
	}
	if strings.Contains(lockSrc, "internal/storage") {
		t.Error("lock stub imports storage despite not being global")
	}
	if strings.Contains(lockSrc, "recoverSubtree") {
		t.Error("lock stub has subtree recovery without desc_close_children")
	}

	evtSrc := gen("event")
	if !strings.Contains(evtSrc, "storage.FnRecordCreator") {
		t.Error("event stub missing creator registration (G0)")
	}
	if !strings.Contains(evtSrc, "storage.FnRemap") {
		t.Error("event stub missing remap (G0)")
	}
	if !strings.Contains(evtSrc, "walkParentID") {
		t.Error("event stub missing parent walk helper (D1)")
	}
	if strings.Contains(evtSrc, "holdRec") {
		t.Error("event stub has hold tracking without sm_hold")
	}

	mmSrc := gen("mm")
	if !strings.Contains(mmSrc, "recoverSubtree") {
		t.Error("mm stub missing subtree recovery (D0)")
	}
	if !strings.Contains(mmSrc, "walkParentNS") {
		t.Error("mm stub missing parent namespace helper (XCParent)")
	}

	fsSrc := gen("ramfs")
	if !strings.Contains(fsSrc, `"fs_lseek", d.ServerID, d.Offset`) {
		t.Error("ramfs stub missing the open-and-lseek restore replay")
	}
	if !strings.Contains(fsSrc, "d.Offset += ret") {
		t.Error("ramfs stub missing offset accumulation (desc_data_retval_acc)")
	}

	evtSrv, err := GenerateServer(irs["event"])
	if err != nil {
		t.Fatalf("GenerateServer(event): %v", err)
	}
	if !strings.Contains(evtSrv, "LookupCreator") || !strings.Contains(evtSrv, "core.FnRecreate") {
		t.Error("event server stub missing the EINVAL→G0 upcall path")
	}
	lockSrv, err := GenerateServer(irs["lock"])
	if err != nil {
		t.Fatalf("GenerateServer(lock): %v", err)
	}
	if strings.Contains(lockSrv, "LookupCreator") {
		t.Error("lock server stub has G0 logic despite not being global")
	}
}

func TestCamel(t *testing.T) {
	for in, want := range map[string]string{
		"evt_split":           "EvtSplit",
		"mman_get_page":       "MmanGetPage",
		"fs_open":             "FsOpen",
		"lock":                "Lock",
		"sched_blk":           "SchedBlk",
		"desc__double":        "DescDouble",
		"timer_periodic_wait": "TimerPeriodicWait",
	} {
		if got := Camel(in); got != want {
			t.Errorf("Camel(%q) = %q; want %q", in, got, want)
		}
	}
}

func TestIRQueries(t *testing.T) {
	irs := serviceIRs(t)
	if !irs["event"].IsGlobal() || irs["lock"].IsGlobal() {
		t.Error("IsGlobal classification wrong")
	}
	if !irs["mm"].IsXCParent() || irs["event"].IsXCParent() {
		t.Error("IsXCParent classification wrong")
	}
	if !irs["mm"].CloseChildren() || irs["event"].CloseChildren() {
		t.Error("CloseChildren classification wrong")
	}
	if !irs["lock"].HasHolds() || irs["timer"].HasHolds() {
		t.Error("HasHolds classification wrong")
	}
	if !irs["ramfs"].HasRestore() || irs["lock"].HasRestore() {
		t.Error("HasRestore classification wrong")
	}
	if !irs["mm"].HasNS() || irs["event"].HasNS() {
		t.Error("HasNS classification wrong")
	}
	if got := irs["event"].Package(); got != "genevent" {
		t.Errorf("Package = %q; want genevent", got)
	}
	fields := irs["ramfs"].TrackedFields()
	names := make(map[string]bool)
	for _, f := range fields {
		names[f.Go] = true
	}
	for _, want := range []string{"Compid", "Pathbuf", "Pathlen", "Offset"} {
		if !names[want] {
			t.Errorf("ramfs tracked fields missing %s; got %v", want, fields)
		}
	}
}

func TestIDLSignatureRoundTrip(t *testing.T) {
	irs := serviceIRs(t)
	fn := irs["event"].fnIR("evt_split")
	sig := fn.IDLSignature()
	for _, want := range []string{"desc_data(componentid_t compid)", "parent_desc(long parent_evtid)"} {
		if !strings.Contains(sig, want) {
			t.Errorf("IDLSignature = %q; missing %q", sig, want)
		}
	}
}

func TestNewIRRejectsInvalidSpec(t *testing.T) {
	spec, err := idl.ParseLax("bad", "int f(desc(long id));")
	if err != nil {
		t.Fatalf("ParseLax: %v", err)
	}
	if _, err := NewIR(spec); err == nil {
		t.Fatal("NewIR accepted an invalid spec")
	}
}
