//go:build !sgcstubs

// Package gen's tests drive the stubs sgc generates for the six system
// services through fault injection, proving that the generated code — not
// just the spec-interpreting runtime — performs interface-driven recovery.
//
// No generated package is committed. The scenarios live in the files built
// with the sgcstubs tag and import genevent, genlock, genmm, genramfs,
// gensched and gentimer, which exist only as generator output. Each test in
// this file generates those packages from the built-in specifications, lays
// them into the package tree with a `go build -overlay`, runs the tagged
// tests once in a child `go test`, and reports the child's verdict under the
// same test name.
package gen

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"superglue/internal/codegen"
	"superglue/internal/idl"
	"superglue/internal/services/builtin"
)

// childTimeout bounds the child `go test`, build included.
const childTimeout = 5 * time.Minute

// verdict is one child test's final action and its output.
type verdict struct {
	action string
	output strings.Builder
}

// child holds the single child run shared by every test in this file.
var child struct {
	once    sync.Once
	err     error
	log     string
	results map[string]*verdict
}

// writeOverlay generates every built-in service's stubs into dir and writes
// a go build overlay that places each file at internal/gen/<package>/ in
// the source tree. It returns the overlay file's path.
func writeOverlay(dir string) (string, error) {
	here, err := filepath.Abs(".")
	if err != nil {
		return "", err
	}
	replace := make(map[string]string)
	for _, b := range builtin.Sources() {
		spec, err := idl.Parse(b.Service, b.IDL)
		if err != nil {
			return "", err
		}
		ir, err := codegen.NewIR(spec)
		if err != nil {
			return "", err
		}
		files, err := codegen.Generate(ir)
		if err != nil {
			return "", err
		}
		for fname, content := range files {
			path := filepath.Join(dir, ir.Package(), fname)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				return "", err
			}
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				return "", err
			}
			replace[filepath.Join(here, ir.Package(), fname)] = path
		}
	}
	raw, err := json.Marshal(struct{ Replace map[string]string }{replace})
	if err != nil {
		return "", err
	}
	overlay := filepath.Join(dir, "overlay.json")
	return overlay, os.WriteFile(overlay, raw, 0o644)
}

// goTool returns the go command of the toolchain running the tests.
func goTool() string {
	if p := filepath.Join(runtime.GOROOT(), "bin", "go"); fileExists(p) {
		return p
	}
	return "go"
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// runChild generates the stubs, runs the tagged tests over them and
// records each test's verdict.
func runChild() error {
	dir, err := os.MkdirTemp("", "sgcstubs")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	overlay, err := writeOverlay(dir)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, goTool(), "test", "-count=1", "-json",
		"-tags", "sgcstubs", "-overlay", overlay, ".")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, runErr := cmd.Output()

	child.results = make(map[string]*verdict)
	var pkgLog strings.Builder
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var ev struct{ Action, Test, Output string }
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			pkgLog.WriteString(sc.Text() + "\n")
			continue
		}
		if ev.Test == "" {
			pkgLog.WriteString(ev.Output)
			continue
		}
		v := child.results[ev.Test]
		if v == nil {
			v = &verdict{}
			child.results[ev.Test] = v
		}
		switch ev.Action {
		case "output":
			v.output.WriteString(ev.Output)
		case "pass", "fail", "skip":
			v.action = ev.Action
		}
	}
	child.log = pkgLog.String() + stderr.String()
	if ctx.Err() != nil {
		return fmt.Errorf("child go test exceeded %v", childTimeout)
	}
	if len(child.results) == 0 && runErr != nil {
		return fmt.Errorf("child go test: %v", runErr)
	}
	return nil
}

// reportChild fails t unless the child test of the same name passed, and
// reports each of the child's subtests as a subtest of t.
func reportChild(t *testing.T) {
	t.Helper()
	child.once.Do(func() { child.err = runChild() })
	if child.err != nil {
		t.Fatalf("%v\n%s", child.err, child.log)
	}
	v, ok := child.results[t.Name()]
	if !ok {
		t.Fatalf("child run reported no result for %s\n%s", t.Name(), child.log)
	}
	prefix := t.Name() + "/"
	for name := range child.results {
		sub, ok := strings.CutPrefix(name, prefix)
		if !ok || strings.Contains(sub, "/") {
			continue
		}
		t.Run(sub, reportChild)
	}
	if v.action != "pass" {
		t.Errorf("child %s: %s\n%s", t.Name(), v.action, v.output.String())
	}
}

func TestGeneratedLockStubRecovery(t *testing.T)             { reportChild(t) }
func TestGeneratedEventStubG0(t *testing.T)                  { reportChild(t) }
func TestGeneratedEventParentChain(t *testing.T)             { reportChild(t) }
func TestGeneratedSchedStub(t *testing.T)                    { reportChild(t) }
func TestGeneratedTimerStub(t *testing.T)                    { reportChild(t) }
func TestGeneratedMMStubSubtree(t *testing.T)                { reportChild(t) }
func TestGeneratedRamFSStub(t *testing.T)                    { reportChild(t) }
func TestGeneratedServerStubStandalone(t *testing.T)         { reportChild(t) }
func TestCampaignThroughGeneratedStubs(t *testing.T)         { reportChild(t) }
func TestGeneratedAndInterpretedCampaignsAgree(t *testing.T) { reportChild(t) }
