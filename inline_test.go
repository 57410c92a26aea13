package hpbrcu

// TestStepInlines is the per-node-loop gate: an HP-BRCU traversal step is
// meant to cost what the protocol costs — one load of the status word, the
// node visit, a countdown — and that only holds while the compiler keeps
// inlining the pieces. The test builds internal/brcu and internal/ds/hlist
// with -gcflags=-m and fails unless brcu's Poll is inlinable and, inside
// the per-node loops of hlist's two expedited traversals, every call is
// either inlined or one of the named out-of-line calls on a cold branch,
// with the node visit inlined all the way down to alloc's At, which has
// two paths to keep under the inliner's budget (DESIGN.md §11.1).
// A func-valued step, a closure call, or a Poll or an At that outgrew the
// budget would otherwise come back as an indirect or real call per node
// without any test noticing.

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// coldCalls are the calls a per-node loop may leave out of line: each sits
// behind a branch taken once per checkpoint, rollback, marked run or
// finished traversal, or behind the local instrumented flag.
var coldCalls = map[string]bool{
	"w.StepHooks": true, "w.Checkpoint": true, "w.Finish": true, "w.Fail": true,
	"h.excise": true,
}

func TestStepInlines(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("SKIPPED: no go tool on PATH to build with -gcflags=-m")
	}
	cmd := exec.Command(goTool, "build", "-gcflags=-m", "./internal/brcu", "./internal/ds/hlist")
	var diag bytes.Buffer
	cmd.Stderr = &diag
	if err := cmd.Run(); err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, diag.String())
	}
	out := diag.String()

	if !regexp.MustCompile(`(?m)^internal/brcu/brcu\.go:\d+:\d+: can inline \(\*Handle\)\.Poll$`).MatchString(out) {
		t.Error("brcu.(*Handle).Poll is not inlinable: the step's poll is a call again")
	}

	const file = "internal/ds/hlist/expedited.go"
	inlined := map[string][]string{} // "line:col" of a call's "(" -> callees inlined there
	for _, m := range regexp.MustCompile(`(?m)^`+regexp.QuoteMeta(file)+`:(\d+:\d+): inlining call to (.*)$`).FindAllStringSubmatch(out, -1) {
		inlined[m[1]] = append(inlined[m[1]], m[2])
	}

	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"search", "contains"} {
		loop := stepLoop(f, name)
		if loop == nil {
			t.Errorf("%s: no per-node loop inside a `for w.Enter(...)` in %s", file, name)
			continue
		}
		polls, resolves := false, false
		ast.Inspect(loop, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := types.ExprString(call.Fun)
			pos := fset.Position(call.Lparen)
			at := fmt.Sprintf("%d:%d", pos.Line, pos.Column)
			switch {
			case coldCalls[callee]:
			case len(inlined[at]) == 0:
				t.Errorf("%s:%s: %s(...) in %s's per-node loop is a real call (not inlined, not a named cold call)", file, at, callee, name)
			case callee == "w.Poll":
				polls = strings.Contains(strings.Join(inlined[at], "\n"), "brcu.(*Handle).Poll")
			case callee == "l.At":
				if !poolAt.MatchString(strings.Join(inlined[at], "\n")) {
					t.Errorf("%s:%s: l.At(...) in %s's per-node loop does not inline down to alloc.(*Pool).At: resolving a slot is a call per node", file, at, name)
				}
				resolves = true
			}
			return true
		})
		if !polls {
			t.Errorf("%s: %s's per-node loop does not inline w.Poll down to brcu.(*Handle).Poll", file, name)
		}
		if !resolves {
			t.Errorf("%s: %s's per-node loop resolves no node through l.At: the At assertion checks nothing", file, name)
		}
	}
	if t.Failed() {
		t.Logf("compiler diagnostics for %s:\n%s", file, grepLines(out, file))
	}
}

// poolAt matches the compiler's name for an instantiation of alloc's At.
var poolAt = regexp.MustCompile(`(?m)^alloc\.\(\*Pool\[.*\]\)\.At$`)

// stepLoop returns the per-node loop of the named method: the `for` nested
// directly in the body of its `for w.Enter(...)` loop.
func stepLoop(f *ast.File, method string) (loop *ast.ForStmt) {
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Name.Name != method || fn.Recv == nil {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			attempts, ok := n.(*ast.ForStmt)
			if !ok || loop != nil {
				return loop == nil
			}
			if cond, ok := attempts.Cond.(*ast.CallExpr); !ok || types.ExprString(cond.Fun) != "w.Enter" {
				return true
			}
			for _, s := range attempts.Body.List {
				if inner, ok := s.(*ast.ForStmt); ok {
					loop = inner
				}
			}
			return false
		})
	}
	return loop
}

func grepLines(s, substr string) string {
	var b strings.Builder
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			b.WriteString(line + "\n")
		}
	}
	return b.String()
}
