package hpbrcu

// TestStepInlines is the per-node-loop gate: an HP-BRCU traversal step is
// meant to cost what the protocol costs — one load of the status word, the
// node visit, a countdown — and that only holds while the compiler keeps
// inlining the pieces. The test builds the packages of stepLoops with
// -gcflags=-m and fails unless the build reports every function of
// mustInline inlinable and, inside each listed per-node loop, every call
// is either inlined or one of the entry's named out-of-line calls, with
// the node visit inlined all the way down to alloc's At, which has two
// paths to keep under the inliner's budget (DESIGN.md §11.1). A
// func-valued step, a closure call, or a Poll, an At or a ver that
// outgrew the budget would otherwise come back as an indirect or real call
// per node without any test noticing. The baselines' loops are held to
// the same standard, so that no HP-BRCU ÷ baseline ratio owes anything to
// a call per node the baseline alone pays.

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// stepLoops are the guarded loops; a method's per-node loop is its
// innermost `for`, or its body when it has none: a visit the loops call.
var stepLoops = []struct {
	file    string
	methods []string
	// inlinable, if set, is a function the build must report as "can
	// inline".
	inlinable string
	// outOfLine are the calls the loops may leave out of line (and the
	// conversions, which the parser cannot tell from calls).
	outOfLine []string
	// must maps a callee to what has to be inlined at each of its call
	// sites, as a regexp; every loop has to call each of them.
	must map[string]string
}{{
	// The five expedited operations are one loop each: Step (a poll and a
	// countdown) before every node, and the buffer's Walk — the slow call —
	// only when Step or a marked node says so. A find's Shield runs once,
	// at the destination, and Conclude, inlined down to the section's
	// Exit, commits there.
	file: "internal/ds/hlist/expedited.go", methods: []string{"contains"},
	outOfLine: []string{"h.getBuf.Walk"},
	must:      map[string]string{"a.Step": brcuPoll, "a.Conclude": brcuExit, "l.At": poolAt},
}, {
	file: "internal/ds/hlist/expedited.go", methods: []string{"search"},
	outOfLine: []string{"h.searchBuf.Walk", "h.searchBuf.Shield"},
	must:      map[string]string{"a.Step": brcuPoll, "a.Conclude": brcuExit, "l.At": poolAt},
}, {
	file: "internal/ds/skiplist/expedited.go", methods: []string{"contains"},
	outOfLine: []string{"h.getBuf.Walk"},
	must:      map[string]string{"a.Step": brcuPoll, "a.Conclude": brcuExit, "l.at": poolAt},
}, {
	file: "internal/ds/skiplist/expedited.go", methods: []string{"search"},
	outOfLine: []string{"h.findBuf.Walk", "h.findBuf.Shield"},
	must:      map[string]string{"a.Step": brcuPoll, "a.Conclude": brcuExit, "l.at": poolAt},
}, {
	// t.resumable runs only inside Walk, from the valid closure built on
	// Walk's branch.
	file: "internal/ds/nmtree/expedited.go", methods: []string{"descend"},
	outOfLine: []string{"h.seekBuf.Walk", "h.seekBuf.Shield", "t.seekStep", "t.resumable"},
	must:      map[string]string{"a.Step": brcuPoll, "a.Conclude": brcuExit},
}, {
	// seekStep is the visit every scheme's tree loop calls.
	file: "internal/ds/nmtree/nmtree.go", methods: []string{"seekStep"},
	inlinable: `internal/ds/nmtree/nmtree\.go:\d+:\d+: can inline \(\*tree\)\.childEdge`,
	must:      map[string]string{"t.pool.At": poolAt},
}, {
	// VBR's per-node version check is the small caller that an At or Hdr
	// grown past ~45 of the inliner's 80 pushes out of line (−10…−30 % on
	// long reads, and no functional test notices).
	file: "internal/vbr/vbr.go", methods: []string{"search", "Get"},
	inlinable: `internal/vbr/vbr\.go:\d+:\d+: can inline \(\*List\)\.ver`,
	// retireFree runs once per marked node.
	outOfLine: []string{"h.retireFree", "word"},
	must: map[string]string{"l.ver": `alloc\.\(\*Pool\[.*\]\)\.Hdr`, "l.pool.At": poolAt,
		"atomicx.StepYield": stepYield},
}, {
	// The baselines' per-node loops: the RCU and NR pair (ebr.go), HP and
	// NBR. StepYield is inlined into each, so an unarmed harness costs
	// them one load and a branch per node, as it costs HP-BRCU's Step.
	// What they leave out of line is their own protocol's: excising and
	// retiring a marked run, HP's per-node ProtectFrom and the retire of
	// a node it unlinked, and the tree's shared visit (seekStep, pinned
	// above).
	file: "internal/ds/hlist/ebr.go", methods: []string{"find", "GetOptimistic"},
	outOfLine: []string{"h.runEnd", "h.retireRun"},
	must:      map[string]string{"atomicx.StepYield": stepYield},
}, {
	file: "internal/ds/hlist/hp.go", methods: []string{"find"},
	outOfLine: []string{"hp.ProtectFrom", "l.Pool.Hdr(cur.Slot()).Retire"},
	must:      map[string]string{"atomicx.StepYield": stepYield},
}, {
	file: "internal/ds/hlist/nbr.go", methods: []string{"searchOnce", "Get"},
	outOfLine: []string{"h.runEnd", "h.retireRun"},
	must:      map[string]string{"atomicx.StepYield": stepYield},
}, {
	file: "internal/ds/skiplist/ebr.go", methods: []string{"find", "Get"},
	must: map[string]string{"atomicx.StepYield": stepYield},
}, {
	file: "internal/ds/skiplist/hp.go", methods: []string{"find"},
	outOfLine: []string{"hp.ProtectFrom"},
	must:      map[string]string{"atomicx.StepYield": stepYield},
}, {
	file: "internal/ds/nmtree/ebr.go", methods: []string{"seek"},
	outOfLine: []string{"t.seekStep"},
	must:      map[string]string{"atomicx.StepYield": stepYield},
}, {
	file: "internal/ds/nmtree/nbr.go", methods: []string{"descend"},
	outOfLine: []string{"t.seekStep"},
	must:      map[string]string{"atomicx.StepYield": stepYield},
}}

// poolAt matches the compiler's name for an instantiation of alloc's At,
// brcuPoll and brcuExit its names for brcu's Poll and Exit, and stepYield
// its name for the one-P harness's hook.
const (
	poolAt    = `alloc\.\(\*Pool\[.*\]\)\.At`
	brcuPoll  = `brcu\.\(\*Handle\)\.Poll`
	brcuExit  = `brcu\.\(\*Handle\)\.Exit`
	stepYield = `atomicx\.StepYield`
)

// mustInline are the compiler's verdicts the loops rest on: brcu's Poll,
// which every expedited step makes; Enter and Exit, one status-word store
// each (Algorithm 5 lines 16 and 18), which every section of every
// (B)RCU scheme makes; and StepYield, which every baseline step makes.
var mustInline = []string{
	`internal/brcu/brcu\.go:\d+:\d+: can inline \(\*Handle\)\.Poll`,
	`internal/brcu/brcu\.go:\d+:\d+: can inline \(\*Handle\)\.Enter`,
	`internal/brcu/brcu\.go:\d+:\d+: can inline \(\*Handle\)\.Exit`,
	`internal/atomicx/yield\.go:\d+:\d+: can inline StepYield`,
}

func TestStepInlines(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("SKIPPED: no go tool on PATH to build with -gcflags=-m")
	}
	args := []string{"build", "-gcflags=-m", "./internal/brcu", "./internal/atomicx"}
	for _, e := range stepLoops {
		if pkg := "./" + path.Dir(e.file); !slices.Contains(args, pkg) {
			args = append(args, pkg)
		}
	}
	cmd := exec.Command(goTool, args...)
	var diag bytes.Buffer
	cmd.Stderr = &diag
	if err := cmd.Run(); err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, diag.String())
	}
	out := diag.String()

	for _, want := range mustInline {
		if !regexp.MustCompile(`(?m)^` + want + `$`).MatchString(out) {
			t.Errorf("the build does not report %q: its callers make that call again", want)
		}
	}
	for _, e := range stepLoops {
		file := e.file
		if e.inlinable != "" && !regexp.MustCompile(`(?m)^`+e.inlinable+`$`).MatchString(out) {
			t.Errorf("the build does not report %q: the step makes that call per node again", e.inlinable)
		}
		inlined := map[string]string{} // "line:col" of a call's "(" -> callees inlined there, one a line
		for _, m := range regexp.MustCompile(`(?m)^`+regexp.QuoteMeta(file)+`:(\d+:\d+): inlining call to (.*)$`).FindAllStringSubmatch(out, -1) {
			inlined[m[1]] += m[2] + "\n"
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range e.methods {
			loop := stepLoop(f, name)
			if loop == nil {
				t.Errorf("%s: no loop in %s", file, name)
				continue
			}
			seen := map[string]bool{}
			ast.Inspect(loop, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := types.ExprString(call.Fun)
				pos := fset.Position(call.Lparen)
				at := fmt.Sprintf("%d:%d", pos.Line, pos.Column)
				want, must := e.must[callee]
				if must {
					seen[callee] = true
				}
				switch {
				case slices.Contains(e.outOfLine, callee):
				case inlined[at] == "":
					t.Errorf("%s:%s: %s(...) in %s's per-node loop is a real call (not inlined, not a named out-of-line call)", file, at, callee, name)
				case must && !regexp.MustCompile(`(?m)^`+want+`$`).MatchString(inlined[at]):
					t.Errorf("%s:%s: %s(...) in %s's per-node loop does not inline down to %s: a call per node", file, at, callee, name, want)
				}
				return true
			})
			for callee := range e.must {
				if !seen[callee] {
					t.Errorf("%s: %s's per-node loop never calls %s: the assertion on it checks nothing", file, name, callee)
				}
			}
		}
		if t.Failed() {
			lines := regexp.MustCompile(`(?m)^.*`+regexp.QuoteMeta(file)+`.*$`).FindAllString(out, -1)
			t.Logf("compiler diagnostics for %s:\n%s", file, strings.Join(lines, "\n"))
		}
	}
}

// stepLoop returns the per-node loop of the named method: the innermost of
// its one nest of `for` statements, which is the last one a walk visits, or
// the body of a method without one.
func stepLoop(f *ast.File, method string) (loop ast.Node) {
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name == method && fn.Recv != nil {
			loop = fn.Body
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if s, ok := n.(*ast.ForStmt); ok {
					loop = s
				}
				return true
			})
		}
	}
	return loop
}
