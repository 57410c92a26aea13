package hpbrcu

// TestExportedDocs is the godoc lint gate: every exported identifier in
// the root package and the core internal packages must carry a real doc
// comment. It runs as part of `go test ./...`, so CI fails on an
// undocumented export the moment it appears — the documentation sweep
// cannot silently rot. The check is AST-based (go/parser), not
// reflection-based, so it needs no build of the package under test and
// sees exactly what godoc sees.

import (
	"bytes"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docCheckDirs lists the packages held to the documented-exports bar:
// the public API surface plus the internal packages DESIGN.md walks
// readers through.
var docCheckDirs = []string{
	".",
	"internal/alloc",
	"internal/brcu",
	"internal/core",
	"internal/ds/hlist",
	"internal/ds/nmtree",
	"internal/ds/skiplist",
	"internal/hp",
	"internal/nbr",
	"internal/reap",
}

func TestExportedDocs(t *testing.T) {
	for _, dir := range docCheckDirs {
		t.Run(filepath.ToSlash(dir), func(t *testing.T) {
			for _, miss := range undocumentedExports(t, dir) {
				t.Errorf("%s: exported %s has no doc comment", dir, miss)
			}
		})
	}
}

// TestOneAllocator keeps the allocator's second mode deleted: outside the
// frozen benchmark/ module, the only Go file that may say "arena" is
// internal/alloc/alloc.go, within the 20 lines of the shim that module
// still compiles — so the mode cannot grow back through a forgotten
// constructor parameter, option or counter.
func TestOneAllocator(t *testing.T) {
	confineToShim(t, regexp.MustCompile(`(?i)arena`), "internal/alloc/alloc.go", 20, "the deleted allocator mode")
}

// TestOneDomainPerMap keeps sharding deleted: a map is one domain. Outside
// the frozen benchmark/ module, the only Go file that may say "shard" is
// smr.go, within the 15 lines of the ignored Config.Shards field that
// module still sets — so sharding cannot grow back through an option.
func TestOneDomainPerMap(t *testing.T) {
	confineToShim(t, regexp.MustCompile(`(?i)shard`), "smr.go", 15, "the deleted map sharding")
}

// confineToShim fails every Go file outside benchmark/ (and this one) that
// matches re, except shim, whose matches must all fall within maxLines
// lines.
func confineToShim(t *testing.T, re *regexp.Regexp, shim string, maxLines int, what string) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (path == "benchmark" || d.Name()[0] == '.'):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || path == "doccheck_test.go":
			return nil
		}
		src, err := os.ReadFile(path)
		if hits := re.FindAllIndex(src, -1); hits == nil {
			return err
		} else if filepath.ToSlash(path) != shim {
			t.Errorf("%s mentions %s; only %s's shim for benchmark/ may", path, what, shim)
		} else if n := bytes.Count(src[hits[0][0]:hits[len(hits)-1][1]], []byte("\n")); n >= maxLines {
			t.Errorf("%s mentions %s over %d lines; the shim is at most %d", path, what, n+1, maxLines)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOneRCUUnderCore keeps the second RCU deleted: HP-RCU and the RCU and
// NR baselines all run on a BRCU domain that never signals, so outside the
// frozen benchmark/ module the internal/ebr directory may not exist and no
// Go file may import it — a private epoch scheme per baseline cannot grow
// back.
func TestOneRCUUnderCore(t *testing.T) {
	const ebrPath = "github.com/smrgo/hpbrcu/internal/ebr"
	if _, err := os.Stat("internal/ebr"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("internal/ebr exists (stat: %v); the baselines' RCU is internal/brcu with signals off", err)
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (path == "benchmark" || d.Name()[0] == '.'):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if strings.Trim(imp.Path.Value, `"`) == ebrPath {
				t.Errorf("%s imports internal/ebr; the one RCU is internal/brcu with signals off", path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestArchitectureTreeCoversPackages keeps README's architecture tree in
// step with the source: every directory under internal/ and cmd/ must
// appear in it, and every internal/ or cmd/ entry it lists must exist.
func TestArchitectureTreeCoversPackages(t *testing.T) {
	listed := architectureTree(t)
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() || path == root {
				return err
			}
			if name := d.Name(); name[0] == '.' || name == "testdata" {
				return filepath.SkipDir
			}
			if path = filepath.ToSlash(path); !listed[path] {
				t.Errorf("%s is missing from README.md's architecture tree", path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for path := range listed {
		if !strings.HasPrefix(path, "internal/") && !strings.HasPrefix(path, "cmd/") {
			continue
		}
		if fi, err := os.Stat(path); err != nil || !fi.IsDir() {
			t.Errorf("README.md's architecture tree lists %s, which is not a directory", path)
		}
	}
}

// architectureTree returns the directories README.md's architecture tree
// names, as slash paths: an entry is a line's first word ending in "/",
// nested under the nearest less-indented entry above it. Description
// columns and continuation lines sit far right of any entry's indent.
func architectureTree(t *testing.T) map[string]bool {
	t.Helper()
	src, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(src), "\n## Architecture\n")
	if ok {
		_, rest, ok = strings.Cut(rest, "```\n")
	}
	if ok {
		rest, _, ok = strings.Cut(rest, "```")
	}
	if !ok {
		t.Fatal("README.md has no code block under an \"## Architecture\" heading")
	}
	const maxIndent = 16 // entries nest 2 spaces a level; descriptions start at column 27
	type entry struct {
		indent int
		path   string
	}
	var stack []entry
	listed := map[string]bool{}
	for _, line := range strings.Split(rest, "\n") {
		word := strings.TrimLeft(line, " ")
		indent := len(line) - len(word)
		if i := strings.IndexByte(word, ' '); i >= 0 {
			word = word[:i]
		}
		if indent > maxIndent || !strings.HasSuffix(word, "/") {
			continue
		}
		for len(stack) > 0 && stack[len(stack)-1].indent >= indent {
			stack = stack[:len(stack)-1]
		}
		path := strings.TrimSuffix(word, "/")
		if len(stack) > 0 {
			path = stack[len(stack)-1].path + "/" + path
		}
		stack = append(stack, entry{indent, path})
		listed[path] = true
	}
	if !listed["internal/alloc"] || !listed["cmd/smrbench"] {
		t.Fatalf("parsed README.md's architecture tree as %v; it should at least list internal/alloc and cmd/smrbench", listed)
	}
	return listed
}

// undocumentedExports parses dir (tests excluded) and returns the
// exported top-level identifiers lacking documentation. A name in a
// grouped const/var/type block counts as documented if the block, its
// spec, or the spec's trailing comment documents it.
func undocumentedExports(t *testing.T, dir string) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse %s: %v", dir, err)
	}
	var missing []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || d.Doc != nil {
						continue
					}
					if recv := receiverName(d); recv != "" {
						if !ast.IsExported(recv) {
							continue // methods on unexported types are not API
						}
						missing = append(missing, recv+"."+d.Name.Name)
					} else {
						missing = append(missing, d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
								missing = append(missing, s.Name.Name)
							}
						case *ast.ValueSpec:
							if d.Doc != nil || s.Doc != nil || s.Comment != nil {
								continue
							}
							for _, n := range s.Names {
								if n.IsExported() {
									missing = append(missing, n.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return missing
}

// receiverName returns the receiver's base type name, or "" for plain
// functions.
func receiverName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	expr := d.Recv.List[0].Type
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr: // generic receiver T[K]
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}
