// The exported surface of internal/ holds only what something outside a
// package's own tests reaches (`make api`): every exported function or
// method declared in a non-test file under internal/ must be named by
// non-test code somewhere in the repository, or by the tests of another
// package. A function only its own package's tests call is either dead
// code those tests keep alive or a test oracle, which lives in a test file.
package mccs_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// apiAllowed are the exported functions kept for their own package's tests,
// keyed as the check prints them.
var apiAllowed = map[string]string{
	// The chaos harness's test-facing API: the sweep tests read a
	// seed's verdict, a sweep's failures and the weakened protocol.
	"chaos.Clean":                "test-facing API of the chaos harness",
	"chaos.SweepResult.Failures": "test-facing API of the chaos harness",
	"chaos.Scenario.Weakened":    "test-facing API of the chaos harness",
	// The max-min solver and RunUntil's limit semantics are verified
	// through a flow's progress and an explicit settle.
	"netsim.Flow.Transferred": "observes the solver's progress in its tests",
	"netsim.Fabric.Sync":      "settles the fabric at a limit in its tests",
}

// apiDecl is one exported function or method declared in a non-test file.
type apiDecl struct {
	key  string // pkg[.Recv].Name
	dir  string
	name string
}

// scanAPI parses every Go file under root and returns the exported
// functions of internal/, the names non-test code uses, and the names each
// directory's tests use. A name counts as used wherever it appears as an
// identifier other than a function's own declaration, so the check is
// conservative: two functions that share a name vouch for each other.
func scanAPI(t *testing.T, root string) (decls []apiDecl, used map[string]bool, testUsed map[string]map[string]bool) {
	used = map[string]bool{}
	testUsed = map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "testdata" || n == "results") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		dir := filepath.ToSlash(filepath.Dir(rel))
		isTest := strings.HasSuffix(path, "_test.go")
		names := used
		if isTest {
			if testUsed[dir] == nil {
				testUsed[dir] = map[string]bool{}
			}
			names = testUsed[dir]
		}
		// A function's own name and identifiers in type positions (a
		// type shares no namespace with a method: trace.Level does not
		// vouch for Recorder.Level) are not uses.
		skip := map[*ast.Ident]bool{}
		markTypes := func(e ast.Node) {
			ast.Inspect(e, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					skip[id] = true
				}
				return true
			})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Field:
				markTypes(x.Type)
			case *ast.ValueSpec:
				if x.Type != nil {
					markTypes(x.Type)
				}
			case *ast.TypeSpec:
				markTypes(x)
			case *ast.CompositeLit:
				if x.Type != nil {
					markTypes(x.Type)
				}
			case *ast.TypeAssertExpr:
				if x.Type != nil {
					markTypes(x.Type)
				}
			case *ast.ArrayType, *ast.MapType, *ast.ChanType:
				markTypes(x)
			}
			return true
		})
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			skip[fd.Name] = true
			if isTest || !strings.HasPrefix(dir, "internal/") || !fd.Name.IsExported() {
				continue
			}
			key := filepath.Base(dir) + "."
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				key += recvName(fd.Recv.List[0].Type) + "."
			}
			decls = append(decls, apiDecl{key: key + fd.Name.Name, dir: dir, name: fd.Name.Name})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !skip[id] {
				names[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls, used, testUsed
}

func recvName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}

func TestExportedAPIHasNonTestCallers(t *testing.T) {
	decls, used, testUsed := scanAPI(t, ".")
	var unused []string
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		if used[d.name] || apiAllowed[d.key] != "" {
			continue
		}
		reached := false
		for dir, names := range testUsed {
			if dir != d.dir && names[d.name] {
				reached = true
				break
			}
		}
		if !reached {
			unused = append(unused, d.key)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d exported functions are called only by their own package's tests; delete them, or move a test oracle into a test file:\n\t%s",
			len(unused), strings.Join(unused, "\n\t"))
	}
	for key := range apiAllowed {
		if !seen[key] {
			t.Errorf("allowlist names %s, which is no longer declared", key)
		}
	}
}
