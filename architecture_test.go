// The architecture gate (`make reach`, `make door`, `make observers`,
// `make tenants`, `make state`, `make service`, `make fields` and `make
// decider`): the root module and bench/ are type-checked once with
// go/types, and eight rules are applied to what every identifier resolves
// to, so a method value, an aliased import or two functions that share a
// name are seen for what they are.
package mccs_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// archAllow lets rule reach where (a path prefix relative to the
// repository root, or for fields an exported name as the rule prints it)
// for its reason.
type archAllow struct{ rule, where, reason string }

// archAllowed is the one allowlist. It only grows with a reason.
var archAllowed = []archAllow{
	{"door", "internal/policy/", "policy decides a communicator's strategy and routes (paper §4.3)"},
	{"door", "internal/mccsd/", "the service executes a decision: Deployment pushes routes to its proxies"},
	{"door", "internal/chaos/inject.go", "the chaos reconfig storm, the Fig. 4 adversary, not a decider"},
	{"observers", "internal/harness/", "a run's observers are chosen in one place, harness.Observers, and attached by harness.NewEnv"},
	{"observers", "bench/", "the benchmark module attaches its own recorder and registry for its traced pass"},
	{"tenants", "internal/workload/", "workload.Launch runs every experiment's tenants"},
	{"tenants", "internal/chaos/runseed.go", "chaos ranks allocate backed buffers per op and check every result against the closed form, which Launch does not"},
	{"tenants", "bench/", "the frozen benchmark module"},
	{"tenants", "examples/", "the public-API demos"},
	{"state", "internal/chaos/runseed.go", "chaos runs many environments in a row (a sweep, the benchmark's seeds), so it keeps the one runScratch they share: the deployments' mccsd.Scratch and the script tables"},
	{"reach", "internal/allocpin/", "test support: the exact allocation pins' reading of testing.AllocsPerRun; only test files import it"},
	{"reach", "internal/collectivetest/", "test support: the schedule IR's reference executor and result oracle the tests of five packages share; only test files import it"},
	{"fields", "cluster.JobResult.ID", "TestRunMatchesReference and FuzzClusterRun compare every job result bit for bit against referenceRun"},
	{"fields", "cluster.JobResult.Arrived", "TestRunMatchesReference and FuzzClusterRun compare every job result bit for bit against referenceRun"},
	{"fields", "cluster.JobResult.Started", "TestRunMatchesReference and FuzzClusterRun compare every job result bit for bit against referenceRun"},
	{"fields", "chaos.Result.Faults", "the injected-fault ground truth the doctor and self-heal tests score against"},
	{"fields", "netsim.Counters.Fills", "TestSolveFillsOncePlusPriority pins one fill per solve, and two with a priority flow"},
}

// archRules are the eight rules, each a function from the type-checked
// program to every reference it forbids, before the allowlist.
var archRules = []struct {
	name string
	hits func(*archProgram) []archHit
}{
	// Only what runs: a function or method declared in a non-test file
	// under internal/ is reached from a binary, an init or the public API.
	{"reach", unreached},
	// One door for reconfiguration: policy decides, the service executes.
	{"door", referrers("changes a communicator's strategy or routes", func(fn *types.Func) bool {
		return isModuleMethod(fn, "Reconfigure", "UpdateRoutes")
	})},
	// One attach site for observers.
	{"observers", referrers("attaches an observer", func(fn *types.Func) bool {
		switch fn.FullName() {
		case "mccs/internal/trace.Attach", "mccs/internal/trace.NewRecorder",
			"mccs/internal/telemetry.Attach", "mccs/internal/diagnosis.Attach":
			return true
		}
		return false
	})},
	// One tenant runner: tenants join communicators through workload.Launch.
	{"tenants", referrers("joins a communicator outside workload.Launch", func(fn *types.Func) bool {
		return isModuleMethod(fn, "CommInitRank")
	})},
	// Scratch memory belongs to a deployment (mccsd.Scratch): no package
	// variable holds a free list.
	{"state", freeListVars},
	// The service engines are step functions (sim.Scheduler.GoStep): none
	// starts a goroutine process.
	{"service", inside(serviceEngines, referrers("starts a goroutine process in a service engine", func(fn *types.Func) bool {
		switch fn.FullName() {
		case "(*mccs/internal/sim.Scheduler).Go", "(*mccs/internal/sim.Scheduler).GoDaemon":
			return true
		}
		return false
	}))},
	// Only what is read: an exported field of a struct type under
	// internal/ is read by something other than its own package's tests.
	{"fields", unreadFields},
	// One decider per deployment: only harness.Env.Controller builds a
	// policy.Controller.
	{"decider", deciders},
}

// serviceEngines are the directories of the service stack below the
// tenants: the daemon, the proxy engine and its control ring, the
// transport, the fabric and the devices.
var serviceEngines = []string{
	"internal/proxy/", "internal/mccsd/", "internal/transport/",
	"internal/netsim/", "internal/gpusim/", "internal/control/",
}

// inside narrows a rule to the references it finds under dirs.
func inside(dirs []string, rule func(*archProgram) []archHit) func(*archProgram) []archHit {
	return func(p *archProgram) []archHit {
		var hits []archHit
		for _, h := range rule(p) {
			if slices.ContainsFunc(dirs, func(d string) bool { return strings.HasPrefix(h.where, d) }) {
				hits = append(hits, h)
			}
		}
		return hits
	}
}

func TestArchitecture(t *testing.T) {
	t.Parallel()
	prog, err := loadRepository()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range archRules {
		t.Run(r.name, func(t *testing.T) {
			msgs, stale := disallowed(archAllowed, r.name, r.hits(prog))
			for _, msg := range msgs {
				t.Error(msg)
			}
			for _, where := range stale {
				t.Errorf("allowlist entry %q matches nothing; delete it", where)
			}
		})
	}
}

// archHit is one forbidden reference: where is the file holding it (or,
// for fields and for reach outside a test-support package, the name) and
// msg says what it does.
type archHit struct{ where, msg string }

// disallowed returns the messages of the hits no entry of allowed for rule
// covers, sorted and without repeats, and the entries of rule that cover
// no hit.
func disallowed(allowed []archAllow, rule string, hits []archHit) (msgs, stale []string) {
	covered := map[string]bool{}
	seen := map[string]bool{}
next:
	for _, h := range hits {
		for _, a := range allowed {
			if a.rule == rule && (h.where == a.where || strings.HasSuffix(a.where, "/") && strings.HasPrefix(h.where, a.where)) {
				covered[a.where] = true
				continue next
			}
		}
		if !seen[h.msg] {
			seen[h.msg] = true
			msgs = append(msgs, h.msg)
		}
	}
	for _, a := range allowed {
		if a.rule == rule && !covered[a.where] {
			stale = append(stale, a.where)
		}
	}
	sort.Strings(msgs)
	return msgs, stale
}

// archProgram is every package variant of the repository, type-checked.
// The variants of a package share its parsed files, so an object has one
// position however many variants declare it: positions are identities.
type archProgram struct {
	fset  *token.FileSet
	root  string // the directory file paths are reported relative to
	units []*archUnit
}

type archUnit struct {
	id    string // the variant's import path as go list prints it
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// archPackage is one package variant as `go list -deps -test` prints it.
type archPackage struct {
	ImportPath string // with the variant's suffix, e.g. "p [p.test]"
	Dir        string
	Standard   bool
	GoFiles    []string
	Imports    []string // resolved through ImportMap
	ImportMap  map[string]string
	Export     string // the export data file, with -export
}

// rel is the slash-separated path of pos's file relative to the root.
func (p *archProgram) rel(pos token.Pos) string {
	r, err := filepath.Rel(p.root, p.fset.File(pos).Name())
	if err != nil {
		return p.fset.File(pos).Name()
	}
	return filepath.ToSlash(r)
}

func (p *archProgram) position(pos token.Pos) string {
	return fmt.Sprintf("%s:%d", p.rel(pos), p.fset.Position(pos).Line)
}

// loadRepository lists the root module and bench/ with `go list -deps
// -test -json ./...` and type-checks every listed variant of their
// packages, std from the compiler's export data.
func loadRepository() (*archProgram, error) {
	var pkgs []archPackage
	var std []string // the std packages the repository imports
	for _, dir := range []string{".", "bench"} {
		listed, err := goList(dir, "-deps", "-test", "./...")
		if err != nil {
			return nil, err
		}
		isStd := map[string]bool{}
		for _, p := range listed {
			isStd[p.ImportPath] = p.Standard
		}
		for _, p := range listed {
			if p.Standard {
				continue
			}
			for _, imp := range p.Imports {
				if isStd[imp] {
					std = append(std, imp)
				}
			}
			for i, f := range p.GoFiles {
				if !filepath.IsAbs(f) {
					p.GoFiles[i] = filepath.Join(p.Dir, f)
				}
			}
			pkgs = append(pkgs, p)
		}
	}
	// One `go list -export` finds the export data of them all; the
	// importer's own lookup runs go list once per package.
	sort.Strings(std)
	listed, err := goList(".", append([]string{"-export"}, slices.Compact(std)...)...)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, p := range listed {
		exports[p.ImportPath] = p.Export
	}
	root, err := filepath.Abs(".")
	if err != nil {
		return nil, err
	}
	return typeCheck(root, pkgs, nil, exports)
}

// goList runs `go list -json` with args in dir.
func goList(dir string, args ...string) ([]archPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []archPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p archPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// typeCheck type-checks pkgs, reading a file from src when it is there and
// from disk otherwise, and a std package from its export data file in
// exports. A package listed twice (a dependency of two modules) is
// checked once. Any type error fails the load.
func typeCheck(root string, pkgs []archPackage, src, exports map[string]string) (*archProgram, error) {
	prog := &archProgram{fset: token.NewFileSet(), root: root}
	std := importer.ForCompiler(prog.fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	byID := map[string]*archPackage{}
	for i := range pkgs {
		byID[pkgs[i].ImportPath] = &pkgs[i]
	}
	parsed := map[string]*ast.File{}
	checked := map[string]*types.Package{}
	var check func(p *archPackage) (*types.Package, error)
	check = func(p *archPackage) (*types.Package, error) {
		if done, ok := checked[p.ImportPath]; ok {
			return done, nil
		}
		u := &archUnit{id: p.ImportPath, info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}}
		for _, name := range p.GoFiles {
			f := parsed[name]
			if f == nil {
				var s any
				if text, ok := src[name]; ok {
					s = text
				}
				var err error
				if f, err = parser.ParseFile(prog.fset, name, s, parser.SkipObjectResolution); err != nil {
					return nil, fmt.Errorf("%s: %v", p.ImportPath, err)
				}
				parsed[name] = f
			}
			u.files = append(u.files, f)
		}
		var errs []error
		conf := types.Config{
			Importer: importerFunc(func(path string) (*types.Package, error) {
				id := path
				if m, ok := p.ImportMap[path]; ok {
					id = m
				}
				if dep := byID[id]; dep != nil {
					return check(dep)
				}
				return std.Import(path)
			}),
			Error: func(err error) { errs = append(errs, err) },
		}
		path, _, _ := strings.Cut(p.ImportPath, " ")
		u.pkg, _ = conf.Check(path, prog.fset, u.files, u.info)
		if len(errs) > 0 {
			return nil, fmt.Errorf("%s does not type-check: %w", p.ImportPath, errors.Join(errs...))
		}
		checked[p.ImportPath] = u.pkg
		prog.units = append(prog.units, u)
		return u.pkg, nil
	}
	for i := range pkgs {
		if _, err := check(&pkgs[i]); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func isModuleMethod(fn *types.Func, names ...string) bool {
	if fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	if p := fn.Pkg().Path(); p != "mccs" && !strings.HasPrefix(p, "mccs/") {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

func isTestFile(rel string) bool { return strings.HasSuffix(rel, "_test.go") }

// referrers is a rule that forbids non-test code to refer to a function
// target selects, a call or a method value alike, in its own package too.
func referrers(does string, target func(*types.Func) bool) func(*archProgram) []archHit {
	return func(p *archProgram) []archHit {
		var hits []archHit
		for _, u := range p.units {
			for id, obj := range u.info.Uses {
				fn, ok := obj.(*types.Func)
				if !ok || !target(fn) {
					continue
				}
				if rel := p.rel(id.Pos()); !isTestFile(rel) {
					hits = append(hits, archHit{rel, fmt.Sprintf("%s: %s (%s)", p.position(id.Pos()), does, fn.FullName())})
				}
			}
		}
		return hits
	}
}

// unreached is the reach rule: a function or method declared in a non-test
// file under internal/ that no root reaches. The roots are every main and
// init function and every package-level initialiser of a package a binary
// or the root package links, and the root package's exported API with the
// methods of the types it re-exports. A function is reached when reached
// code refers to it, a call and a method value alike; a method also when
// its type is live (reached code names it or holds a value of it) and it
// is called through an interface, or it satisfies a std interface (std
// code calls it: fmt a String, sort a Less). A hit in a package that a
// non-test file imports is reported under its name, so no package row can
// cover it; one in a package that only tests import, under its file, so a
// package row can certify a test-support package, and goes stale the day
// production code imports it.
func unreached(p *archProgram) []archHit {
	type decl struct {
		node ast.Node
		info *types.Info
	}
	funcs := map[token.Pos]decl{} // by the declared name's position
	typeDecls := map[token.Pos]decl{}
	globals := map[string][]decl{} // package-level var declarations, by package
	imported := map[string]bool{}
	seen := map[*ast.File]bool{}
	for _, u := range p.units {
		for _, f := range u.files {
			rel := p.rel(f.Pos())
			if seen[f] || isTestFile(rel) || strings.HasPrefix(rel, "..") {
				continue
			}
			seen[f] = true
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				imported[path] = true
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					funcs[d.Name.Pos()] = decl{d, u.info}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok {
							typeDecls[ts.Name.Pos()] = decl{ts, u.info}
						}
					}
					if d.Tok == token.VAR {
						globals[u.pkg.Path()] = append(globals[u.pkg.Path()], decl{d, u.info})
					}
				}
			}
		}
	}

	// The packages a binary or the root package links: their inits and
	// package-level initialisers run.
	linked := map[string]bool{}
	var link func(pkg *types.Package)
	link = func(pkg *types.Package) {
		if !linked[pkg.Path()] {
			linked[pkg.Path()] = true
			for _, imp := range pkg.Imports() {
				link(imp)
			}
		}
	}
	for _, u := range p.units {
		if !strings.Contains(u.id, " ") && !strings.HasSuffix(u.id, ".test") && (u.pkg.Name() == "main" || u.pkg.Path() == "mccs") {
			link(u.pkg)
		}
	}

	reached := map[token.Pos]bool{}
	live := map[token.Pos]bool{}
	var work []decl
	var liveTypes []*types.Named
	type ifaceMethod struct {
		it   *types.Interface
		name string // "" for every method: a std interface
	}
	var called []ifaceMethod
	calledKey := map[string]bool{}
	reach := func(fn *types.Func) {
		pos := fn.Origin().Pos()
		if d, ok := funcs[pos]; ok && !reached[pos] {
			reached[pos] = true
			work = append(work, d)
		}
	}
	var markLive func(t types.Type)
	markLive = func(t types.Type) {
		if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
			t = ptr.Elem()
		}
		n, ok := types.Unalias(t).(*types.Named)
		if !ok {
			return
		}
		n = n.Origin()
		pos := n.Obj().Pos()
		if d, ok := typeDecls[pos]; ok && !live[pos] {
			live[pos] = true
			liveTypes = append(liveTypes, n)
			work = append(work, d)
		}
	}
	walk := func(d decl) {
		ast.Inspect(d.node, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || d.info.Uses[id] == nil {
				return true
			}
			switch obj := d.info.Uses[id].(type) {
			case *types.Func:
				recv := obj.Type().(*types.Signature).Recv()
				if recv == nil || !types.IsInterface(recv.Type()) {
					reach(obj)
					break
				}
				if key := types.TypeString(recv.Type(), nil) + "." + obj.Name(); !calledKey[key] {
					calledKey[key] = true
					called = append(called, ifaceMethod{recv.Type().Underlying().(*types.Interface), obj.Name()})
				}
			default: // a type name, a variable, a constant: its type is live
				markLive(obj.Type())
			}
			return true
		})
	}

	// Every std interface of a package the repository imports, and error.
	called = append(called, ifaceMethod{types.Universe.Lookup("error").Type().Underlying().(*types.Interface), ""})
	stdSeen := map[string]bool{}
	for _, u := range p.units {
		for _, imp := range u.pkg.Imports() {
			if path := imp.Path(); path == "mccs" || strings.HasPrefix(path, "mccs/") || stdSeen[path] {
				continue
			}
			stdSeen[imp.Path()] = true
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
						called = append(called, ifaceMethod{it, ""})
					}
				}
			}
		}
	}

	// The roots.
	for _, u := range p.units {
		if !linked[u.pkg.Path()] || strings.Contains(u.id, " ") {
			continue
		}
		for _, f := range u.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main" && u.pkg.Name() == "main") {
					if !reached[fd.Name.Pos()] {
						reached[fd.Name.Pos()] = true
						work = append(work, decl{fd, u.info})
					}
				}
			}
		}
		if u.pkg.Path() != "mccs" {
			continue
		}
		for _, name := range u.pkg.Scope().Names() {
			switch obj := u.pkg.Scope().Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() {
					reach(obj)
				}
			case *types.TypeName:
				if obj.Exported() {
					markLive(obj.Type())
					mset := types.NewMethodSet(types.NewPointer(obj.Type()))
					for i := 0; i < mset.Len(); i++ {
						if m := mset.At(i).Obj(); m.Exported() {
							reach(m.(*types.Func))
						}
					}
				}
			}
		}
	}
	for path, ds := range globals {
		if linked[path] {
			for _, d := range ds {
				walk(d)
			}
		}
	}

	// Walk to a fixed point: every (live type, called interface method)
	// pair is checked once.
	msets := map[*types.Named]*types.MethodSet{}
	doneTypes, doneCalls := 0, 0
	for len(work) > 0 {
		for len(work) > 0 {
			d := work[len(work)-1]
			work = work[:len(work)-1]
			walk(d)
		}
		nt, nc := len(liveTypes), len(called)
		for i, n := range liveTypes[:nt] {
			for j, c := range called[:nc] {
				if i < doneTypes && j < doneCalls {
					continue
				}
				if msets[n] == nil {
					msets[n] = types.NewMethodSet(types.NewPointer(n))
				}
				if !implements(msets[n], c.it) {
					continue
				}
				for k := 0; k < c.it.NumMethods(); k++ {
					if m := c.it.Method(k); c.name == "" || m.Name() == c.name {
						reach(msets[n].Lookup(m.Pkg(), m.Name()).Obj().(*types.Func))
					}
				}
			}
		}
		doneTypes, doneCalls = nt, nc
	}

	var hits []archHit
	for pos, d := range funcs {
		rel := p.rel(pos)
		if reached[pos] || !strings.HasPrefix(rel, "internal/") {
			continue
		}
		fd := d.node.(*ast.FuncDecl)
		fn := d.info.Defs[fd.Name].(*types.Func)
		name := fn.Pkg().Name() + "." + fn.Name()
		if recv := fd.Recv; recv != nil {
			name = fn.Pkg().Name() + "." + recvName(fn) + "." + fn.Name()
		}
		lines := p.fset.Position(fd.End()).Line - p.fset.Position(fd.Pos()).Line + 1
		where := rel
		if imported[fn.Pkg().Path()] {
			where = name
		}
		hits = append(hits, archHit{where, fmt.Sprintf("%s: %s (%d lines) is reached from no main, init, package initialiser or public API; delete it, or move a test oracle next to its tests", p.position(pos), name, lines)})
	}
	return hits
}

// aliasedTypes are the declarations of the named types a type alias of
// the root package re-exports: the public API.
func aliasedTypes(p *archProgram) map[token.Pos]bool {
	aliased := map[token.Pos]bool{}
	for _, u := range p.units {
		if u.pkg.Path() != "mccs" {
			continue
		}
		for _, name := range u.pkg.Scope().Names() {
			if tn, ok := u.pkg.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
				if n, ok := types.Unalias(tn.Type()).(*types.Named); ok {
					aliased[n.Obj().Pos()] = true
				}
			}
		}
	}
	return aliased
}

// ownTest reports whether id, a use of the module's obj, stands in a test
// file of the package directory that declares obj: a use fields does not
// count.
func (p *archProgram) ownTest(id *ast.Ident, obj types.Object) bool {
	if obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), "mccs/") {
		return false
	}
	rel := p.rel(id.Pos())
	return isTestFile(rel) && filepath.Dir(rel) == filepath.Dir(p.rel(obj.Pos()))
}

// unreadFields is the fields rule: every exported field of a struct type
// declared in a non-test file under internal/ is read by something other
// than its own package's tests. A use is a read unless it is a
// composite-literal key, the left side of an assignment or the operand of
// ++ or --; &x.F reads. A field with a struct tag (encoding/json reads it)
// and a field of a type the root package aliases (the public API) are
// exempt; an embedded field, read through what it promotes, is not
// checked.
func unreadFields(p *archProgram) []archHit {
	aliased := aliasedTypes(p)
	decls := map[token.Pos]string{} // field -> its name as the rule prints it
	read := map[token.Pos]bool{}
	var declare func(prefix string, st *ast.StructType)
	declare = func(prefix string, st *ast.StructType) {
		for _, f := range st.Fields.List {
			if inner, ok := f.Type.(*ast.StructType); ok {
				for _, n := range f.Names {
					declare(prefix+"."+n.Name, inner)
				}
			}
			if f.Tag != nil {
				continue
			}
			for _, n := range f.Names {
				if n.IsExported() {
					decls[n.Pos()] = prefix + "." + n.Name
				}
			}
		}
	}
	for _, u := range p.units {
		writes := map[*ast.Ident]bool{}
		written := func(x ast.Expr) {
			switch x := ast.Unparen(x).(type) {
			case *ast.SelectorExpr:
				writes[x.Sel] = true
			case *ast.Ident:
				writes[x] = true
			}
		}
		for _, f := range u.files {
			if rel := p.rel(f.Pos()); !isTestFile(rel) && strings.HasPrefix(rel, "internal/") {
				for _, d := range f.Decls {
					if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
						for _, spec := range gd.Specs {
							ts := spec.(*ast.TypeSpec)
							if st, ok := ts.Type.(*ast.StructType); ok && !aliased[ts.Name.Pos()] {
								declare(u.pkg.Name()+"."+ts.Name.Name, st)
							}
						}
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					written(n.Key)
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						written(l)
					}
				case *ast.IncDecStmt:
					written(n.X)
				}
				return true
			})
		}
		for id, obj := range u.info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() && !writes[id] && !p.ownTest(id, v.Origin()) {
				read[v.Origin().Pos()] = true
			}
		}
	}
	var hits []archHit
	for pos, name := range decls {
		if !read[pos] {
			hits = append(hits, archHit{name, fmt.Sprintf("%s: %s is never read outside its own package's tests; delete it and what fills it", p.position(pos), name)})
		}
	}
	return hits
}

// deciders is the decider rule: a non-test reference to
// policy.NewController anywhere but in the body of harness.Env.Controller,
// which builds a deployment's one controller.
func deciders(p *archProgram) []archHit {
	var hits []archHit
	for _, u := range p.units {
		for id, obj := range u.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || fn.FullName() != "mccs/internal/policy.NewController" {
				continue
			}
			rel := p.rel(id.Pos())
			if isTestFile(rel) || u.enclosing(id.Pos()) == "(*mccs/internal/harness.Env).Controller" {
				continue
			}
			hits = append(hits, archHit{rel, fmt.Sprintf("%s: builds a second policy controller (%s); a deployment has one, harness.Env.Controller", p.position(id.Pos()), fn.FullName())})
		}
	}
	return hits
}

// enclosing names the function or method whose declaration holds pos, ""
// outside any.
func (u *archUnit) enclosing(pos token.Pos) string {
	for _, f := range u.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos < fd.End() {
				if fn, ok := u.info.Defs[fd.Name].(*types.Func); ok {
					return fn.FullName()
				}
			}
		}
	}
	return ""
}

// freeListVars is the state rule: a package-level variable, in any file,
// whose type is a freelist.List, a pointer to one, or a struct or array
// that holds one by value.
func freeListVars(p *archProgram) []archHit {
	var holds func(t types.Type) bool
	holds = func(t types.Type) bool {
		if n, ok := types.Unalias(t).(*types.Named); ok && n.Origin().Obj().Pkg() != nil &&
			n.Origin().Obj().Pkg().Path()+"."+n.Origin().Obj().Name() == "mccs/internal/freelist.List" {
			return true
		}
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if holds(u.Field(i).Type()) {
					return true
				}
			}
		case *types.Array:
			return holds(u.Elem())
		}
		return false
	}
	var hits []archHit
	for _, u := range p.units {
		for _, obj := range u.info.Defs {
			v, ok := obj.(*types.Var)
			if !ok || v.Parent() != u.pkg.Scope() {
				continue
			}
			t := v.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if holds(t) {
				hits = append(hits, archHit{p.rel(v.Pos()), fmt.Sprintf("%s: package variable %s holds a free list (%s); a deployment owns its scratch memory (mccsd.Scratch)", p.position(v.Pos()), v.Name(), v.Type())})
			}
		}
	}
	return hits
}

// recvName is the name of the type fn, a method, is declared on.
func recvName(fn *types.Func) string {
	t := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return types.Unalias(t).(*types.Named).Obj().Name()
}

// implements reports whether the method set mset has every method of it.
// Signatures are compared as strings, so the type and the interface may
// come from different variants of a package.
func implements(mset *types.MethodSet, it *types.Interface) bool {
	sig := func(f types.Object) string {
		s := f.Type().(*types.Signature)
		var b strings.Builder
		for _, vars := range []*types.Tuple{s.Params(), s.Results()} {
			for i := 0; i < vars.Len(); i++ {
				b.WriteString(types.TypeString(vars.At(i).Type(), (*types.Package).Path) + ",")
			}
			b.WriteString(";")
		}
		return b.String()
	}
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		sel := mset.Lookup(m.Pkg(), m.Name())
		if sel == nil || sig(sel.Obj()) != sig(m) {
			return false
		}
	}
	return true
}

// plantedBase is a miniature of the repository that keeps every rule: the
// rows of TestArchitectureRulesCatchPlanted each add a file to it.
var plantedBase = map[string]string{
	"internal/proxy/proxy.go": `package proxy
import "mccs/internal/sim"
type Comm struct{}
func (c *Comm) UpdateRoutes() {}
func Start(s *sim.Scheduler)  { s.GoStep(nil) }`,
	"internal/sim/sim.go": `package sim
type Scheduler struct{}
func (s *Scheduler) Go(fn func())           {}
func (s *Scheduler) GoDaemon(fn func())     {}
func (s *Scheduler) GoStep(fn func() bool) {}`,
	"internal/mccsd/mccsd.go": `package mccsd
import "mccs/internal/proxy"
type Deployment struct{ c proxy.Comm }
func (d *Deployment) Reconfigure()  { d.c.UpdateRoutes() }
func (d *Deployment) UpdateRoutes() {}
type Frontend struct{}
func (f *Frontend) CommInitRank() {}`,
	"internal/trace/trace.go": `package trace
type Recorder struct{ Dropped int }
func NewRecorder() *Recorder { return &Recorder{Dropped: 0} }
func Attach(r *Recorder)     {}`,
	"internal/freelist/freelist.go": `package freelist
type List[T any] struct{ bins [][]T }`,
	"internal/telemetry/telemetry.go": `package telemetry
func Attach() {}`,
	"internal/diagnosis/diagnosis.go": `package diagnosis
func Attach() {}`,
	"internal/policy/policy.go": `package policy
import "mccs/internal/mccsd"
func Apply(d *mccsd.Deployment) { d.Reconfigure(); d.UpdateRoutes() }
type Controller struct{}
func NewController(d *mccsd.Deployment) *Controller { return &Controller{} }`,
	"internal/workload/workload.go": `package workload
import "mccs/internal/mccsd"
func Launch(f *mccsd.Frontend) { f.CommInitRank() }`,
	"internal/harness/harness.go": `package harness
import (
	"mccs/internal/diagnosis"
	"mccs/internal/policy"
	"mccs/internal/sim"
	"mccs/internal/telemetry"
	"mccs/internal/trace"
)
func NewEnv(s *sim.Scheduler) {
	trace.Attach(trace.NewRecorder()); telemetry.Attach(); diagnosis.Attach()
	s.Go(nil); s.GoDaemon(nil)
}
type Env struct{ ctrl *policy.Controller }
func (e *Env) Controller() *policy.Controller { e.ctrl = policy.NewController(nil); return e.ctrl }`,
	"internal/pintest/pin.go":      "package pintest\nfunc Min() {}",
	"internal/proxy/proxy_test.go": "package proxy\nimport \"mccs/internal/pintest\"\nfunc pin() { pintest.Min() }",
	"cmd/app/main.go": `package main
import (
	"mccs/internal/harness"
	"mccs/internal/policy"
	"mccs/internal/proxy"
	"mccs/internal/workload"
)
func main() {
	harness.NewEnv(nil); policy.Apply(nil); workload.Launch(nil); new(harness.Env).Controller()
	proxy.Start(nil)
}`,
}

// plantedAllowed is the allowlist of the miniature, each entry covering
// something in plantedBase, so that a row which leaves an entry covering
// nothing fails its rule.
var plantedAllowed = []archAllow{
	{"door", "internal/policy/", "policy decides"},
	{"door", "internal/mccsd/", "the service executes"},
	{"observers", "internal/harness/", "the one attach site"},
	{"tenants", "internal/workload/", "the one tenant runner"},
	{"fields", "trace.Recorder.Dropped", "written only; the stale-entry row reads it"},
	{"reach", "internal/pintest/", "test support: only test files import it"},
}

// plant type-checks plantedBase with extra added, one package per
// directory, the directory's import path under the module path mccs.
func plant(extra map[string]string) (*archProgram, error) {
	const root = "/planted"
	src := map[string]string{}
	byDir := map[string]*archPackage{}
	for _, files := range []map[string]string{plantedBase, extra} {
		for name, text := range files {
			dir := filepath.Dir(name)
			if byDir[dir] == nil {
				byDir[dir] = &archPackage{ImportPath: strings.TrimSuffix("mccs/"+dir, "/."), Dir: filepath.Join(root, dir)}
			}
			abs := filepath.Join(root, name)
			byDir[dir].GoFiles = append(byDir[dir].GoFiles, abs)
			src[abs] = text
		}
	}
	var pkgs []archPackage
	for _, p := range byDir {
		sort.Strings(p.GoFiles)
		pkgs = append(pkgs, *p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	return typeCheck(root, pkgs, src, nil)
}

// TestArchitectureRulesCatchPlanted plants one violation per row in a
// miniature repository and checks that exactly the row's rule reports it,
// a disallowed reference or a stale allowlist entry alike: one row per
// rule that its grep or name-scan form also caught, and the cases that
// form missed. Rows without a rule must pass every rule.
func TestArchitectureRulesCatchPlanted(t *testing.T) {
	t.Parallel()
	// writeOnly plants proxy.Stats.Sent, which a literal key, ++ and +=
	// write and nothing reads.
	writeOnly := func(extra map[string]string) map[string]string {
		files := map[string]string{
			"internal/proxy/stats.go": "package proxy\ntype Stats struct{ Sent int }\nfunc Count(s *Stats) { *s = Stats{Sent: 1}; s.Sent++; s.Sent += 2 }",
			"cmd/app/stats.go":        "package main\nimport \"mccs/internal/proxy\"\nfunc init() { proxy.Count(nil) }",
		}
		maps.Copy(files, extra)
		return files
	}
	rows := []struct {
		name, rule string
		files      map[string]string
	}{
		{"base", "", nil},
		{"reach: dead function", "reach", map[string]string{
			"internal/proxy/dead.go": "package proxy\nfunc Dead() {}",
		}},
		{"reach: called only by its own package's tests", "reach", map[string]string{
			"internal/proxy/oracle.go":      "package proxy\nfunc Oracle() {}",
			"internal/proxy/oracle_test.go": "package proxy\nfunc check() { Oracle() }",
		}},
		{"reach: called only by another package's tests", "reach", map[string]string{
			"internal/proxy/oracle.go":        "package proxy\nfunc Oracle() {}",
			"internal/harness/oracle_test.go": "package harness\nimport \"mccs/internal/proxy\"\nfunc check() { proxy.Oracle() }",
		}},
		{"reach: dead Value beside a live Value", "reach", map[string]string{
			"internal/trace/value.go": `package trace
type Gauge struct{}
func (g *Gauge) Value() float64 { return 0 }
type Counter struct{}
func (c *Counter) Value() float64 { return 0 }`,
			"cmd/app/read.go": "package main\nimport \"mccs/internal/trace\"\nfunc init() { new(trace.Counter).Value() }",
		}},
		{"reach: used through an interface, as a std interface, or through the public API", "", map[string]string{
			"internal/proxy/iface.go": `package proxy
type Stepper interface{ Step() }
type Ring struct{}
func (r *Ring) Step() {}
func Run(s Stepper) error { s.Step(); return Fault(0) }
type Fault int
func (f Fault) Error() string { return "" }`,
			"cmd/app/run.go":            "package main\nimport \"mccs/internal/proxy\"\nfunc init() { proxy.Run(&proxy.Ring{}) }",
			"internal/mccsd/service.go": "package mccsd\nfunc (f *Frontend) MemAlloc() {}",
			"mccs.go":                   "package mccs\nimport \"mccs/internal/mccsd\"\ntype Frontend = mccsd.Frontend",
		}},
		{"reach: a module interface's method that nobody calls", "reach", map[string]string{
			"internal/proxy/placer.go": `package proxy
type Placer interface {
	Place()
	Name() string
}
type BinPack struct{}
func (BinPack) Place()       {}
func (BinPack) Name() string { return "" }
func Run(p Placer)           { p.Place() }`,
			"cmd/app/place.go": "package main\nimport \"mccs/internal/proxy\"\nfunc init() { proxy.Run(proxy.BinPack{}) }",
		}},
		{"reach: a function reached only through a dead caller", "reach", map[string]string{
			"internal/proxy/chain.go": "package proxy\nfunc caller() { Helper() }\nfunc Helper() {}",
		}},
		{"reach: a method reached only through an interface nothing calls", "reach", map[string]string{
			"internal/proxy/sink.go": `package proxy
type Sink interface{ Flush() }
type Buf struct{}
func (*Buf) Flush() {}
func Use(s Sink)    {}`,
			"cmd/app/sink.go": "package main\nimport \"mccs/internal/proxy\"\nfunc init() { proxy.Use(&proxy.Buf{}) }",
		}},
		{"reach: a subcommand registered in a package-level table", "", map[string]string{
			"internal/proxy/table.go": "package proxy\nfunc Table() {}",
			"cmd/app/table.go":        "package main\nimport \"mccs/internal/proxy\"\nvar commands = []struct{ run func() }{{run: runTable}}\nfunc runTable() { proxy.Table() }",
		}},
		{"reach: production code imports a test-support package", "reach", map[string]string{
			"internal/harness/pin.go": "package harness\nimport _ \"mccs/internal/pintest\"",
		}},
		{"door: call", "door", map[string]string{
			"internal/harness/reconf.go": "package harness\nimport \"mccs/internal/mccsd\"\nfunc init() { new(mccsd.Deployment).Reconfigure() }",
		}},
		{"door: the declaring package's own non-test code", "door", map[string]string{
			"internal/proxy/reroute.go": "package proxy\nfunc init() { new(Comm).UpdateRoutes() }",
		}},
		{"door: method value", "door", map[string]string{
			"internal/harness/reconf.go": "package harness\nimport \"mccs/internal/mccsd\"\nfunc init() { f := new(mccsd.Deployment).Reconfigure; f() }",
		}},
		{"door: policy and any test file may", "", map[string]string{
			"internal/policy/heal.go":         "package policy\nimport \"mccs/internal/mccsd\"\nfunc init() { f := new(mccsd.Deployment).UpdateRoutes; f() }",
			"internal/harness/reconf_test.go": "package harness\nimport \"mccs/internal/mccsd\"\nfunc reconf(d *mccsd.Deployment) { d.Reconfigure() }",
		}},
		{"observers: call", "observers", map[string]string{
			"internal/mccsd/observe.go": "package mccsd\nimport \"mccs/internal/trace\"\nfunc init() { trace.Attach(trace.NewRecorder()) }",
		}},
		{"observers: aliased import", "observers", map[string]string{
			"internal/mccsd/observe.go": "package mccsd\nimport tr \"mccs/internal/trace\"\nfunc init() { tr.Attach(nil) }",
		}},
		{"tenants: call", "tenants", map[string]string{
			"internal/harness/join.go": "package harness\nimport \"mccs/internal/mccsd\"\nfunc init() { new(mccsd.Frontend).CommInitRank() }",
		}},
		{"tenants: method value", "tenants", map[string]string{
			"internal/harness/join.go": "package harness\nimport \"mccs/internal/mccsd\"\nfunc init() { join := new(mccsd.Frontend).CommInitRank; join() }",
		}},
		{"tenants: a doc comment is not a use", "", map[string]string{
			"internal/harness/doc.go": "// A tenant calls f.CommInitRank(p, key, n, rank, gpu).\npackage harness",
		}},
		{"state: a package variable is a free list", "state", map[string]string{
			"internal/gpusim/pool.go": "package gpusim\nimport \"mccs/internal/freelist\"\nvar pool freelist.List[float32]",
		}},
		{"state: a package variable holds one by value", "state", map[string]string{
			"internal/trace/store.go": `package trace
import "mccs/internal/freelist"
type stores struct{ chunks [2]freelist.List[Recorder] }
var store = new(stores)`,
		}},
		{"service: a daemon goroutine in a service engine", "service", map[string]string{
			"internal/proxy/loop.go": "package proxy\nimport \"mccs/internal/sim\"\nfunc init() { new(sim.Scheduler).GoDaemon(nil) }",
		}},
		{"service: a method value of Go", "service", map[string]string{
			"internal/mccsd/spawn.go": "package mccsd\nimport \"mccs/internal/sim\"\nfunc init() { g := new(sim.Scheduler).Go; g(nil) }",
		}},
		{"service: a step function in an engine, goroutines in its tests and outside the engines may", "", map[string]string{
			"internal/transport/engine.go":      "package transport\nimport \"mccs/internal/sim\"\nfunc Run(s *sim.Scheduler) { s.GoStep(nil) }",
			"internal/transport/engine_test.go": "package transport\nimport \"mccs/internal/sim\"\nfunc drive(s *sim.Scheduler) { s.Go(nil) }",
			"internal/workload/rank.go":         "package workload\nimport \"mccs/internal/sim\"\nfunc init() { new(sim.Scheduler).GoDaemon(nil) }",
			"cmd/app/engine.go":                 "package main\nimport \"mccs/internal/transport\"\nfunc init() { transport.Run(nil) }",
		}},
		{"state: a local list and a list behind a field may", "", map[string]string{
			"internal/gpusim/device.go": `package gpusim
import "mccs/internal/freelist"
type device struct{ backings *freelist.List[float32] }
var devices []device
func Alloc() { var l freelist.List[float32]; devices = append(devices, device{&l}) }`,
			"cmd/app/device.go": "package main\nimport \"mccs/internal/gpusim\"\nfunc init() { gpusim.Alloc() }",
		}},
		{"decider: a second controller beside harness.Env.Controller's", "decider", map[string]string{
			"internal/harness/qos.go": "package harness\nimport \"mccs/internal/policy\"\nfunc init() { policy.NewController(nil) }",
		}},
		{"decider: a method value in another package, a test may build its own", "decider", map[string]string{
			"internal/chaos/tune.go":      "package chaos\nimport \"mccs/internal/policy\"\nvar build = policy.NewController",
			"internal/chaos/tune_test.go": "package chaos\nimport \"mccs/internal/policy\"\nfunc decide() { policy.NewController(nil) }",
		}},
		{"fields: a write-only field", "fields", writeOnly(nil)},
		{"fields: read only by its own package's tests", "fields", writeOnly(map[string]string{
			"internal/proxy/stats_test.go": "package proxy\nfunc sent(s Stats) int { return s.Sent }",
		})},
		{"fields: read by another package's test, &x.F too", "", writeOnly(map[string]string{
			"internal/harness/stats_test.go": "package harness\nimport \"mccs/internal/proxy\"\nfunc sent(s *proxy.Stats) *int { return &s.Sent }",
		})},
		{"fields: a generic type's field read through an instance", "", map[string]string{
			"internal/proxy/box.go": "package proxy\ntype Box[T any] struct{ V T }",
			"cmd/app/box.go":        "package main\nimport \"mccs/internal/proxy\"\nfunc unbox(b proxy.Box[int]) int { return b.V }",
		}},
		{"fields: a tagged field", "", map[string]string{
			"internal/proxy/stats.go": "package proxy\ntype Stats struct{ Sent int `json:\"sent\"` }\nfunc Count(s *Stats) { s.Sent++ }",
			"cmd/app/stats.go":        "package main\nimport \"mccs/internal/proxy\"\nfunc init() { proxy.Count(nil) }",
		}},
		{"fields: a field of a type the root package aliases", "", writeOnly(map[string]string{
			"mccs.go": "package mccs\nimport \"mccs/internal/proxy\"\ntype Stats = proxy.Stats",
		})},
		{"fields: an allowlist entry whose field is now read is stale", "fields", map[string]string{
			"cmd/app/dropped.go": "package main\nimport \"mccs/internal/trace\"\nfunc dropped(r *trace.Recorder) int { return r.Dropped }",
		}},
	}
	for _, row := range rows {
		prog, err := plant(row.files)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		for _, r := range archRules {
			got, stale := disallowed(plantedAllowed, r.name, r.hits(prog))
			if want := r.name == row.rule; want != (len(got)+len(stale) > 0) {
				t.Errorf("%s: rule %s reports %q and stale entries %q, want a report: %v", row.name, r.name, got, stale, want)
			}
		}
	}
	_, err := plant(map[string]string{"internal/proxy/bad.go": "package proxy\nvar x int = \"s\""})
	if err == nil || !strings.Contains(err.Error(), "mccs/internal/proxy does not type-check") {
		t.Errorf("a type error loads without an error naming its package: %v", err)
	}
	if _, err := goList(t.TempDir(), "./..."); err == nil {
		t.Error("go list outside a module loads without an error")
	}
}
