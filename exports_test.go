package bmstore

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

// allowedOrphans are exports under internal/ that no non-test file reaches,
// each with the reason it stays: every one is driven by another package's
// tests.
var allowedOrphans = map[string]string{
	"controller.Console.HotPlugPrepare":  "hot-plug console call the scenario tests drive (bmstore, trace replay)",
	"controller.Console.HotPlugComplete": "hot-plug console call the scenario tests drive (bmstore, trace replay)",
	"controller.Controller.PhysicalSwap": "the technician's swap between the two hot-plug console calls, in the same scenario tests",
	"nvmei.Queue.CQ":                     "host's initiator fuzz harness plays the device: it writes CQEs into this ring",
	"nvmei.Queue.Head":                   "host's initiator fuzz harness plays the device: it writes the next CQE at this index and phase",
	"sim.Event.AddCallback":              "the kernel's fire-order tests and FuzzFireOrder's reference model attach callbacks through it; TestCommandPathContinuesWithoutEvents keeps it off the command path",
	"sim.Resource.InUse":                 "the engine, nvmei and host harnesses assert an initiator's slot accounting through it",
	"sim.Resource.TryAcquire":            "the engine and nvmei harnesses fill an initiator's slots through it",
	"timeline.Recorder.Dropped":          "obs tests assert an error-path request is counted, not kept",
}

// TestEveryExportHasACaller keeps dead API from accumulating the way
// TestCommandPathDeclaresNoMaps keeps maps off the command path: an exported
// func, method, type or package-level var under internal/ must be reached by a
// non-test file somewhere in the module — the root package, cmd/, bench/ and
// examples/ count — or carry a reason in allowedOrphans. A method is reached
// as well when its receiver, or a type that embeds it, implements a module or
// stdlib interface that declares it. Constants are exempt: the NVMe opcode and status tables
// document the wire format.
func TestEveryExportHasACaller(t *testing.T) {
	mod, m := checkedModule(t)
	found := orphans(m, mod+"/internal/")
	stale := maps.Clone(allowedOrphans)
	for _, o := range found {
		if allowedOrphans[o.name] == "" {
			t.Errorf("%v: nothing outside its tests reaches it; delete it, or add it to allowedOrphans with the reason", o)
		}
		delete(stale, o.name)
	}
	for name := range stale {
		t.Errorf("allowedOrphans lists %s, which is reached or no longer exists: delete the entry", name)
	}
}

// TestOrphanCheckFlagsAPlantedExport proves the checker on a two-package
// module: of an export nothing calls and a method only fmt reaches (through
// fmt.Stringer), it flags exactly the first.
func TestOrphanCheckFlagsAPlantedExport(t *testing.T) {
	fset := token.NewFileSet()
	src := map[string]string{
		"m/internal/lib": `package lib
type Thing struct{}
func New() Thing { return Thing{} }
func (Thing) String() string { return "thing" }
func Planted() {}
`,
		"m/cmd/app": `package main
import ("fmt"; "m/internal/lib")
func main() { fmt.Println(lib.New()) }
`,
	}
	pkgs := map[string][]*ast.File{}
	for p, s := range src {
		f, err := parser.ParseFile(fset, p+"/x.go", s, 0)
		if err != nil {
			t.Fatal(err)
		}
		pkgs[p] = []*ast.File{f}
	}
	m, err := typeCheck(fset, pkgs, stdImporter(fset))
	if err != nil {
		t.Fatal(err)
	}
	found := orphans(m, "m/internal/")
	if len(found) != 1 || found[0].name != "lib.Planted" || found[0].kind != "func" {
		t.Fatalf("flagged %v, want exactly lib.Planted func", found)
	}
}

// allowedUnreadFields are unexported struct fields under internal/ that no
// non-test code reads, each with the reason it stays.
var allowedUnreadFields = map[string]string{
	"obs.Component.name": "obs TestInstanceNaming checks through it the numbered names Registry.Instance hands out",
}

// TestEveryFieldIsRead keeps dead state from accumulating: an unexported
// struct field under internal/ must be read by a non-test file, or carry a
// reason in allowedUnreadFields. A read is any use but the target of = or a
// composite-literal key. Embedded fields are exempt, and so are the fields of
// a struct type used as a map key, which hashing reads.
func TestEveryFieldIsRead(t *testing.T) {
	mod, m := checkedModule(t)
	found := unreadFields(m, mod+"/internal/")
	stale := maps.Clone(allowedUnreadFields)
	for _, o := range found {
		if allowedUnreadFields[o.name] == "" {
			t.Errorf("%v: no non-test code reads it; delete it, or add it to allowedUnreadFields with the reason", o)
		}
		delete(stale, o.name)
	}
	for name := range stale {
		t.Errorf("allowedUnreadFields lists %s, which is read or no longer exists: delete the entry", name)
	}
}

// TestFieldCheckFlagsAPlantedField proves the field check on a one-package
// module: of a field read, one assigned and read, the fields of a map key
// set only through a composite literal, an exported field and a field
// assigned and set through a composite literal but never read, it flags
// exactly the last.
func TestFieldCheckFlagsAPlantedField(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "m/internal/lib/x.go", `package lib
type key struct{ a, b int }
type T struct {
	read, written, planted int
	Exported               int
}
func New() *T { return &T{planted: 1} }
func (t *T) Set(v int) { t.written = v; t.planted = v }
func (t *T) Get() int { return t.read + t.written }
var seen = map[key]bool{}
func Mark(a, b int) { seen[key{a: a, b: b}] = true }
`, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := typeCheck(fset, map[string][]*ast.File{"m/internal/lib": {f}}, stdImporter(fset))
	if err != nil {
		t.Fatal(err)
	}
	found := unreadFields(m, "m/internal/")
	if len(found) != 1 || found[0].name != "lib.T.planted" || found[0].kind != "field" {
		t.Fatalf("flagged %v, want exactly lib.T.planted field", found)
	}
}

// unreadFields returns, in declaration order, the unexported, non-embedded
// struct fields of the checked packages under scope that no file of m reads,
// leaving out the fields of struct types used as map keys.
func unreadFields(m *moduleImporter, scope string) []orphan {
	fset, pkgs := m.fset, m.files
	paths := slices.Sorted(maps.Keys(pkgs))

	// Every field in scope, named by the type it is declared in.
	var fields []orphan
	byObj := map[types.Object]int{}
	addStruct := func(prefix string, expr ast.Expr) {
		ast.Inspect(expr, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				for _, fld := range st.Fields.List {
					for _, id := range fld.Names {
						if !id.IsExported() && id.Name != "_" {
							byObj[m.info.Defs[id]] = len(fields)
							fields = append(fields, orphan{fset.Position(id.Pos()), prefix + "." + id.Name, "field"})
						}
					}
				}
			}
			return true
		})
	}
	for _, p := range paths {
		if !strings.HasPrefix(p, scope) {
			continue
		}
		for _, f := range pkgs[p] {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					addStruct(f.Name.Name+"."+n.Name.Name, n.Type)
					return false
				case *ast.StructType:
					addStruct(f.Name.Name+".struct", n)
					return false
				}
				return true
			})
		}
	}

	// Uses that only store: targets of = and composite-literal keys.
	store := map[*ast.Ident]bool{}
	for _, p := range paths {
		for _, f := range pkgs[p] {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok == token.ASSIGN {
						for _, lhs := range n.Lhs {
							if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
								store[sel.Sel] = true
							}
						}
					}
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						store[id] = true
					}
				}
				return true
			})
		}
	}

	read := make([]bool, len(fields))
	for id, obj := range m.info.Uses {
		if i, ok := byObj[origin(obj)]; ok && !store[id] {
			read[i] = true
		}
	}
	// Hashing a map key reads every field of it.
	var readAll func(types.Type)
	readAll = func(t types.Type) {
		if st, ok := t.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if j, ok := byObj[st.Field(i).Origin()]; ok {
					read[j] = true
				}
				readAll(st.Field(i).Type())
			}
		}
	}
	for _, tv := range m.info.Types {
		if mt, ok := tv.Type.(*types.Map); ok {
			readAll(mt.Key())
		}
	}

	var out []orphan
	for i, f := range fields {
		if !read[i] {
			out = append(out, f)
		}
	}
	return out
}

// orphan is one export nothing reaches, or one field nothing reads.
type orphan struct {
	pos  token.Position
	name string // package.Name or package.Recv.Method
	kind string // func, method, type, var or field
}

func (o orphan) String() string {
	return fmt.Sprintf("%s:%d %s %s", o.pos.Filename, o.pos.Line, o.name, o.kind)
}

// stdImporter type-checks standard-library imports from GOROOT source.
func stdImporter(fset *token.FileSet) types.Importer {
	return importer.ForCompiler(fset, "source", nil)
}

// module is the whole module, parsed and type-checked once per test binary
// for the walkers that read all of it (see checkedModule).
var module struct {
	once sync.Once
	path string
	m    *moduleImporter
}

// checkedModule returns the module's path and its non-test packages,
// type-checked, parsing and checking them on first use.
func checkedModule(t *testing.T) (string, *moduleImporter) {
	t.Helper()
	module.once.Do(func() {
		fset := token.NewFileSet()
		mod, pkgs := parseModule(t, fset)
		m, err := typeCheck(fset, pkgs, stdImporter(fset))
		if err != nil {
			t.Fatal(err)
		}
		module.path, module.m = mod, m
	})
	if module.m == nil {
		t.Fatal("the module failed to parse or type-check in an earlier test")
	}
	return module.path, module.m
}

// parseModule reads the module path from go.mod and parses every non-test Go
// file the default build context selects (see walkGoFiles). Packages are
// keyed by import path.
func parseModule(t *testing.T, fset *token.FileSet) (string, map[string][]*ast.File) {
	t.Helper()
	gomod, err := os.Open("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	defer gomod.Close()
	var mod string
	for sc := bufio.NewScanner(gomod); sc.Scan() && mod == ""; {
		mod, _ = strings.CutPrefix(sc.Text(), "module ")
	}
	if mod == "" {
		t.Fatal("go.mod names no module")
	}
	pkgs := map[string][]*ast.File{}
	walkGoFiles(t, func(dir, name string) error {
		if strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := mod
		if dir != "." {
			ip = path.Join(mod, filepath.ToSlash(dir))
		}
		pkgs[ip] = append(pkgs[ip], f)
		return nil
	})
	return mod, pkgs
}

// walkGoFiles calls fn with the directory and name of every Go file in the
// module, test files included, walking the directory tree itself (skipping
// testdata, hidden and underscore directories) so that go test's cache sees
// each file read. The first error fails t.
func walkGoFiles(t *testing.T, fn func(dir, name string) error) {
	t.Helper()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		return fn(filepath.Dir(p), name)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// fuzzSmokeLine is one run of the Makefile's fuzz-smoke recipe: the target
// it fuzzes and the package directory it runs in.
var fuzzSmokeLine = regexp.MustCompile(`-fuzz '\^(\w+)\$\$' .*\./(\S+)$`)

// TestEveryFuzzTargetIsSmoked keeps `make fuzz-smoke` and the module's fuzz
// targets one list: every `func Fuzz…(*testing.F)` in a test file is fuzzed
// by a line of the recipe, run in its own package, and every line of the
// recipe names a target that exists there.
func TestEveryFuzzTargetIsSmoked(t *testing.T) {
	targets := map[string]bool{} // "dir FuzzName"
	fset := token.NewFileSet()
	walkGoFiles(t, func(dir, name string) error {
		if !strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Fuzz") {
				targets[filepath.ToSlash(dir)+" "+fd.Name.Name] = true
			}
		}
		return nil
	})
	if len(targets) == 0 {
		t.Fatal("found no fuzz targets")
	}
	smoked, err := fuzzSmoked("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range smoked {
		if !targets[s] {
			t.Errorf("make fuzz-smoke runs %q, which names no fuzz target in that package", s)
		}
	}
	for _, target := range slices.Sorted(maps.Keys(targets)) {
		if !slices.Contains(smoked, target) {
			t.Errorf("fuzz target %q is not run by make fuzz-smoke", target)
		}
	}
}

// fuzzSmoked returns "dir FuzzName" for each line of the fuzz-smoke recipe
// in the makefile at path, in order. A recipe line that names no target in
// the expected shape is an error.
func fuzzSmoked(path string) ([]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []string
	in := false
	for _, line := range strings.Split(string(raw), "\n") {
		switch {
		case line == "fuzz-smoke:":
			in = true
		case in && strings.HasPrefix(line, "\t"):
			m := fuzzSmokeLine.FindStringSubmatch(line)
			if m == nil {
				return nil, fmt.Errorf("%s: fuzz-smoke line %q names no -fuzz target and package", path, line)
			}
			out = append(out, m[2]+" "+m[1])
		case in:
			in = false
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no fuzz-smoke recipe", path)
	}
	return out, nil
}

// orphans returns, in declaration order, the exported funcs, methods, types
// and package-level vars of the checked packages under scope that no file of
// m uses outside the declaration itself.
func orphans(m *moduleImporter, scope string) []orphan {
	fset, pkgs := m.fset, m.files
	paths := slices.Sorted(maps.Keys(pkgs))

	// Every declaration in scope, with the extent its mentions of itself
	// fall in; a method's receiver names its type without using it either.
	type decl struct {
		orphan
		obj        types.Object
		start, end token.Pos
	}
	var decls []*decl
	byObj := map[types.Object]*decl{}
	add := func(id *ast.Ident, kind, name string, node ast.Node) {
		d := &decl{orphan{fset.Position(id.Pos()), name, kind}, m.info.Defs[id], node.Pos(), node.End()}
		decls = append(decls, d)
		byObj[d.obj] = d
	}
	inReceiver := map[*ast.Ident]bool{}
	for _, p := range paths {
		if !strings.HasPrefix(p, scope) {
			continue
		}
		for _, f := range pkgs[p] {
			pkg := f.Name.Name
			for _, dl := range f.Decls {
				switch dl := dl.(type) {
				case *ast.FuncDecl:
					if dl.Recv != nil {
						ast.Inspect(dl.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								inReceiver[id] = true
							}
							return true
						})
					}
					switch {
					case !dl.Name.IsExported():
					case dl.Recv == nil:
						add(dl.Name, "func", pkg+"."+dl.Name.Name, dl)
					default:
						add(dl.Name, "method", pkg+"."+recvName(dl)+"."+dl.Name.Name, dl)
					}
				case *ast.GenDecl:
					for _, spec := range dl.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								add(s.Name, "type", pkg+"."+s.Name.Name, s)
							}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								if dl.Tok == token.VAR && id.IsExported() {
									add(id, "var", pkg+"."+id.Name, s)
								}
							}
						}
					}
				}
			}
		}
	}

	reached := map[*decl]bool{}
	for id, obj := range m.info.Uses {
		if d := byObj[origin(obj)]; d != nil && !inReceiver[id] && (id.Pos() < d.start || id.Pos() >= d.end) {
			reached[d] = true
		}
	}

	// Interfaces a method may be reached through, by method name: every
	// interface type written in the module, every named one in the packages
	// it imports, and error.
	ifaces := map[string][]*types.Interface{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
			}
		}
	}
	for expr, tv := range m.info.Types {
		if _, ok := expr.(*ast.InterfaceType); ok {
			addIface(tv.Type)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range m.done {
		walk(p)
	}

	// A method promoted into a type that embeds its receiver is reached as
	// that type's: the named types that embed each type.
	embedders := map[types.Type][]types.Type{}
	for _, obj := range m.info.Defs {
		if tn, ok := obj.(*types.TypeName); ok {
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := range st.NumFields() {
					if f := st.Field(i); f.Embedded() {
						embedders[f.Type()] = append(embedders[f.Type()], tn.Type())
					}
				}
			}
		}
	}

	var out []orphan
	for _, d := range decls {
		if !reached[d] && (d.kind != "method" || !satisfiesInterface(d.obj.(*types.Func), ifaces, embedders)) {
			out = append(out, d.orphan)
		}
	}
	return out
}

// satisfiesInterface reports whether fn's receiver type, or a type that
// embeds it (embedders), or a pointer to either, implements an interface that
// declares a method of fn's name.
func satisfiesInterface(fn *types.Func, ifaces map[string][]*types.Interface, embedders map[types.Type][]types.Type) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	for _, it := range ifaces[fn.Name()] {
		for _, t := range append([]types.Type{recv}, embedders[recv]...) {
			if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
				return true
			}
		}
	}
	return false
}

// origin maps a use of an instantiated generic func, method or field to the
// declaration it instantiates.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// recvName is the name of a method's receiver type.
func recvName(fd *ast.FuncDecl) string {
	t := fd.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	return t.(*ast.Ident).Name
}

// typeCheck type-checks every package in pkgs (import path → non-test files;
// anything else is imported through std), recording their definitions, uses
// and expression types in one shared Info.
func typeCheck(fset *token.FileSet, pkgs map[string][]*ast.File, std types.Importer) (*moduleImporter, error) {
	m := &moduleImporter{
		fset: fset, files: pkgs, std: std,
		done: map[string]*types.Package{},
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
	}
	for _, p := range slices.Sorted(maps.Keys(pkgs)) {
		if _, err := m.Import(p); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// moduleImporter type-checks module packages from their parsed files, in
// dependency order as imports demand them, recording every package's
// definitions and uses in one shared Info; other imports go to std.
type moduleImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	std   types.Importer
	done  map[string]*types.Package
	info  *types.Info
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.done[path]; ok {
		return p, nil
	}
	files, ok := m.files[path]
	if !ok {
		return m.std.Import(path)
	}
	conf := types.Config{Importer: m}
	p, err := conf.Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	m.done[path] = p
	return p, nil
}
