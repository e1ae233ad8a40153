package bmstore

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// commandPathPackages are the packages a tenant command passes through
// between the load generator and the NAND model, observers included.
// internal/hostmem is not on the list: its page table stays a map, for the
// measured reason DESIGN §11 "Lookups on the command path" gives.
var commandPathPackages = []string{"host", "nvmei", "nvmet", "engine", "ssd", "pcie", "obs", "fio"}

// allowedMaps are the struct fields of map type those packages may declare,
// each with the reason it is not on the path of a command.
var allowedMaps = map[string]string{
	"ssd.blockTable.leaves":  "sparse LBA space: one entry per 512-block leaf, consulted once per leaf run, on CaptureData rigs only",
	"obs.Registry.comps":     "components by name: looked up at construction and export, never per command",
	"obs.Registry.instSeq":   "next instance index by name prefix: at construction only",
	"obs.Component.counters": "instruments by name: callers cache the pointer at construction",
	"obs.Component.gauges":   "instruments by name: callers cache the pointer at construction",
	"obs.Component.hists":    "instruments by name: callers cache the pointer at construction",
	"obs.Set.children":       "registries by rig name: at rig construction and export",
}

// TestCommandPathDeclaresNoMaps keeps hashing off the command path the way
// TestEventBudgetPerCommand keeps events off it. The hardware this repo
// models finds a queue by its id, a command by its CID and a namespace by
// its NSID — by indexing — and so does the model: a struct in a command-path
// package that holds a map needs a written reason in allowedMaps, as raising
// an allocs ceiling needs one in its baseline file.
func TestCommandPathDeclaresNoMaps(t *testing.T) {
	seen := map[string]bool{}
	eachSourceFile(t, commandPathPackages, func(_ string, fset *token.FileSet, file *ast.File) {
		for field, pos := range mapFields(file) {
			name := file.Name.Name + "." + field
			seen[name] = true
			if allowedMaps[name] == "" {
				t.Errorf("%s: struct field %s is a map; index by the NVMe identifier instead, or add it to allowedMaps with the reason",
					fset.Position(pos), name)
			}
		}
	})
	for name := range allowedMaps {
		if !seen[name] {
			t.Errorf("allowedMaps lists %s, which no longer exists: delete the entry", name)
		}
	}
}

// allowedCallbacks are the functions in those packages that may attach a
// callback to a sim.Event (AddCallback), each with its reason. There are
// none: even the CmdTimeout timer is a func queued with Env.Schedule, which
// its attempt cancels by generation.
var allowedCallbacks = map[string]string{}

// TestCommandPathContinuesWithoutEvents keeps the command path's continuations
// plain funcs. A step that waits for another — a CQE, a QoS re-admission, a
// quiesce gate — continues through a bound method, called in place or queued
// with Env.Schedule, never through a one-shot event with a callback: an event
// costs its allocation or a pool round trip and an interface box for its value,
// and a queued event fires at the same queue position as the func would. Events
// stay where a process waits (Parking, admin commands, recovery, drains) and
// inside the kernel; a callback on one in these packages needs a written
// reason in allowedCallbacks.
func TestCommandPathContinuesWithoutEvents(t *testing.T) {
	seen := map[string]bool{}
	eachSourceFile(t, commandPathPackages, func(pkg string, fset *token.FileSet, file *ast.File) {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			site := pkg + "." + funcName(fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "AddCallback" {
					seen[site] = true
					if allowedCallbacks[site] == "" {
						t.Errorf("%s: %s attaches an event callback; continue through a func (called in place or queued with Env.Schedule), or add the site to allowedCallbacks with the reason",
							fset.Position(call.Pos()), site)
					}
				}
				return true
			})
		}
	})
	for site := range allowedCallbacks {
		if !seen[site] {
			t.Errorf("allowedCallbacks lists %s, which attaches no event callback: delete the entry", site)
		}
	}
}

// eachSourceFile parses every non-test Go file under internal/<pkg> for each
// of pkgs and hands it to visit.
func eachSourceFile(t *testing.T, pkgs []string, visit func(pkg string, fset *token.FileSet, file *ast.File)) {
	t.Helper()
	for _, pkg := range pkgs {
		err := filepath.WalkDir(filepath.Join("internal", pkg), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			fset := token.NewFileSet()
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			visit(pkg, fset, file)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// mapFields returns every struct field in file whose type mentions a map, as
// "Type.field" (the enclosing named type, or "struct" for an anonymous one).
func mapFields(file *ast.File) map[string]token.Pos {
	out := map[string]token.Pos{}
	var typeName string
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeSpec:
			typeName = n.Name.Name
		case *ast.StructType:
			owner := typeName
			if owner == "" {
				owner = "struct"
			}
			for _, f := range n.Fields.List {
				isMap := false
				ast.Inspect(f.Type, func(t ast.Node) bool {
					_, m := t.(*ast.MapType)
					isMap = isMap || m
					return !isMap
				})
				if !isMap {
					continue
				}
				if len(f.Names) == 0 {
					out[owner+".(embedded)"] = f.Pos()
				}
				for _, id := range f.Names {
					out[owner+"."+id.Name] = id.Pos()
				}
			}
		case *ast.FuncDecl:
			typeName = "" // a struct declared inside a function is anonymous to this test
		}
		return true
	})
	return out
}
