package bmstore

import (
	"go/ast"
	"go/token"
	"testing"
)

// spanKeyCalls are the obs calls that take or build a span key: the
// registry's whole key-taking surface and the two key constructors.
// Everything else a component records about a request goes through the
// *obs.Span handle one of these returned, without a table lookup.
var spanKeyCalls = map[string]bool{
	"SpanStart": true, "Span": true, "SpanByAlias": true, "SpanAlias": true, "SpanFinish": true,
	"SpanKey": true, "DevKey": true,
}

// spanAdmissionSites are the functions of the command path that may make
// those calls — where a component first meets a command, or last sees it —
// each with what it resolves there.
var spanAdmissionSites = map[string]string{
	"host.ioReq.onSlot SpanKey":         "the driver names the request by the (function, queue, CID) it is about to ring",
	"host.ioReq.onSlot SpanStart":       "the request starts here; the handle serves the attempt, the IRQ handler's CQE mark included",
	"host.ioReq.onCompleted SpanFinish": "the request ends here, by key: a colliding driver may have taken the record over",
	"host.ioReq.onTimeout SpanFinish":   "an attempt given up on ends its request here, by key, on the error path",
	"engine.feIO.start SpanKey":         "the front end computes the same identity from the SQE it dispatches",
	"engine.feIO.start Span":            "the engine's one lookup; feIO and the backend submission carry the handle",
	"engine.beSubmit.slot DevKey":       "the backend CID is allocated here, so the device-domain alias exists from here",
	"engine.beSubmit.slot SpanAlias":    "registers that alias for the SSD to find the request by",
	"ssd.ssdIO.walkAttempt DevKey":      "the SSD computes its alias from the queue and CID of the command it issues",
	"ssd.ssdIO.walkAttempt SpanByAlias": "the SSD's one lookup; ssdIO and its NAND stripes carry the handle",
}

// TestSpanResolvedOncePerCommand keeps span-table lookups at admission: a
// component finds its request once per command and holds the handle, it does
// not find it again at every mark. A call that takes or builds a span key
// anywhere else in internal/{host,engine,ssd} fails here, as does a struct
// field that would cache a key (`skey`, `alias`) or the registry's recording
// mode (`tl`) beside the handle, which already knows both.
func TestSpanResolvedOncePerCommand(t *testing.T) {
	seen := map[string]bool{}
	eachSourceFile(t, []string{"host", "engine", "ssd"}, func(pkg string, fset *token.FileSet, file *ast.File) {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			site := pkg + "." + funcName(fn)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && spanKeyCalls[sel.Sel.Name] {
					name := site + " " + sel.Sel.Name
					seen[name] = true
					if spanAdmissionSites[name] == "" {
						t.Errorf("%s: %s looks a span up or builds its key; record through the handle the admission site holds, or add the site to spanAdmissionSites with the reason",
							fset.Position(call.Pos()), name)
					}
				}
				return true
			})
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				for _, f := range st.Fields.List {
					for _, id := range f.Names {
						if id.Name == "tl" || id.Name == "skey" || id.Name == "alias" {
							t.Errorf("%s: field %s caches what the *obs.Span handle knows", fset.Position(id.Pos()), id.Name)
						}
					}
				}
			}
			return true
		})
	})
	for name := range spanAdmissionSites {
		if !seen[name] {
			t.Errorf("spanAdmissionSites lists %q, which no longer exists: delete the entry", name)
		}
	}
}

// funcName is "Recv.name" for a method and "name" for a function.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}
