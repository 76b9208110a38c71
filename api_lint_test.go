package paraleon_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// apiAllowlist names the exported functions, methods and struct fields
// that TestEveryExportedNameHasACaller accepts without a non-test caller
// or setter, each with its reason. A method is "dir.Recv.Name", a field
// "dir.Struct.Field", where dir is the package's directory. An entry
// that the lint no longer reports is an error too, so the list stays
// exactly what the rule tolerates. Methods that only the standard
// library calls through an interface (String, Error, ...) have needed no
// entry so far: each of their names is also used elsewhere.
var apiAllowlist = map[string]string{
	// The event log's read side. README documents trace.Spans for
	// reading a JSONL trace back; the tests of trace, core, ctrlrpc and
	// harness read their logs with these; ROADMAP 4(b)'s
	// `paraleon-analyze explain` is their intended caller.
	"internal/trace.Read":   "the event log's read side",
	"internal/trace.Filter": "the event log's read side",
	"internal/trace.Spans":  "the event log's read side",
	// EXPERIMENTS.md's "Kept on purpose" table (every knob earns a caller).
	"internal/chaos.AgentFault.StallAt":  "the agent-stall fault, which ROADMAP item 10's chaos-parity case names",
	"internal/chaos.AgentFault.StallFor": "the agent-stall fault, which ROADMAP item 10's chaos-parity case names",
}

// sourceFiles parses every non-test Go file under root (a directory or
// one file), skipping testdata.
func sourceFiles(t *testing.T, fset *token.FileSet, root string) map[string]*ast.File {
	t.Helper()
	files := map[string]*ast.File{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files[path] = f
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestEveryExportedNameHasACaller is the rule that every exported
// function, method and knob is there for the program, not for its
// tests. It walks the non-test files of internal/, cmd/ and paraleon.go
// and fails on
//   - an exported function or method whose name no non-test file uses
//     outside a function declaration, and
//   - an exported field of an exported struct (a …Config, a fault
//     schedule, a hook) that no non-test code sets: by assignment, by
//     address (a flag binding), as a composite-literal key, or in a
//     positional literal of its struct.
//
// Names are matched without type information, so a name another
// package also uses can hide a candidate; the lint can miss one but
// never reports a name that has a caller. The benchmark module's files
// count as callers: what only it calls goes when it stops calling it.
// A function that only tests need belongs in its package's
// export_test.go.
func TestEveryExportedNameHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	decls := map[string]*ast.File{}
	for _, root := range []string{"internal", "cmd", "paraleon.go"} {
		for path, f := range sourceFiles(t, fset, root) {
			decls[path] = f
		}
	}
	callers := sourceFiles(t, fset, "benchmark")
	for path, f := range decls {
		callers[path] = f
	}

	// uses holds each identifier that is not a function's declared
	// name, sets each field name a statement or literal writes, and
	// filled the struct types some literal lists positionally.
	uses, sets, filled := map[string]bool{}, map[string]bool{}, map[string]bool{}
	setSel := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.SelectorExpr:
				sets[x.Sel.Name] = true
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			default:
				return
			}
		}
	}
	elided := map[*ast.CompositeLit]string{} // a literal's type, taken from its parent's
	for _, f := range callers {
		declared := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok {
				declared[fn.Name] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if !declared[n] {
					uses[n.Name] = true
				}
			case *ast.CompositeLit:
				typ := typeName(n.Type)
				if n.Type == nil {
					typ = elided[n]
				}
				var elem string
				switch t := n.Type.(type) {
				case *ast.ArrayType:
					elem = typeName(t.Elt)
				case *ast.MapType:
					elem = typeName(t.Value)
				}
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if k, ok := kv.Key.(*ast.Ident); ok && typ != "" {
							sets[k.Name] = true
						}
						e = kv.Value
					} else if typ != "" {
						filled[typ] = true
					}
					if c, ok := e.(*ast.CompositeLit); ok && c.Type == nil {
						elided[c] = elem
					}
				}
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					setSel(l)
				}
			case *ast.IncDecStmt:
				setSel(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					setSel(n.X)
				}
			}
			return true
		})
	}

	// unused maps each name the rule finds to its remedy.
	unused := map[string]string{}
	for path, f := range decls {
		pkg := filepath.Dir(path)
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || uses[d.Name.Name] {
					continue
				}
				name := pkg + "." + d.Name.Name
				if d.Recv != nil {
					name = pkg + "." + typeName(d.Recv.List[0].Type) + "." + d.Name.Name
				}
				unused[name] = "has no non-test caller: delete it, or move it to its package's export_test.go if only tests need it"
			case *ast.GenDecl:
				for _, s := range d.Specs {
					ts, ok := s.(*ast.TypeSpec)
					if !ok || !ts.Name.IsExported() {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, fld := range st.Fields.List {
						for _, id := range fld.Names {
							if id.IsExported() && !sets[id.Name] && !filled[ts.Name.Name] {
								unused[pkg+"."+ts.Name.Name+"."+id.Name] = "is set by no non-test code: delete it, or set it where the program needs another value"
							}
						}
					}
				}
			}
		}
	}
	names := make([]string, 0, len(unused))
	for name := range unused {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		if _, ok := apiAllowlist[name]; !ok {
			t.Errorf("%s %s", name, unused[name])
		}
	}
	for name := range apiAllowlist {
		if _, ok := unused[name]; !ok {
			t.Errorf("allowlist entry %s has a caller or is gone: remove the entry", name)
		}
	}
}

// typeName is the name a type expression ends in (T, pkg.T, *T, T[P]),
// or "" for a composite type such as a slice or map.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}
