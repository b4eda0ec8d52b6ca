// Command doclint checks that every exported symbol in the given
// package directories carries a doc comment — the repository's
// documentation gate, run in CI over the public facade and the core
// serving packages.
//
// Usage:
//
//	doclint DIR [DIR...]
//
// For grouped declarations (const/var/type blocks) a doc comment on the
// block or on the individual spec both count; test files are skipped.
// Exit status: 0 when clean, 1 when symbols are missing docs, 2 on bad
// invocation.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: doclint DIR [DIR...]")
		os.Exit(2)
	}
	missing := 0
	for _, dir := range os.Args[1:] {
		n, err := lintDir(os.Stdout, dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
			os.Exit(2)
		}
		missing += n
	}
	if missing > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d exported symbols without doc comments\n", missing)
		os.Exit(1)
	}
}

// lintDir parses one directory (skipping tests) and reports every
// exported symbol without a doc comment to w, returning the count.
func lintDir(w io.Writer, dir string) (int, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return 0, err
	}
	missing := 0
	report := func(pos token.Pos, kind, name string) {
		fmt.Fprintf(w, "%s: %s %s has no doc comment\n", fset.Position(pos), kind, name)
		missing++
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || !exportedRecv(d) {
						continue
					}
					if d.Doc == nil {
						report(d.Pos(), "function", funcName(d))
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							if sp.Name.IsExported() && d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
								report(sp.Pos(), "type", sp.Name.Name)
							}
						case *ast.ValueSpec:
							for _, name := range sp.Names {
								if name.IsExported() && d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
									report(name.Pos(), declKind(d.Tok), name.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return missing, nil
}

// exportedRecv reports whether a function's receiver (if any) is an
// exported type — methods on unexported types are internal API.
func exportedRecv(d *ast.FuncDecl) bool {
	id := recvType(d)
	return id == nil || id.IsExported()
}

// funcName renders Recv.Name for methods, Name for functions.
func funcName(d *ast.FuncDecl) string {
	if id := recvType(d); id != nil {
		return id.Name + "." + d.Name.Name
	}
	return d.Name.Name
}

// recvType is the name of a method's receiver type, behind a pointer
// and type parameters (T, *T, T[P], *T[P, Q]); nil for a function.
func recvType(d *ast.FuncDecl) *ast.Ident {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return nil
	}
	t := d.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	switch ix := t.(type) {
	case *ast.IndexExpr:
		t = ix.X
	case *ast.IndexListExpr:
		t = ix.X
	}
	id, _ := t.(*ast.Ident)
	return id
}

// declKind names a value declaration for the report.
func declKind(tok token.Token) string {
	if tok == token.CONST {
		return "constant"
	}
	return "variable"
}
