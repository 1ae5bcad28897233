// Command waldo-doccheck enforces godoc coverage: every exported
// package-level identifier, method, and struct field in the packages it
// is pointed at must carry a doc comment. It is the executable form of
// the "public surface means documented surface" convention (DESIGN.md
// §11) — `make doccheck` (part of `make verify`) runs it over the
// packages whose exported API is a contract (the availability grid and
// the device client), so an undocumented identifier fails CI instead of
// surviving review.
//
// Usage:
//
//	waldo-doccheck ./internal/geoindex ./internal/client
//
// Exit status 0 when every exported identifier is documented, 1 when
// any is not (each undocumented identifier is listed as
// file:line: name), 2 on usage or parse errors.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: waldo-doccheck PKGDIR...")
		os.Exit(2)
	}
	var problems []problem
	for _, dir := range os.Args[1:] {
		ps, err := checkDir(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "waldo-doccheck:", err)
			os.Exit(2)
		}
		problems = append(problems, ps...)
	}
	if len(problems) == 0 {
		return
	}
	sort.Slice(problems, func(i, j int) bool { return problems[i].pos < problems[j].pos })
	for _, p := range problems {
		fmt.Printf("%s: undocumented exported %s %s\n", p.pos, p.kind, p.name)
	}
	fmt.Fprintf(os.Stderr, "waldo-doccheck: %d undocumented exported identifiers\n", len(problems))
	os.Exit(1)
}

// problem is one undocumented exported identifier.
type problem struct {
	pos  string // file:line
	kind string // "func", "method", "type", "const", "var", "field"
	name string
}

// checkDir parses every non-test .go file in dir and reports exported
// identifiers lacking doc comments.
func checkDir(dir string) ([]problem, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	var problems []problem
	add := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		problems = append(problems, problem{
			pos:  fmt.Sprintf("%s:%d", p.Filename, p.Line),
			kind: kind,
			name: name,
		})
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					checkFunc(d, add)
				case *ast.GenDecl:
					checkGen(d, add)
				}
			}
		}
	}
	return problems, nil
}

// checkFunc flags exported functions and exported methods on exported
// receivers. Methods on unexported types are internal surface even when
// capitalized (interface satisfaction), so they pass undocumented.
func checkFunc(d *ast.FuncDecl, add func(token.Pos, string, string)) {
	if !d.Name.IsExported() || d.Doc != nil {
		return
	}
	kind, name := "func", d.Name.Name
	if d.Recv != nil && len(d.Recv.List) == 1 {
		recv := receiverName(d.Recv.List[0].Type)
		if recv == "" || !ast.IsExported(recv) {
			return
		}
		kind, name = "method", recv+"."+d.Name.Name
	}
	add(d.Pos(), kind, name)
}

// receiverName unwraps *T / T / generic T[P] receivers to the type name.
func receiverName(expr ast.Expr) string {
	switch t := expr.(type) {
	case *ast.StarExpr:
		return receiverName(t.X)
	case *ast.IndexExpr:
		return receiverName(t.X)
	case *ast.IndexListExpr:
		return receiverName(t.X)
	case *ast.Ident:
		return t.Name
	}
	return ""
}

// checkGen flags exported names in type/const/var declarations. A doc
// comment may sit on the declaration group, the individual spec, or (for
// consts, vars, and fields) as a trailing line comment — any of the
// places godoc renders from.
func checkGen(d *ast.GenDecl, add func(token.Pos, string, string)) {
	groupDoc := d.Doc != nil
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && !groupDoc && s.Doc == nil && s.Comment == nil {
				add(s.Pos(), "type", s.Name.Name)
			}
			if s.Name.IsExported() {
				checkTypeBody(s, add)
			}
		case *ast.ValueSpec:
			documented := groupDoc || s.Doc != nil || s.Comment != nil
			for _, name := range s.Names {
				if name.IsExported() && !documented {
					add(name.Pos(), kindOf(d.Tok), name.Name)
				}
			}
		}
	}
}

func kindOf(tok token.Token) string {
	if tok == token.CONST {
		return "const"
	}
	return "var"
}

// checkTypeBody flags undocumented exported struct fields and interface
// methods of an exported type — the parts of a type's contract godoc
// renders indented under it.
func checkTypeBody(s *ast.TypeSpec, add func(token.Pos, string, string)) {
	switch t := s.Type.(type) {
	case *ast.StructType:
		for _, f := range t.Fields.List {
			if f.Doc != nil || f.Comment != nil {
				continue
			}
			for _, name := range f.Names {
				if name.IsExported() {
					add(name.Pos(), "field", s.Name.Name+"."+name.Name)
				}
			}
		}
	case *ast.InterfaceType:
		for _, m := range t.Methods.List {
			if m.Doc != nil || m.Comment != nil {
				continue
			}
			for _, name := range m.Names {
				if name.IsExported() {
					add(name.Pos(), "method", s.Name.Name+"."+name.Name)
				}
			}
		}
	}
}
