package octant_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestAPIBaseline is the apidiff-style compatibility gate for the public
// facade: every exported root-package symbol recorded in api/baseline.txt
// must still exist unless its baseline entry was already marked
// deprecated (i.e. a symbol may only disappear after shipping at least
// one release deprecated). New exported symbols must be recorded before
// they ship, so the baseline always reflects the published surface. A
// symbol is a top-level name or an exported method of an exported type,
// written Type.Method — aliases of internal types included, since their
// methods are callable through the root package.
//
// Regenerate the baseline after an intentional surface change with:
//
//	OCTANT_UPDATE_API=1 go test -run TestAPIBaseline .
func TestAPIBaseline(t *testing.T) {
	current, err := exportedRootSymbols(".")
	if err != nil {
		t.Fatal(err)
	}

	const baselinePath = "api/baseline.txt"
	if os.Getenv("OCTANT_UPDATE_API") != "" {
		names := make([]string, 0, len(current))
		for name := range current {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		b.WriteString("# Exported symbols of the root octant package, one per line:\n")
		b.WriteString("# top-level names, and the exported methods of exported types as Type.Method.\n")
		b.WriteString("# Symbols marked 'deprecated' may be removed in a later change;\n")
		b.WriteString("# unmarked symbols removed without a deprecation cycle fail CI\n")
		b.WriteString("# (TestAPIBaseline). Regenerate: OCTANT_UPDATE_API=1 go test -run TestAPIBaseline .\n")
		for _, name := range names {
			b.WriteString(name)
			if current[name] {
				b.WriteString(" deprecated")
			}
			b.WriteByte('\n')
		}
		if err := os.MkdirAll("api", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(baselinePath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d symbols)", baselinePath, len(names))
		return
	}

	data, err := os.ReadFile(baselinePath)
	if err != nil {
		t.Fatalf("%v — generate it with OCTANT_UPDATE_API=1 go test -run TestAPIBaseline .", err)
	}
	baseline := map[string]bool{} // name → deprecated at baseline time
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		baseline[fields[0]] = len(fields) > 1 && fields[1] == "deprecated"
	}

	for name, wasDeprecated := range baseline {
		if _, ok := current[name]; !ok && !wasDeprecated {
			t.Errorf("exported symbol %s removed without a deprecation cycle: mark it Deprecated for at least one release first", name)
		}
	}
	var missing []string
	for name := range current {
		if _, ok := baseline[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		t.Errorf("new exported symbols not recorded in %s: %s\n(regenerate with OCTANT_UPDATE_API=1 go test -run TestAPIBaseline .)",
			baselinePath, strings.Join(missing, ", "))
	}
}

// exportedRootSymbols parses the package in dir and returns its exported
// top-level identifiers, and the exported methods of its exported types,
// mapped to whether their doc marks them deprecated.
func exportedRootSymbols(dir string) (map[string]bool, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	pkg, ok := pkgs["octant"]
	if !ok {
		return nil, fmt.Errorf("no octant package in %s", dir)
	}
	out := map[string]bool{}
	record := func(name string, doc *ast.CommentGroup) {
		if !ast.IsExported(name) {
			return
		}
		out[name] = isDeprecated(doc)
	}
	var files []*ast.File
	for _, f := range pkg.Files {
		files = append(files, f)
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil { // methods are listed from the type checker below
					record(d.Name.Name, d.Doc)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						doc := s.Doc
						if doc == nil {
							doc = d.Doc
						}
						record(s.Name.Name, doc)
					case *ast.ValueSpec:
						doc := s.Doc
						if doc == nil {
							doc = d.Doc
						}
						for _, n := range s.Names {
							record(n.Name, doc)
						}
					}
				}
			}
		}
	}

	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	tpkg, err := conf.Check("octant", fset, files, nil)
	if err != nil {
		return nil, err
	}
	docs := methodDocs{fset: fset, files: map[string]*ast.File{}}
	scope := tpkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() {
			continue
		}
		t := tn.Type()
		if _, iface := t.Underlying().(*types.Interface); !iface {
			t = types.NewPointer(t)
		}
		ms := types.NewMethodSet(t)
		for i := 0; i < ms.Len(); i++ {
			m := ms.At(i).Obj()
			if !m.Exported() {
				continue
			}
			doc, err := docs.at(m.Pos())
			if err != nil {
				return nil, err
			}
			out[name+"."+m.Name()] = out[name] || isDeprecated(doc)
		}
	}
	return out, nil
}

// methodDocs finds the doc comment of a method the type checker located,
// parsing each declaring file once.
type methodDocs struct {
	fset  *token.FileSet
	files map[string]*ast.File
}

func (d methodDocs) at(pos token.Pos) (*ast.CommentGroup, error) {
	p := d.fset.Position(pos)
	f, ok := d.files[p.Filename]
	if !ok {
		var err error
		if f, err = parser.ParseFile(d.fset, p.Filename, nil, parser.ParseComments); err != nil {
			return nil, err
		}
		d.files[p.Filename] = f
	}
	var doc *ast.CommentGroup
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if d.fset.Position(n.Name.Pos()).Offset == p.Offset {
				doc = n.Doc
			}
		case *ast.Field: // an interface method
			if len(n.Names) == 1 && d.fset.Position(n.Names[0].Pos()).Offset == p.Offset {
				doc = n.Doc
			}
		}
		return doc == nil
	})
	return doc, nil
}

func isDeprecated(doc *ast.CommentGroup) bool {
	return doc != nil && strings.Contains(doc.Text(), "Deprecated:")
}
