// Command doccheck is the repository's documentation lint: it fails when
// any package under the given roots is missing a package-level doc
// comment or when any exported top-level declaration (type, function,
// method, or the first name of a const/var group) has no doc comment.
// It also fails when README.md, ARCHITECTURE.md,
// .claude/skills/verify/SKILL.md or any file under examples/ of a root
// mentions a cmd/<name> path that does not exist there, so deleted or
// renamed commands cannot linger in the docs. CHANGES.md and ROADMAP.md
// are history and are not checked. CI runs it over the whole module so
// the godoc surface cannot rot.
//
// Usage:
//
//	doccheck [-q] [dir ...]          # default: .
//
// Test files, testdata and generated files are excluded. Exported
// methods on exported types are checked; methods implementing an
// interface still need a line (convention: "Foo implements Bar.").
// Exit status is 1 when anything is undocumented or a command path is
// stale, with one line per finding.
package main

import (
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	quiet := flag.Bool("q", false, "print only the finding count")
	flag.Parse()
	roots := flag.Args()
	if len(roots) == 0 {
		roots = []string{"."}
	}
	var findings []string
	for _, root := range roots {
		f, err := checkTree(root)
		c, cerr := checkCmdPaths(root)
		if err := errors.Join(err, cerr); err != nil {
			fmt.Fprintln(os.Stderr, "doccheck:", err)
			os.Exit(2)
		}
		findings = append(append(findings, f...), c...)
	}
	sort.Strings(findings)
	if !*quiet {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if n := len(findings); n > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d findings\n", n)
		os.Exit(1)
	}
}

// checkTree walks every Go package directory under root and collects
// findings.
func checkTree(root string) ([]string, error) {
	var findings []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if name == "testdata" || strings.HasPrefix(name, ".") && path != root {
			return fs.SkipDir
		}
		f, err := checkDir(path)
		if err != nil {
			return err
		}
		findings = append(findings, f...)
		return nil
	})
	return findings, err
}

// cmdPath matches a mention of a command directory, cmd/<name> or
// ./cmd/<name>, capturing the name.
var cmdPath = regexp.MustCompile(`\bcmd/([A-Za-z0-9_-]+)`)

// checkCmdPaths reports every cmd/<name> mention in root's README.md,
// ARCHITECTURE.md, .claude/skills/verify/SKILL.md and examples/ whose
// directory root/cmd/<name> does not exist. Missing documents are
// skipped.
func checkCmdPaths(root string) ([]string, error) {
	docs := []string{"README.md", "ARCHITECTURE.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")}
	for i, d := range docs {
		docs[i] = filepath.Join(root, d)
	}
	err := filepath.WalkDir(filepath.Join(root, "examples"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			docs = append(docs, path)
		}
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	var findings []string
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range cmdPath.FindAllStringSubmatch(line, -1) {
				if st, err := os.Stat(filepath.Join(root, "cmd", m[1])); err != nil || !st.IsDir() {
					findings = append(findings, fmt.Sprintf("%s:%d: cmd/%s does not exist", doc, i+1, m[1]))
				}
			}
		}
	}
	return findings, nil
}

// checkDir parses one directory's non-test Go files and reports
// undocumented exported declarations.
func checkDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	var findings []string
	report := func(pos token.Pos, what string) {
		p := fset.Position(pos)
		findings = append(findings, fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, what))
	}
	for _, pkg := range pkgs {
		hasPkgDoc := false
		for _, file := range pkg.Files {
			if file.Doc != nil && len(strings.TrimSpace(file.Doc.Text())) > 0 {
				hasPkgDoc = true
			}
		}
		if !hasPkgDoc {
			// Attribute the finding to any one file of the package.
			for name, file := range pkg.Files {
				_ = name
				report(file.Package, "package "+pkg.Name+" has no package doc comment")
				break
			}
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				checkDecl(decl, report)
			}
		}
	}
	return findings, nil
}

// checkDecl reports an undocumented exported top-level declaration.
func checkDecl(decl ast.Decl, report func(token.Pos, string)) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || hasDoc(d.Doc) {
			return
		}
		if d.Recv != nil {
			// Methods count only when the receiver type is exported.
			if rt := receiverName(d.Recv); rt != "" && !ast.IsExported(rt) {
				return
			}
			report(d.Pos(), "method "+d.Name.Name+" has no doc comment")
			return
		}
		report(d.Pos(), "function "+d.Name.Name+" has no doc comment")
	case *ast.GenDecl:
		switch d.Tok {
		case token.TYPE:
			for _, spec := range d.Specs {
				ts := spec.(*ast.TypeSpec)
				if ts.Name.IsExported() && !hasDoc(ts.Doc) && !hasDoc(d.Doc) {
					report(ts.Pos(), "type "+ts.Name.Name+" has no doc comment")
				}
			}
		case token.CONST, token.VAR:
			// A group doc covers the group; otherwise each exported spec
			// needs its own comment (first name attributed).
			if hasDoc(d.Doc) {
				return
			}
			for _, spec := range d.Specs {
				vs := spec.(*ast.ValueSpec)
				if len(vs.Names) == 0 || !vs.Names[0].IsExported() {
					continue
				}
				if !hasDoc(vs.Doc) && vs.Comment == nil {
					report(vs.Pos(), d.Tok.String()+" "+vs.Names[0].Name+" has no doc comment")
				}
			}
		}
	}
}

// hasDoc reports whether a doc comment exists and is non-empty.
func hasDoc(g *ast.CommentGroup) bool {
	return g != nil && len(strings.TrimSpace(g.Text())) > 0
}

// receiverName extracts the receiver's base type name.
func receiverName(fl *ast.FieldList) string {
	if fl == nil || len(fl.List) == 0 {
		return ""
	}
	t := fl.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
