package perfpred

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadcodeAllowFile lists the functions, methods and struct fields
// TestNoUncalledCode accepts without a non-test caller or reader, one
// per line with its reason.
const deadcodeAllowFile = "deadcode_allow.txt"

// TestNoUncalledCode holds the module to code some program reaches: every
// non-test function and method outside benchmark/ must be referred to
// from the non-test code of another function (benchmark/, cmd/ and
// examples/ count as callers), and every struct field outside
// benchmark/ must be read by non-test code (see scan.add for what
// counts as a read), or be named in deadcode_allow.txt with the
// reason it stays. A method counts as reached when an interface
// method of its name is called on an interface its type implements.
// Module packages are type-checked from source, in dependency order, so
// they share one set of objects; everything outside the module is read
// from the compiler's export data (`go list -export`), not from source.
func TestNoUncalledCode(t *testing.T) {
	pkgs, err := listPackages()
	if err != nil {
		t.Fatal(err)
	}
	s, err := scanModule(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllowlist(deadcodeAllowFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range s.uncalled() {
		if _, ok := allow[name]; !ok {
			t.Errorf("%s has no caller outside tests: delete it, or name it in %s with the reason it stays", name, deadcodeAllowFile)
		}
		delete(allow, name)
	}
	for _, name := range s.unread() {
		if _, ok := allow[name]; !ok {
			t.Errorf("field %s is never read outside tests: delete it, or name it in %s with the reason it stays", name, deadcodeAllowFile)
		}
		delete(allow, name)
	}
	for name := range allow {
		t.Errorf("%s names %s, which is gone or now has a caller or reader: remove the entry", deadcodeAllowFile, name)
	}
}

type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
}

// listPackages returns every package the module's packages need,
// dependencies first, each with its compiled export data.
func listPackages() ([]listedPackage, error) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export", "./...")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

// scanModule type-checks the module's packages and scans each one's
// non-test code; packages under benchmark/ refer to code but define no
// candidates.
func scanModule(pkgs []listedPackage) (*scan, error) {
	fset := token.NewFileSet()
	exports := map[string]string{}
	for _, p := range pkgs {
		exports[p.ImportPath] = p.Export
	}
	external := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok || f == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(f)
	})
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return external.Import(path)
	})}

	s := newScan()
	for _, p := range pkgs {
		if !inTree(p.ImportPath, "perfpred") {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := newInfo()
		tp, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, err
		}
		checked[p.ImportPath] = tp
		s.add(tp, files, info, !inTree(p.ImportPath, "perfpred/benchmark"))
	}
	return s, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Instances:  map[*ast.Ident]types.Instance{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// scan gathers, package by package, the functions and fields the
// module defines and the ones its non-test code calls or reads.
type scan struct {
	funcs      []*types.Func
	reached    map[*types.Func]bool
	ifaceCalls map[string][]*types.Interface // method name → interfaces it was called through
	fields     map[*types.Var]string         // candidate field → "import/path.Type.Field"
	read       map[*types.Var]bool
}

func newScan() *scan {
	return &scan{
		reached:    map[*types.Func]bool{},
		ifaceCalls: map[string][]*types.Interface{},
		fields:     map[*types.Var]string{},
		read:       map[*types.Var]bool{},
	}
}

// add scans one type-checked package. With candidates set, its
// functions and fields must be reached from somewhere: a function by a
// reference (addFuncs), a field by a selection that is not a write
// (addFieldReads) or as a field of a struct used as a map key or a
// type argument (readAllFields).
func (s *scan) add(pkg *types.Package, files []*ast.File, info *types.Info, candidates bool) {
	for _, f := range files {
		s.addFuncs(f, info, candidates)
		if candidates {
			s.addFieldDecls(pkg, f, info)
		}
		s.addFieldReads(f, info)
	}
	for _, tv := range info.Types {
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			s.readAllFields(m.Key())
		}
	}
	for _, inst := range info.Instances {
		for i := 0; i < inst.TypeArgs.Len(); i++ {
			s.readAllFields(inst.TypeArgs.At(i))
		}
	}
}

func (s *scan) addFuncs(f *ast.File, info *types.Info, candidates bool) {
	for _, decl := range f.Decls {
		var self *types.Func // nil outside a named func
		if fd, ok := decl.(*ast.FuncDecl); ok {
			self, _ = info.Defs[fd.Name].(*types.Func)
			if self != nil && candidates && fd.Name.Name != "main" && fd.Name.Name != "init" {
				s.funcs = append(s.funcs, self)
			}
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := info.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			fn = fn.Origin()
			if fn == self {
				return true // recursion is not a caller
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
					s.ifaceCalls[fn.Name()] = append(s.ifaceCalls[fn.Name()], iface)
					return true
				}
			}
			s.reached[fn] = true
			return true
		})
	}
}

// addFieldDecls records the fields of every struct type the file
// names. Blank and embedded fields are read without a selection, and a
// json-tagged one by encoding/json, so none of them is a candidate.
func (s *scan) addFieldDecls(pkg *types.Package, f *ast.File, info *types.Info) {
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return true
		}
		for _, field := range st.Fields.List {
			if field.Tag != nil {
				tag, _ := strconv.Unquote(field.Tag.Value)
				if name, ok := reflect.StructTag(tag).Lookup("json"); ok && name != "-" {
					continue
				}
			}
			for _, id := range field.Names {
				if id.Name != "_" {
					s.fields[info.Defs[id].(*types.Var)] = pkg.Path() + "." + ts.Name.Name + "." + id.Name
				}
			}
		}
		return true
	})
}

// addFieldReads marks every field the file selects other than as the
// whole left side of an assignment or an increment. A composite
// literal's key writes its field and is no selection.
func (s *scan) addFieldReads(f *ast.File, info *types.Info) {
	written := map[*ast.SelectorExpr]bool{}
	write := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			written[sel] = true
		}
	}
	// Inspect visits a statement before its operands, so a left side is
	// marked written before its selector is reached.
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				write(e)
			}
		case *ast.IncDecStmt:
			write(n.X)
		case *ast.SelectorExpr:
			if sl := info.Selections[n]; sl != nil && sl.Kind() == types.FieldVal && !written[n] {
				s.read[sl.Obj().(*types.Var).Origin()] = true
			}
		}
		return true
	})
}

// readAllFields marks every field of t, and of the structs it holds by
// value, as read: a map key's fields are hashed and compared, and a
// type argument's are read by generic code this scan does not
// instantiate.
func (s *scan) readAllFields(t types.Type) {
	if st, ok := t.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			s.read[st.Field(i).Origin()] = true
			s.readAllFields(st.Field(i).Type())
		}
	}
}

// uncalled returns the sorted names (import path, receiver type, name)
// of the candidate functions and methods that no other function's
// non-test code refers to.
func (s *scan) uncalled() []string {
	var names []string
	for _, fn := range s.funcs {
		if s.reached[fn] || implementsCalled(fn, s.ifaceCalls[fn.Name()]) {
			continue
		}
		names = append(names, funcName(fn))
	}
	sort.Strings(names)
	return names
}

// unread returns the sorted names of the candidate fields no non-test
// code reads.
func (s *scan) unread() []string {
	var names []string
	for v, name := range s.fields {
		if !s.read[v] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// implementsCalled reports whether method fn's receiver type implements
// one of the interfaces a method of fn's name was called through.
func implementsCalled(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	named := recvNamed(recv.Type())
	if named == nil {
		return false
	}
	for _, iface := range ifaces {
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}

// inTree reports whether the package at path is root or below it.
func inTree(path, root string) bool {
	return path == root || strings.HasPrefix(path, root+"/")
}

func recvNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// funcName renders fn as "import/path.Func" or "import/path.Type.Method".
func funcName(fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if named := recvNamed(recv.Type()); named != nil {
			name = named.Obj().Name() + "." + name
		}
	}
	return fn.Pkg().Path() + "." + name
}

// readAllowlist parses lines of "name  reason"; blank lines and lines
// starting with # are ignored, and every entry needs a reason.
func readAllowlist(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		name, reason, _ := strings.Cut(text, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, line, name)
		}
		if _, dup := allow[name]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, line, name)
		}
		allow[name] = reason
	}
	return allow, sc.Err()
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// TestFieldScanFlagsWriteOnlyFields holds the field half of the scan to
// its rule on a synthetic package: a field only assigned, only set in
// a composite literal or only incremented is unread; a selection
// anywhere else, a map key's or type argument's fields, a json-tagged,
// blank or embedded field, and a generic type's field read through an
// instance are read.
func TestFieldScanFlagsWriteOnlyFields(t *testing.T) {
	const src = `package p

type W struct {
	assigned int
	literal  int
	counted  int
	added    int
	used     int
	Tagged   int ` + "`json:\"tagged\"`" + `
	_        int
	inner
}

type inner struct{ promoted, unused int }

type Key struct{ a, b int }

type Arg struct{ c int }

type G[T any] struct{ v T }

func use[T any](T) {}

func f(w *W) int {
	*w = W{literal: 1}
	w.assigned = 2
	w.counted++
	w.added += 3
	m := map[Key]int{{1, 2}: 3}
	use(Arg{c: 1})
	var g G[int]
	return w.used + len(m) + w.promoted + g.v
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := newInfo()
	pkg, err := new(types.Config).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	s := newScan()
	s.add(pkg, []*ast.File{f}, info, true)
	got := strings.Join(s.unread(), " ")
	if want := "p.W.added p.W.assigned p.W.counted p.W.literal p.inner.unused"; got != want {
		t.Errorf("unread fields:\n got %s\nwant %s", got, want)
	}
}
