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
	"sort"
	"strings"
	"testing"
)

// deadcodeAllowFile lists the functions and methods TestNoUncalledCode
// accepts without a non-test caller, one per line with its reason.
const deadcodeAllowFile = "deadcode_allow.txt"

// TestNoUncalledCode holds the module to code some program reaches: every
// non-test function and method outside benchmark/ must be referred to
// from the non-test code of another function (benchmark/, cmd/ and
// examples/ count as callers), or be named in deadcode_allow.txt with
// the reason it stays. A method counts as reached when an interface
// method of its name is called on an interface its type implements.
// Module packages are type-checked from source, in dependency order, so
// they share one set of objects; everything outside the module is read
// from the compiler's export data (`go list -export`), not from source.
func TestNoUncalledCode(t *testing.T) {
	pkgs, err := listPackages()
	if err != nil {
		t.Fatal(err)
	}
	uncalled, err := uncalledFuncs(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllowlist(deadcodeAllowFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range uncalled {
		if _, ok := allow[name]; !ok {
			t.Errorf("%s has no caller outside tests: delete it, or name it in %s with the reason it stays", name, deadcodeAllowFile)
		}
		delete(allow, name)
	}
	for name := range allow {
		t.Errorf("%s names %s, which is gone or now has a caller: remove the entry", deadcodeAllowFile, name)
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

// uncalledFuncs type-checks the module's packages and returns the
// sorted names (import path, receiver type, name) of the functions and
// methods outside benchmark/ that no other function's non-test code
// refers to.
func uncalledFuncs(pkgs []listedPackage) ([]string, error) {
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

	var candidates []*types.Func
	reached := map[*types.Func]bool{}
	ifaceCalls := map[string][]*types.Interface{} // method name → interfaces it was called through
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
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		tp, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, err
		}
		checked[p.ImportPath] = tp
		bench := inTree(p.ImportPath, "perfpred/benchmark")
		for _, f := range files {
			for _, decl := range f.Decls {
				var self *types.Func // nil outside a named func
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self, _ = info.Defs[fd.Name].(*types.Func)
					if self != nil && !bench && fd.Name.Name != "main" && fd.Name.Name != "init" {
						candidates = append(candidates, self)
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
							ifaceCalls[fn.Name()] = append(ifaceCalls[fn.Name()], iface)
							return true
						}
					}
					reached[fn] = true
					return true
				})
			}
		}
	}

	var uncalled []string
	for _, fn := range candidates {
		if reached[fn] || implementsCalled(fn, ifaceCalls[fn.Name()]) {
			continue
		}
		uncalled = append(uncalled, funcName(fn))
	}
	sort.Strings(uncalled)
	return uncalled, nil
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
