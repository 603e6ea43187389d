package discopop

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreadAllowed lists the exported package-level names under internal/
// that stay although no non-test file reads them, each with its reason.
// Keys are the package path below internal/, a dot, and the name.
var unreadAllowed = map[string]string{
	"ir.Print":              "the textual dump that programs as text are to build on",
	"ir.OrB":                "IR constructor, kept so every binary operator has one",
	"ir.Shl":                "IR constructor, kept so every binary operator has one",
	"ir.Shr":                "IR constructor, kept so every binary operator has one",
	"ir.CallV":              "IR constructor, kept so a call can sit inside an expression",
	"journal.Replay":        "replay of a byte slice, the entry FuzzJournalReplay and the corruption tests drive",
	"obs.DecodeLineProfile": "strict reader of the encoded line profile, kept for region-stack samples",
	"profiler.ParseDepFile": "reader the dependence-file round-trip tests check the writer with",
	"profiler.CoarseSet":    "the coarse dependence tuples those round-trip tests compare",
	"sig.EstimateFPR":       "Formula 2.2, the value a test compares signature occupancy against",
}

// TestEveryInternalExportHasAReader type-checks the module's non-test files
// and fails on an exported package-level func, type, var or const under
// internal/ that no non-test file references (its own package, bench/,
// cmd/, examples/ and the root package all count). Methods are out of
// scope: interface satisfaction hides their readers. An allowlist entry
// that is gone or has gained a reader fails too, so the list stays true.
func TestEveryInternalExportHasAReader(t *testing.T) {
	mod := loadModule(t)
	internal := mod.path + "/internal/"

	exported := map[string]bool{} // key → read
	var order []string
	for _, p := range mod.checked {
		if !strings.HasPrefix(p.Path(), internal) {
			continue
		}
		for _, name := range p.Scope().Names() {
			if !token.IsExported(name) {
				continue
			}
			switch p.Scope().Lookup(name).(type) {
			case *types.Func, *types.TypeName, *types.Var, *types.Const:
				key := strings.TrimPrefix(p.Path(), internal) + "." + name
				exported[key] = false
				order = append(order, key)
			}
		}
	}
	for _, obj := range mod.uses {
		p := obj.Pkg()
		if p == nil || !strings.HasPrefix(p.Path(), internal) || p.Scope().Lookup(obj.Name()) != obj {
			continue
		}
		key := strings.TrimPrefix(p.Path(), internal) + "." + obj.Name()
		if _, ok := exported[key]; ok {
			exported[key] = true
		}
	}

	sort.Strings(order)
	for _, key := range order {
		if _, ok := unreadAllowed[key]; !exported[key] && !ok {
			t.Errorf("%s is exported but no non-test file reads it: delete it, or allowlist it with a reason", key)
		}
	}
	for key := range unreadAllowed {
		read, ok := exported[key]
		switch {
		case !ok:
			t.Errorf("allowlist entry %s names nothing exported: drop the entry", key)
		case read:
			t.Errorf("allowlist entry %s has a reader now: drop the entry", key)
		}
	}
	t.Logf("%d exported package-level names under internal/, %d allowlisted", len(order), len(unreadAllowed))
}

// module is the type-checked non-test source of this module.
type module struct {
	path    string
	checked []*types.Package
	uses    []types.Object // every object a non-test identifier refers to
}

// loadModule parses every non-test file of the module (as the build would
// select them) and type-checks it from source. Standard-library imports come
// from the export data of one `go list -export` call.
func loadModule(t *testing.T) *module {
	t.Helper()
	gomod, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	var modPath string
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			modPath = f[1]
		}
	}

	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path → files
	std := map[string]bool{}
	err = filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		if errors.As(err, new(*build.NoGoError)) {
			return nil
		} else if err != nil {
			return err
		}
		ip := path.Join(modPath, filepath.ToSlash(dir))
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files[ip] = append(files[ip], f)
		}
		for _, imp := range bp.Imports {
			if imp != modPath && !strings.HasPrefix(imp, modPath+"/") {
				std[imp] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	args := []string{"list", "-export", "-f", "{{.ImportPath}} {{.Export}}"}
	for imp := range std {
		args = append(args, imp)
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	export := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if ip, file, ok := strings.Cut(line, " "); ok && file != "" {
			export[ip] = file
		}
	}
	stdImporter := importer.ForCompiler(fset, "gc", func(ip string) (io.ReadCloser, error) {
		if file, ok := export[ip]; ok {
			return os.Open(file)
		}
		return nil, fmt.Errorf("go list reported no export data for %s", ip)
	})

	mod := &module{path: modPath}
	done := map[string]*types.Package{}
	var imp importerFunc
	check := func(ip string) (*types.Package, error) {
		if p, ok := done[ip]; ok {
			return p, nil
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		p, err := conf.Check(ip, fset, files[ip], info)
		if err != nil {
			return nil, err
		}
		for _, obj := range info.Uses {
			// A use of an instantiated generic func, or of a field of an
			// instantiated generic type, records the instance: map it back.
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			mod.uses = append(mod.uses, obj)
		}
		done[ip] = p
		mod.checked = append(mod.checked, p)
		return p, nil
	}
	imp = func(ip string) (*types.Package, error) {
		if _, ok := files[ip]; ok {
			return check(ip)
		}
		return stdImporter.Import(ip)
	}
	for ip := range files {
		if _, err := check(ip); err != nil {
			t.Fatalf("type-checking %s: %v", ip, err)
		}
	}
	return mod
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
