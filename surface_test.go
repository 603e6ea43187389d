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
	"maps"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// unreadAllowed lists the exported members under internal/ that stay
// although no non-test file reads them, each with its reason. Keys are the
// package path below internal/, a dot, and the name; a method or a field is
// pkg.Type.Member.
var unreadAllowed = map[string]string{
	"ir.Print":              "the textual dump that programs as text are to build on",
	"ir.OrB":                "IR constructor, kept so every binary operator has one",
	"ir.Shl":                "IR constructor, kept so every binary operator has one",
	"ir.Shr":                "IR constructor, kept so every binary operator has one",
	"ir.CallV":              "IR constructor, kept so a call can sit inside an expression",
	"journal.Replay":        "replay of a byte slice, the entry FuzzJournalReplay and the corruption tests drive",
	"profiler.ParseDepFile": "reader the dependence-file round-trip tests check the writer with",
	"profiler.CoarseSet":    "the coarse dependence tuples those round-trip tests compare",
	"sig.EstimateFPR":       "Formula 2.2, the value a test compares signature occupancy against",

	"ir.Builder.File":          "IR constructor, kept so a module can span more than one source file",
	"ir.FuncBuilder.Free":      "IR constructor, kept so the Free statement has one",
	"ir.FuncBuilder.HeapArray": "IR constructor, kept so a heap variable has one",
	"ir.FuncBuilder.While":     "IR constructor, kept so the while loop has one",

	"interp.Interp.Loads":    "counter the walker-VM differential and FuzzCompile compare (incremented inside vmLoop)",
	"interp.Interp.Stores":   "counter the walker-VM differential and FuzzCompile compare (incremented inside vmLoop)",
	"bytecode.Program.Fused": "the count the superinstruction-fusion tests check fusion happened by",

	"experiments.Row.Label":       "the name the experiment tests find their rows by",
	"interp.Interp.Space":         "the address space the lazy-page and pooled-arena tests inspect",
	"mem.Layout.GlobalsEnd":       "the bound the Reset test writes the last global at and the pooled-arena test tells layouts apart by",
	"mem.Space.Footprint":         "the materialized bytes the lazy-page and Reset tests count",
	"mem.Space.Layout":            "the layout the pooled-arena and Reset tests compare",
	"mem.Space.StackPagesTouched": "the stack pages the lazy-page and Reset tests count",
	"metrics.Scrape.Value":        "the sample lookup the exposition round-trip and rejection-counter tests read with",
	"pipeline.Report.Mod":         "the report's authoritative module, which the profile-cache and fleet tests check identity against",
	"profiler.DepShards.Snapshot": "the map the DepShards merge tests compare; DepShards has only bench/ as reader (ROADMAP item 10)",

	"pipeline.Options.CacheKey": "ignored, and only bench/ sets it (ROADMAP item 10)",
}

// unsetAllowed lists the option fields that stay exported although no
// non-test file outside their package sets them, each with its reason. Keys
// are pkg.Type.Field, as in unreadAllowed.
var unsetAllowed = map[string]string{
	"profiler.Options.ChunkSize":         "configurable per §2.3.3 of the paper; BenchmarkAblationChunkSize varies it",
	"remote.ClientOptions.JobTimeout":    "remote_test shortens it through server.Config.Remote; an injectable clock is its real seam (ROADMAP 6b)",
	"remote.ClientOptions.FailThreshold": "remote_test shortens it through server.Config.Remote; an injectable clock is its real seam (ROADMAP 6b)",
	"remote.ClientOptions.Cooldown":      "remote_test shortens it through server.Config.Remote; an injectable clock is its real seam (ROADMAP 6b)",
}

// TestEveryInternalExportHasAReader type-checks the module's non-test files
// and fails on an exported member under internal/ that no non-test file
// reads: a package-level func, type, var or const, a method, or a field of
// an exported struct (see unreadExports for what counts as a reader). Its
// own package, bench/, cmd/, examples/ and the root package all count. An
// allowlist entry that is gone or has gained a reader fails too, so the
// list stays true.
func TestEveryInternalExportHasAReader(t *testing.T) {
	exports := unreadExports(t, loadModule(t, "."))

	kinds := map[string]int{}
	read := map[string]bool{}
	for _, e := range exports {
		kinds[e.kind]++
		read[e.key] = e.read
		if _, ok := unreadAllowed[e.key]; !e.read && !ok {
			t.Errorf("%s is exported but no non-test file reads it: delete it, or allowlist it with a reason", e.key)
		}
	}
	members := 0
	for key := range unreadAllowed {
		if strings.Count(key, ".") == 2 {
			members++
		}
		isRead, ok := read[key]
		switch {
		case !ok:
			t.Errorf("allowlist entry %s names nothing exported: drop the entry", key)
		case isRead:
			t.Errorf("allowlist entry %s has a reader now: drop the entry", key)
		}
	}
	t.Logf("under internal/: %d exported package-level names, %d exported methods, %d exported fields of exported structs; allowlisted: %d names, %d methods and fields",
		kinds["name"], kinds["method"], kinds["field"], len(unreadAllowed)-members, members)
}

// TestEveryOptionHasASetter fails on an exported field of an option struct
// under internal/ (see optionSetters) that no non-test file outside the
// field's package sets: a knob only its own package or a test turns is a
// constant or a test seam. An allowlist entry that is gone or has gained a
// setter fails too.
func TestEveryOptionHasASetter(t *testing.T) {
	set := optionSetters(t, loadModule(t, "."))
	for _, key := range slices.Sorted(maps.Keys(set)) {
		if _, allowed := unsetAllowed[key]; !set[key] && !allowed {
			t.Errorf("%s is an option no non-test file outside its package sets: make it a constant or unexport it, or allowlist it with a reason", key)
		}
	}
	for key := range unsetAllowed {
		isSet, ok := set[key]
		switch {
		case !ok:
			t.Errorf("allowlist entry %s names no option field: drop the entry", key)
		case isSet:
			t.Errorf("allowlist entry %s has a setter now: drop the entry", key)
		}
	}
	t.Logf("under internal/: %d exported option fields; allowlisted: %d", len(set), len(unsetAllowed))
}

// TestExportGuardRules runs the guard on testdata/surface, a module with
// one case per rule, and checks that it reports exactly the unread members
// and the unset option fields.
func TestExportGuardRules(t *testing.T) {
	mod := loadModule(t, "testdata/surface")
	var unread []string
	for _, e := range unreadExports(t, mod) {
		if !e.read {
			unread = append(unread, e.key)
		}
	}
	want := []string{
		"a.Config.Ratio",     // a field that is only assigned and incremented
		"a.Config.Spare",     // a field set only by a composite literal
		"a.Counter.Reset",    // a method nothing calls
		"a.Shape.Perimeter",  // an interface method nothing calls
		"a.Square.Perimeter", // ... and its implementation
		"a.Unused",           // a package-level name nothing reads
	}
	if !slices.Equal(unread, want) {
		t.Errorf("unread members of testdata/surface:\n got %q\nwant %q", unread, want)
	}

	var unset []string
	set := optionSetters(t, mod)
	for _, key := range slices.Sorted(maps.Keys(set)) {
		if !set[key] {
			unset = append(unset, key)
		}
	}
	want = []string{
		"a.Config.Name",  // set only inside its own package
		"a.Limits.Burst", // set only by a test, in a struct an option struct holds by value
	}
	if !slices.Equal(unset, want) {
		t.Errorf("unset option fields of testdata/surface:\n got %q\nwant %q", unset, want)
	}
}

// stdConsumed names the standard-library interfaces that the standard
// library itself calls (the universe's error has no package). A method that
// satisfies one of them has a reader even when no module code calls it.
var stdConsumed = [][2]string{
	{"", "error"},
	{"fmt", "Stringer"},
	{"sort", "Interface"},
	{"container/heap", "Interface"},
	{"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"},
	{"encoding", "TextMarshaler"},
	{"net/http", "Handler"},
	{"io", "Reader"},
	{"io", "Writer"},
	{"io", "Closer"},
}

// export is one exported member under internal/: kind is "name" for a
// package-level func, type, var or const, "method" or "field". Its key is
// the package path below internal/, a dot and the name, or for a member
// pkg.Type.Member.
type export struct {
	key, kind string
	obj       types.Object
	read      bool
}

// unreadExports lists mod's exported members under internal/, sorted by key,
// and whether a non-test file reads each. A package-level name or a method is
// read when an identifier or selector resolves to it. A method is read as
// well when its type (T or *T) satisfies
//   - an interface whose method some non-test code calls,
//   - the constraint of a type parameter whose method some non-test code
//     calls, for a type argument recorded at an instantiation,
//   - an interface of stdConsumed.
//
// A field is read when a selector names it outside the left-hand side of an
// assignment or an increment, when it is an embedded field crossed by a
// promoted selection, or when it carries a json tag. A composite-literal key
// is a write.
func unreadExports(t *testing.T, mod *module) []export {
	t.Helper()
	internal := mod.path + "/internal/"
	var exports []export
	read := map[types.Object]bool{}
	var candidates []types.Type // package-level non-generic named types under internal/
	add := func(key, kind string, o types.Object) {
		exports = append(exports, export{key: key, kind: kind, obj: o})
	}
	for _, p := range mod.pkgs {
		if !strings.HasPrefix(p.Path(), internal) {
			continue
		}
		prefix := strings.TrimPrefix(p.Path(), internal) + "."
		for _, name := range p.Scope().Names() {
			o := p.Scope().Lookup(name)
			switch o.(type) {
			case *types.Func, *types.TypeName, *types.Var, *types.Const:
				if o.Exported() {
					add(prefix+name, "name", o)
				}
			}
			tn, ok := o.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			if named.TypeParams() == nil {
				candidates = append(candidates, named)
			}
			switch u := named.Underlying().(type) {
			case *types.Interface:
				for i := range u.NumExplicitMethods() {
					if m := u.ExplicitMethod(i); m.Exported() {
						add(prefix+name+"."+m.Name(), "method", m)
					}
				}
				continue
			case *types.Struct:
				for i := range u.NumFields() {
					if f := u.Field(i); f.Exported() && tn.Exported() {
						add(prefix+name+"."+f.Name(), "field", f)
						read[f] = reflect.StructTag(u.Tag(i)).Get("json") != ""
					}
				}
			}
			for i := range named.NumMethods() {
				if m := named.Method(i); m.Exported() {
					add(prefix+name+"."+m.Name(), "method", m)
				}
			}
		}
	}

	// Every embedded field crossed on the way from T to the member at index
	// is read.
	markPath := func(T types.Type, index []int) {
		for _, i := range index[:len(index)-1] {
			if p, ok := T.Underlying().(*types.Pointer); ok {
				T = p.Elem()
			}
			st, ok := T.Underlying().(*types.Struct)
			if !ok {
				return
			}
			read[st.Field(i).Origin()] = true
			T = st.Field(i).Type()
		}
	}
	markMethod := func(T types.Type, m *types.Func) {
		o, index, _ := types.LookupFieldOrMethod(T, true, m.Pkg(), m.Name())
		if f, ok := o.(*types.Func); ok {
			read[f.Origin()] = true
			markPath(T, index)
		}
	}
	// satisfy marks the methods of T or *T that iface asks for, if either
	// implements it.
	satisfy := func(T types.Type, iface *types.Interface, methods []*types.Func) {
		for _, V := range []types.Type{T, types.NewPointer(T)} {
			if types.Implements(V, iface) {
				for _, m := range methods {
					markMethod(V, m)
				}
				return
			}
		}
	}

	called := map[*types.Func]bool{} // interface methods a non-test selector resolves to
	type instance struct {
		tparams *types.TypeParamList
		args    *types.TypeList
	}
	var instances []instance
	for _, p := range mod.pkgs {
		// Selectors on the left-hand side of an assignment or an increment
		// write their field.
		writes := map[ast.Expr]bool{}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						writes[ast.Unparen(lhs)] = true
					}
				case *ast.IncDecStmt:
					writes[ast.Unparen(n.X)] = true
				}
				return true
			})
		}
		for _, o := range p.info.Uses {
			// A use of an instantiated generic func, or of a member of an
			// instantiated generic type, records the instance: map it back.
			switch o := o.(type) {
			case *types.Func:
				read[o.Origin()] = true
				if recv := o.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
					called[o.Origin()] = true
				}
			case *types.Var:
				if !o.IsField() { // fields are read through Selections
					read[o.Origin()] = true
				}
			default:
				read[o] = true
			}
		}
		for sel, s := range p.info.Selections {
			markPath(s.Recv(), s.Index())
			if s.Kind() == types.FieldVal && !writes[sel] {
				read[s.Obj().(*types.Var).Origin()] = true
			}
		}
		for id, inst := range p.info.Instances {
			var tparams *types.TypeParamList
			switch o := p.info.Uses[id].(type) {
			case *types.Func:
				tparams = o.Origin().Signature().TypeParams()
			case *types.TypeName:
				tparams = o.Type().(*types.Named).TypeParams()
			}
			instances = append(instances, instance{tparams, inst.TypeArgs})
		}
	}

	for _, inst := range instances {
		for i := range inst.tparams.Len() {
			iface := inst.tparams.At(i).Constraint().Underlying().(*types.Interface)
			for j := range iface.NumMethods() {
				if m := iface.Method(j); called[m.Origin()] {
					markMethod(inst.args.At(i), m)
				}
			}
		}
	}
	for m := range called {
		// A generic interface is satisfied per instantiation, above.
		recv := m.Signature().Recv().Type()
		if n, ok := recv.(*types.Named); ok && n.TypeParams() != nil {
			continue
		}
		for _, T := range candidates {
			satisfy(T, recv.Underlying().(*types.Interface), []*types.Func{m})
		}
	}
	for _, c := range stdConsumed {
		scope := types.Universe
		if c[0] != "" {
			p, err := mod.std.Import(c[0])
			if err != nil {
				t.Fatal(err)
			}
			scope = p.Scope()
		}
		iface := scope.Lookup(c[1]).Type().Underlying().(*types.Interface)
		var methods []*types.Func
		for i := range iface.NumMethods() {
			methods = append(methods, iface.Method(i))
		}
		for _, T := range candidates {
			satisfy(T, iface, methods)
		}
	}

	for i := range exports {
		exports[i].read = read[exports[i].obj]
	}
	sort.Slice(exports, func(i, j int) bool { return exports[i].key < exports[j].key })
	return exports
}

// optionSetters maps every exported field of an option struct under
// internal/ to whether a non-test file outside the field's package sets it.
// An option struct is an exported struct type whose name ends in Options or
// Config, or a struct type under internal/ that an option struct holds by
// value. A field is set by a composite-literal key, by a selector on the
// left-hand side of an assignment or an increment, or by &x.F passed to a
// call (a flag definition); setting x.F.G sets F too.
func optionSetters(t *testing.T, mod *module) map[string]bool {
	t.Helper()
	internal := mod.path + "/internal/"
	keys := map[*types.Var]string{}
	var queue []*types.TypeName
	for _, p := range mod.pkgs {
		if !strings.HasPrefix(p.Path(), internal) {
			continue
		}
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() && !tn.IsAlias() &&
				(strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config")) {
				queue = append(queue, tn)
			}
		}
	}
	seen := map[*types.TypeName]bool{}
	for len(queue) > 0 {
		tn := queue[0]
		queue = queue[1:]
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok || seen[tn] {
			continue
		}
		seen[tn] = true
		prefix := strings.TrimPrefix(tn.Pkg().Path(), internal) + "." + tn.Name() + "."
		for i := range st.NumFields() {
			f := st.Field(i)
			if !f.Exported() {
				continue
			}
			keys[f] = prefix + f.Name()
			if n, ok := f.Type().(*types.Named); ok && n.Obj().Pkg() != nil && strings.HasPrefix(n.Obj().Pkg().Path(), internal) {
				queue = append(queue, n.Obj())
			}
		}
	}

	set := map[string]bool{}
	for _, key := range keys {
		set[key] = false
	}
	for _, p := range mod.pkgs {
		mark := func(f *types.Var) {
			if key, ok := keys[f.Origin()]; ok && f.Pkg() != p.Package {
				set[key] = true
			}
		}
		// markChain sets every field a selector chain such as x.F.G names.
		markChain := func(e ast.Expr) {
			for {
				sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
				if !ok {
					return
				}
				if s, ok := p.info.Selections[sel]; ok && s.Kind() == types.FieldVal {
					mark(s.Obj().(*types.Var))
				}
				e = sel.X
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						if v, ok := p.info.Uses[id].(*types.Var); ok && v.IsField() {
							mark(v)
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						markChain(lhs)
					}
				case *ast.IncDecStmt:
					markChain(n.X)
				case *ast.CallExpr:
					for _, arg := range n.Args {
						if u, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && u.Op == token.AND {
							markChain(u.X)
						}
					}
				}
				return true
			})
		}
	}
	return set
}

// module is the type-checked non-test source of this module.
type module struct {
	path string
	pkgs []*checkedPackage
	std  types.Importer // the standard library, stdConsumed's packages included
}

type checkedPackage struct {
	*types.Package
	files []*ast.File
	info  *types.Info
}

// loadModule parses every non-test file of the module at root (as the build
// would select them) and type-checks it from source. Standard-library
// imports come from the export data of one `go list -export` call.
func loadModule(t *testing.T, root string) *module {
	t.Helper()
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
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
	for _, c := range stdConsumed {
		if c[0] != "" {
			std[c[0]] = true
		}
	}
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		if errors.As(err, new(*build.NoGoError)) {
			return nil
		} else if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		ip := path.Join(modPath, filepath.ToSlash(rel))
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

	mod := &module{path: modPath, std: stdImporter}
	done := map[string]*types.Package{}
	var imp importerFunc
	check := func(ip string) (*types.Package, error) {
		if p, ok := done[ip]; ok {
			return p, nil
		}
		info := &types.Info{
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Instances:  map[*ast.Ident]types.Instance{},
		}
		conf := types.Config{Importer: imp}
		p, err := conf.Check(ip, fset, files[ip], info)
		if err != nil {
			return nil, err
		}
		done[ip] = p
		mod.pkgs = append(mod.pkgs, &checkedPackage{p, files[ip], info})
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
