package xplace

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"xplace/internal/placer"
)

// srcFile is one parsed Go file of the module.
type srcFile struct {
	fset    *token.FileSet    // positions of f
	pkg     string            // import path of the file's package
	test    bool              // a _test.go file
	imports map[string]string // local package name -> import path
	f       *ast.File
}

// parseModule parses every Go file under the module root (hidden
// directories skipped).
func parseModule(t *testing.T) []*srcFile {
	t.Helper()
	var files []*srcFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		sf := &srcFile{fset: fset, pkg: path.Join("xplace", filepath.ToSlash(filepath.Dir(p))),
			test: strings.HasSuffix(p, "_test.go"), imports: map[string]string{}, f: f}
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			sf.imports[name] = ip
		}
		files = append(files, sf)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestPlacementOptionsHaveCallers: every field of placer.Options is set or
// read — as a selector or a composite-literal key — by non-test code outside
// internal/placer, so an option nothing can select fails here instead of
// staying an undecided mechanism. The exceptions are the paper's extension
// hooks (Figure 1 / 2(b)), which a library user sets; each names the test
// that exercises it.
func TestPlacementOptionsHaveCallers(t *testing.T) {
	hooks := map[string]string{
		"Optimizer":     "TestOptimizerModuleSwap",
		"AdamLR":        "TestOptimizerModuleSwap",
		"Wirelength":    "TestWirelengthModelSwap",
		"ExtraGradient": "TestExtraGradientHook",
	}
	used := map[string]bool{}
	for _, sf := range parseModule(t) {
		if sf.test || sf.pkg == "xplace/internal/placer" {
			continue
		}
		ast.Inspect(sf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				used[n.Sel.Name] = true
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					used[id.Name] = true
				}
			}
			return true
		})
	}
	typ := reflect.TypeOf(placer.Options{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if _, hook := hooks[name]; !hook && !used[name] {
			t.Errorf("placer.Options.%s has no caller outside internal/placer and its tests: give it one, or delete it", name)
		}
	}
	for name, test := range hooks {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("allow-listed hook %s (exercised by %s) is no longer a field of placer.Options", name, test)
		}
	}
}

// TestPublicSurfaceHasCallers extends the guard above to the whole
// module: a name nothing calls is deleted, not kept. Two rules apply.
//
// The public surface — this package's exported functions and variables,
// the methods of the Session and of the kernel Engine, and the fields of
// the structs a flow, a schedule, a worker daemon and a gateway are
// configured by — needs a non-test reference from outside its declaring
// package (cmd/, examples/, benchmark/ or another package). Fields and
// methods there are matched by their owning type, resolved from the
// declarations in scope (composite-literal types, parameter and variable
// types, struct field types and function result types), so a same-named
// member of another type — rec.History() — is not a use of
// gateway.Options.History.
//
// Every other non-main package needs a non-test reference to each of its
// exported functions and variables (by import path from another package,
// or by name inside its own) and to each exported method of its types,
// outside the name's own declaration. Methods are resolved by receiver
// type with go/types (typedMethods), so a same-named method of another
// type is no use of this one; a method that implements an interface the
// module can reach — its own, the standard library's, error — passes, as
// it may be called through the interface (PredictField) or by the standard
// library (Error, String).
//
// Every other exported field of a package-level struct type, in any
// package, needs a non-test reference (a selector or a composite-literal
// key, resolved with go/types) outside its declaration. Fields that carry
// a struct tag are exempt, as encoding reads them (the jobapi.Request wire
// schema, pinned by TestContract, among them), and so are embedded fields,
// used through what they promote.
//
// Any rule is met instead by an allow-list entry naming the _test.go
// function that references the name. Types and constants are exempt, as is
// placer.Options (guarded above).
func TestPublicSurfaceHasCallers(t *testing.T) {
	allow := map[string]string{
		// The DEF writer: the integration test's round trip.
		"xplace.WriteDEF": "TestLEFDEFToPlacementIntegration",
		// Typed artifact errors a library caller matches with errors.Is.
		"xplace.ErrModelNotArtifact": "TestLoadModelTypedErrors",
		"xplace.ErrModelVersion":     "TestLoadModelTypedErrors",
		"xplace.ErrModelCorrupt":     "TestLoadModelTypedErrors",
		// Timings only tests shorten.
		"gateway.Options.ProbeTimeout":    "gatewayBackend",
		"gateway.Options.RetryBase":       "fastOpts",
		"gateway.Options.RetryMaxDelay":   "fastOpts",
		"gateway.Options.BreakerCooldown": "TestBreakerEjectsFlappingNode",
		"gateway.Options.RetryAfter":      "fastOpts",
		"gateway.Options.RouteWait":       "fastOpts",
		// Engine ownership is observable only to tests (a Session closes
		// only the engines it created).
		"kernel.Engine.Closed": "TestSessionLeavesSuppliedEngineOpen",
		// The seam for runs that must not converge.
		"sched.Options.MinIter": "TestDone",
		// Test seams: the reference snapshot of a design, the only builder
		// of a fenced design, the launch-count invariant's assertion, a
		// model's live reference count, the scheduler's typed counters and
		// the inverse transforms the DCT round trips check DCT2 against.
		"netlist.Design.Clone":          "TestPlacersShareCallerDesign",
		"netlist.Design.AddFence":       "TestFenceBuilderValidation",
		"netlist.Design.SetFence":       "TestFenceBuilderValidation",
		"obs.Tracer.KernelLaunchCounts": "TestSessionObservabilityWiring",
		"serve.ModelRegistry.Refs":      "TestModelRegistryAcquireRefcounts",
		"serve.Scheduler.Counters":      "TestSubmitBackpressure",
		"dct.Plan.EvalCosCos":           "TestEvalTransformsMatchDirect",
		"dct.Plan32.EvalCosCos":         "TestPlan32RoundTrip",
		// The float32 backend's own surface, which goes with it (ROADMAP
		// item 2).
		"field.System.Backend": "TestFloat32SystemMatchesReference",
		"backend.Buf.Len":      "TestBufAllocRoundTrip",
		"backend.Buf.Float64":  "TestBufAllocRoundTrip",
		"backend.Buf.Float32":  "TestBufAllocRoundTrip",
		"backend.Buf.IsZero":   "TestBufAllocRoundTrip",
		"backend.Kernels.Has":  "TestKernelsUnknownBodyPanics",
	}
	guardedMethods := map[string]bool{
		"xplace.Session":                true,
		"xplace/internal/kernel.Engine": true,
	}
	guardedStructs := map[string]bool{
		"xplace.FlowOptions":              true,
		"xplace/internal/sched.Options":   true,
		"xplace/internal/serve.Options":   true,
		"xplace/internal/gateway.Options": true,
	}
	short := func(key string) string { return strings.TrimPrefix(key, "xplace/internal/") }

	files := parseModule(t)
	ix := indexModule(files)
	used := ix.uses(files)
	refs := moduleRefs(ix, files)
	methodCalled, fieldUsed := typedMembers(t, files)

	// The guarded names, keyed "owner.Name" with owner an import path
	// (package-level names) or an import path plus type name (members),
	// and whether their rule finds a caller.
	var guarded []string
	called := map[string]bool{}
	guard := func(key string, ok bool) {
		guarded = append(guarded, key)
		called[key] = ok
	}
	public := func(key string) { guard(key, used[key]) }
	for _, sf := range files {
		if sf.test || sf.f.Name.Name == "main" {
			continue
		}
		pkgLevel := func(name string) {
			key := sf.pkg + "." + name
			if sf.pkg == "xplace" {
				public(key)
				return
			}
			guard(key, used[key] || refs.outside(refs.ident[key], key))
		}
		for _, d := range sf.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					pkgLevel(d.Name.Name)
					continue
				}
				owner := ix.typeKey(sf, d.Recv.List[0].Type)
				key := owner + "." + d.Name.Name
				if guardedMethods[owner] {
					public(key)
				} else {
					guard(key, methodCalled[key])
				}
			case *ast.GenDecl:
				if d.Tok != token.VAR {
					continue
				}
				for _, s := range d.Specs {
					for _, id := range s.(*ast.ValueSpec).Names {
						if id.IsExported() {
							pkgLevel(id.Name)
						}
					}
				}
			}
		}
	}
	for st := range guardedStructs {
		fields, ok := ix.fields[st]
		if !ok {
			t.Fatalf("guarded struct %s not found", short(st))
		}
		for name := range fields {
			if ast.IsExported(name) {
				public(st + "." + name)
			}
		}
	}
	for key, ok := range fieldUsed {
		owner := key[:strings.LastIndex(key, ".")]
		if !guardedStructs[owner] && owner != "xplace/internal/placer.Options" {
			guard(key, ok)
		}
	}

	declared := map[string]bool{}
	for _, key := range guarded {
		declared[short(key)] = true
		test, listed := allow[short(key)]
		switch {
		case !listed && !called[key]:
			t.Errorf("%s has no non-test caller: give it one, allow-list the test that exercises it, or delete it", short(key))
		case listed && called[key]:
			t.Errorf("%s has a non-test caller now: drop its allow-list entry (%s)", short(key), test)
		}
	}
	for entry, test := range allow {
		if !declared[entry] {
			t.Errorf("allow-list entry %s (%s) is no longer declared", entry, test)
			continue
		}
		if !testMentions(files, test, entry[strings.LastIndex(entry, ".")+1:]) {
			t.Errorf("allow-list entry %s names %s, which is not a _test.go function that mentions it", entry, test)
		}
	}
}

// TestChunkCountStaysInKernel: how a launch is split into chunks is the
// kernel's decision, so per-chunk scratch outside internal/kernel is sized
// by Engine.Chunks or Engine.LineChunks, never by the worker count. The
// only non-test caller of Engine.Workers() outside the kernel is
// internal/serve's xserve_engine_workers gauge, which reports the width.
// Calls are matched by name; the guard first checks that kernel.Engine is
// the only type with a Workers method, which makes the match exact.
func TestChunkCountStaysInKernel(t *testing.T) {
	files := parseModule(t)
	for _, sf := range files {
		for _, d := range sf.f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.Name == "Workers" && !sf.test {
				if owner := indexModule(nil).typeKey(sf, fd.Recv.List[0].Type); owner != "xplace/internal/kernel.Engine" {
					t.Fatalf("%s declares a Workers method: match Engine.Workers() calls by type before trusting this guard", owner)
				}
			}
		}
	}
	for _, sf := range files {
		if sf.test || sf.pkg == "xplace/internal/kernel" || sf.pkg == "xplace/internal/serve" {
			continue
		}
		ast.Inspect(sf.f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && len(call.Args) == 0 {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Workers" {
					t.Errorf("%s: Engine.Workers() called in %s: size per-chunk scratch by Engine.Chunks or Engine.LineChunks",
						sf.fset.Position(sel.Pos()), sf.pkg)
				}
			}
			return true
		})
	}
}

// testMentions reports whether a function named fn in some _test.go file
// references name as an identifier or a selector.
func testMentions(files []*srcFile, fn, name string) bool {
	for _, sf := range files {
		if !sf.test {
			continue
		}
		for _, d := range sf.f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != fn || fd.Body == nil {
				continue
			}
			found := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == name {
					found = true
				}
				return !found
			})
			if found {
				return true
			}
		}
	}
	return false
}

// moduleIndex holds the declarations member uses are resolved against.
// Type keys are "importpath.TypeName", pointers stripped.
type moduleIndex struct {
	fields  map[string]map[string]string // struct -> field -> field type
	results map[string]string            // "path.Func" or "path.Type.Method" -> first result type
}

func indexModule(files []*srcFile) *moduleIndex {
	ix := &moduleIndex{fields: map[string]map[string]string{}, results: map[string]string{}}
	for _, sf := range files {
		if sf.test {
			continue
		}
		for _, d := range sf.f.Decls {
			switch d := d.(type) {
			case *ast.GenDecl:
				for _, s := range d.Specs {
					ts, ok := s.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					fields := map[string]string{}
					for _, fl := range st.Fields.List {
						for _, id := range fl.Names {
							fields[id.Name] = ix.typeKey(sf, fl.Type)
						}
					}
					ix.fields[sf.pkg+"."+ts.Name.Name] = fields
				}
			case *ast.FuncDecl:
				if d.Type.Results == nil {
					continue
				}
				owner := sf.pkg
				if d.Recv != nil {
					owner = ix.typeKey(sf, d.Recv.List[0].Type)
				}
				ix.results[owner+"."+d.Name.Name] = ix.typeKey(sf, d.Type.Results.List[0].Type)
			}
		}
	}
	return ix
}

// typeKey names the type a type expression denotes ("" when it is not a
// possibly-pointer named type).
func (ix *moduleIndex) typeKey(sf *srcFile, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return ix.typeKey(sf, e.X)
	case *ast.ParenExpr:
		return ix.typeKey(sf, e.X)
	case *ast.IndexExpr: // an instantiated generic type
		return ix.typeKey(sf, e.X)
	case *ast.Ident:
		return sf.pkg + "." + e.Name
	case *ast.SelectorExpr:
		if id, ok := e.X.(*ast.Ident); ok && sf.imports[id.Name] != "" {
			return sf.imports[id.Name] + "." + e.Sel.Name
		}
	}
	return ""
}

// uses walks every non-test file and returns the keys of the package-level
// names, fields and methods it references from outside their package.
func (ix *moduleIndex) uses(files []*srcFile) map[string]bool {
	used := map[string]bool{}
	for _, sf := range files {
		if sf.test {
			continue
		}
		use := func(owner, name string) {
			if owner != "" && owner != sf.pkg && !strings.HasPrefix(owner, sf.pkg+".") {
				used[owner+"."+name] = true
			}
		}
		env := map[string]string{} // variable -> type key, reset per function
		var typeOf func(e ast.Expr) string
		typeOf = func(e ast.Expr) string {
			switch e := e.(type) {
			case *ast.ParenExpr:
				return typeOf(e.X)
			case *ast.StarExpr:
				return typeOf(e.X)
			case *ast.UnaryExpr:
				if e.Op == token.AND {
					return typeOf(e.X)
				}
			case *ast.CompositeLit:
				return ix.typeKey(sf, e.Type)
			case *ast.Ident:
				return env[e.Name]
			case *ast.SelectorExpr:
				return ix.fields[typeOf(e.X)][e.Sel.Name]
			case *ast.CallExpr:
				switch fn := e.Fun.(type) {
				case *ast.Ident:
					return ix.results[sf.pkg+"."+fn.Name]
				case *ast.SelectorExpr:
					if id, ok := fn.X.(*ast.Ident); ok && env[id.Name] == "" && sf.imports[id.Name] != "" {
						return ix.results[sf.imports[id.Name]+"."+fn.Sel.Name]
					}
					return ix.results[typeOf(fn.X)+"."+fn.Sel.Name]
				}
			}
			return ""
		}
		declare := func(fl *ast.FieldList) {
			if fl == nil {
				return
			}
			for _, f := range fl.List {
				for _, id := range f.Names {
					env[id.Name] = ix.typeKey(sf, f.Type)
				}
			}
		}
		ast.Inspect(sf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				env = map[string]string{}
				declare(n.Recv)
				declare(n.Type.Params)
			case *ast.FuncLit:
				declare(n.Type.Params)
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					break
				}
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					switch {
					case len(n.Rhs) == len(n.Lhs):
						env[id.Name] = typeOf(n.Rhs[i])
					case i == 0:
						env[id.Name] = typeOf(n.Rhs[0])
					}
				}
			case *ast.ValueSpec:
				for i, id := range n.Names {
					switch {
					case n.Type != nil:
						env[id.Name] = ix.typeKey(sf, n.Type)
					case i < len(n.Values):
						env[id.Name] = typeOf(n.Values[i])
					}
				}
			case *ast.CompositeLit:
				owner := ix.typeKey(sf, n.Type)
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							use(owner, id.Name)
						}
					}
				}
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok && env[id.Name] == "" && sf.imports[id.Name] != "" {
					use(sf.imports[id.Name], n.Sel.Name)
				} else {
					use(typeOf(n.X), n.Sel.Name)
				}
			}
			return true
		})
	}
	return used
}

// refSites records where each name is referenced in non-test code: ident
// by "importpath.Name" for bare identifiers of the file's own package. Each
// site is the key of the top-level function it sits in ("" outside
// functions).
type refSites struct {
	ident map[string]map[string]bool
}

func moduleRefs(ix *moduleIndex, files []*srcFile) *refSites {
	r := &refSites{ident: map[string]map[string]bool{}}
	add := func(m map[string]map[string]bool, name, site string) {
		if m[name] == nil {
			m[name] = map[string]bool{}
		}
		m[name][site] = true
	}
	for _, sf := range files {
		if sf.test {
			continue
		}
		for _, d := range sf.f.Decls {
			site := ""
			var roots []ast.Node
			switch d := d.(type) {
			case *ast.FuncDecl:
				owner := sf.pkg
				if d.Recv != nil {
					owner = ix.typeKey(sf, d.Recv.List[0].Type)
				}
				site = owner + "." + d.Name.Name
				roots = []ast.Node{d.Type}
				if d.Body != nil {
					roots = append(roots, d.Body)
				}
			case *ast.GenDecl:
				roots = []ast.Node{d}
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					ast.Inspect(n.X, visit)
					return false
				case *ast.Field: // parameter and field names declare, not reference
					ast.Inspect(n.Type, visit)
					return false
				case *ast.ValueSpec:
					if n.Type != nil {
						ast.Inspect(n.Type, visit)
					}
					for _, v := range n.Values {
						ast.Inspect(v, visit)
					}
					return false
				case *ast.Ident:
					add(r.ident, sf.pkg+"."+n.Name, site)
				}
				return true
			}
			for _, root := range roots {
				ast.Inspect(root, visit)
			}
		}
	}
	return r
}

// outside reports whether some site other than the name's own
// declaration references it.
func (r *refSites) outside(sites map[string]bool, self string) bool {
	for s := range sites {
		if s != self {
			return true
		}
	}
	return false
}

// typedMembers type-checks the module's non-test code (the files the
// default build context selects) with go/types, the standard library from
// source. It returns the keys ("importpath.Type.Method") of the methods of
// module types that a caller reaches: ones some non-test code references,
// by receiver type, outside the method's own declaration, and ones by which
// a module type — the method's own or one it is promoted to — implements an
// interface the module can reach: error, the Unwrap interface errors.Is and
// errors.As assert, every named interface of the module, every exported one
// of the packages it imports, and every interface whose method non-test
// code calls. It also returns, keyed "importpath.Type.Field", every
// exported, untagged, named field of the module's package-level struct
// types, mapped to whether non-test code references it.
func typedMembers(t *testing.T, files []*srcFile) (methods, fields map[string]bool) {
	t.Helper()
	byPkg := map[string][]*ast.File{}
	fset := files[0].fset // parseModule parses every file into one set
	for _, sf := range files {
		name := sf.fset.Position(sf.f.Package).Filename
		if ok, err := build.Default.MatchFile(filepath.Dir(name), filepath.Base(name)); sf.test || err != nil || !ok {
			continue
		}
		byPkg[sf.pkg] = append(byPkg[sf.pkg], sf.f)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	imp := &moduleImporter{fset: fset, files: byPkg, info: info,
		std: importer.ForCompiler(fset, "source", nil), done: map[string]*types.Package{}}
	for p := range byPkg {
		if _, err := imp.Import(p); err != nil {
			t.Fatalf("type-checking %s: %v", p, err)
		}
	}

	// Every interface in reach, indexed by method name.
	ifaces := map[string][]*types.Interface{}
	addIface := func(it *types.Interface) {
		if it.IsMethodSet() {
			for i := 0; i < it.NumMethods(); i++ {
				ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
			}
		}
	}

	called := map[string]bool{}
	usedFields := map[*types.Var]bool{}
	for _, fs := range byPkg {
		for _, f := range fs {
			for _, d := range f.Decls {
				site := ""
				if fd, ok := d.(*ast.FuncDecl); ok {
					if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
						site = methodKey(fn)
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
							usedFields[v.Origin()] = true
						}
						if fn, ok := info.Uses[id].(*types.Func); ok {
							if key := methodKey(fn); key != "" && key != site {
								called[key] = true
							}
							if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
								if it, ok := recv.Type().Underlying().(*types.Interface); ok {
									addIface(it)
								}
							}
						}
					}
					return true
				})
			}
		}
	}

	addNamed := func(tn *types.TypeName) {
		if named, ok := tn.Type().(*types.Named); ok && named.TypeParams() == nil {
			if it, ok := named.Underlying().(*types.Interface); ok {
				addIface(it)
			}
		}
	}
	errType := types.Universe.Lookup("error")
	addNamed(errType.(*types.TypeName))
	unwrap := types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "", errType.Type())), false)
	addIface(types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap", unwrap)}, nil).Complete())
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		_, inModule := byPkg[p.Path()]
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && (inModule || tn.Exported()) {
				addNamed(tn)
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for p := range byPkg {
		walk(imp.done[p])
	}
	fields = map[string]bool{}
	for p := range byPkg {
		scope := imp.done[p].Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if st, ok := named.Underlying().(*types.Struct); ok && !tn.IsAlias() {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() && !f.Embedded() && st.Tag(i) == "" {
						fields[p+"."+name+"."+f.Name()] = usedFields[f]
					}
				}
			}
			if named.TypeParams() != nil || types.IsInterface(named) {
				continue
			}
			// The pointer's method set holds the value's, and the methods
			// promoted from embedded fields.
			ptr := types.NewPointer(named)
			ms := types.NewMethodSet(ptr)
			for i := 0; i < ms.Len(); i++ {
				m := ms.At(i).Obj().(*types.Func)
				for _, it := range ifaces[m.Name()] {
					if types.Implements(ptr, it) {
						called[methodKey(m)] = true
						break
					}
				}
			}
		}
	}
	return called, fields
}

// methodKey names a method "importpath.Type.Method" ("" for a function or
// a method of an unnamed or universe type).
func methodKey(fn *types.Func) string {
	fn = fn.Origin()
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
}

// moduleImporter type-checks the module's packages from the parsed files,
// once each and into one Info, and imports everything else with std.
type moduleImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	info  *types.Info
	std   types.Importer
	done  map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.done[path]; ok {
		return p, nil
	}
	files, ok := m.files[path]
	if !ok {
		return m.std.Import(path)
	}
	conf := types.Config{Importer: m}
	p, err := conf.Check(path, m.fset, files, m.info)
	m.done[path] = p
	return p, err
}
