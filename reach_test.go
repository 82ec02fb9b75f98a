package gfc_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// testSupport lists what a non-test file declares for a test on purpose: the
// single escape hatch of TestNoTestOnlyDeclarations. An entry names a
// declaration (pkg.Name, pkg.Type.Method) or a field (pkg.Type.Field), covers
// the methods and fields of a type it names, and says which test needs it and why it
// cannot live in that _test.go.
var testSupport = map[string]string{
	"core.ContinuousMapping.SteadyQueue": "the paper's B_s closed form (75 KB in Figure 5): the reference ExampleContinuousMapping and TestPublicAPIMath (the facade), core's fixed-point property and package fluid's steady-state tests compare against — four test files in three packages cannot share a _test.go helper",
	"core.OverheadModel":                 "the paper's §4.2 closed forms m/τ and m/8τ: BenchmarkOverheadModel (package gfc_test) regenerates EXPERIMENTS.md's row from them and core's TestOverheadModelPaperValues pins them, in two packages",
	"eventsim.Engine.RunAll":             "drains an engine in one call: the driver of every eventsim and flowcontrol unit test, in two packages",
	"eventsim.Engine.LaneStats":          "the lane-share guards (scenario's TestLaneShareAcrossCatalogue, experiments' TestLaneShareOfSweepCell) read the engine's private counters from outside its package",
	"flowcontrol.GFCBufferConfig.Ratio":  "the per-stage rate ratio: every run uses the paper's 1/2 (equation 4), and BenchmarkAblationStageRatio (package gfc_test) compares it with the other ratios equation (3) allows",
	"fluid.Config.Step":                  "the single-queue solver's step: its one program (benchmark/'s fluid.run_single_us rung) takes the 100 ns default, and TestRunHistBoundary sweeps it against τ",
	"fluid.Config.Horizon":               "the single-queue solver's horizon: its one program takes the 5 ms default, while TestRunHistBoundary sweeps it against τ and RequiredBuffer (TestRequiredBufferMatchesTheorem) scales it to 100τ",
	"metrics.Registry.Ceiling":           "scenario's TestBackendsInstallSameCeilings and compareResolution read back what each backend installed on every channel, idle ones included, which no report carries; they live outside package metrics",
	"netsim.Packet.Seq":                  "netsim's traceHash (TestTraceDeterminism, TestTraceDeterminismUnderParallelRunner) folds every packet's sequence number into the determinism hash, so a reordering inside one flow moves it; only the host NIC can stamp it",
	"netsim.Trace.OnTransmit":            "the same hash folds every serialisation instant (and TestPacketHelpers watches packets leave); only completeTx knows the instant, and it can only tell a test through the Trace the network already carries",
	"routing.UpDown":                     "the §8 Up*/Down* baseline is library API (gfc.NewUpDown) that no program prints: ExampleNewUpDown (package gfc_test) checks its path stretch, and routing's updown tests its paths and their acyclic CBD",
}

// supportEntry returns the testSupport entry covering id — its own, or that
// of the type declaring the method or field id names — and whether one does.
func supportEntry(id string) (string, bool) {
	for ; ; id = id[:strings.LastIndex(id, ".")] {
		if _, ok := testSupport[id]; ok {
			return id, true
		}
		if strings.Count(id, ".") < 2 {
			return "", false
		}
	}
}

// TestNoTestOnlyDeclarations is the function-level twin of CI's orphan-package
// gate, typed: one go/types pass over the module (standard library only; the
// "source" importer reads GOROOT/src, so it needs what `go test` needs) that
// holds every non-test file to four rules — no declaration only tests
// reference, no field only tests read, no option only tests set, no option
// every run sets alike.
//
//  1. Every declaration — function, method, interface method, type, variable,
//     constant — is referenced from a program: cmd/, benchmark/ or the facade
//     gfc.go, directly or through other referenced declarations. A
//     method also lives when its type does and it satisfies an interface
//     method something live calls (or any interface of the standard library).
//  2. Every struct field is read: by non-test code; by a test, when it is an
//     exported field of a type the package's exported functions return; by an
//     encoder its struct is handed to; or as part of a map key. A field that
//     is only stored to is a cost on every store and a question for every
//     reader that no output depends on.
//  3. Every field that is read is written by non-test code or by a decoder. A
//     field only a _test.go sets is a constant zero in every run, the branch
//     that reads it is dead, and the "option" is one nothing can choose.
//  4. No exported field of an exported type outside cmd/ and benchmark/ is a
//     constant in disguise: one every non-test write stores the same
//     compile-time constant to — a composite-literal element, or a default
//     fill (`x.f = c` under an if that tests x.f for its zero value, alone
//     or inside && and ||); a keyed literal that omits the field stores its
//     zero, unless a default fill puts the constant back. A write from a
//     program, a decoder or any non-constant store makes it a real knob.
//     Otherwise every run holds it at one value, and the options, fills and
//     copies around it are code a reader must trace to learn a constant.
//
// What it reports is deleted — with every write to it and every branch that
// read it — or, for rule 4, made a package constant every reader names; a
// reference implementation moves into the _test.go that compares against it.
func TestNoTestOnlyDeclarations(t *testing.T) {
	module, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	name := strings.Fields(string(module))[1]
	findings, err := reachCheck(os.DirFS("."), name)
	if err != nil {
		t.Fatal(err)
	}
	support := map[string]bool{}
	var report []string
	for _, f := range findings {
		if entry, ok := supportEntry(f.id); ok {
			support[entry] = true
			continue
		}
		report = append(report, f.String())
	}
	for id := range testSupport {
		if !support[id] {
			t.Errorf("%s is listed as test support but passes every rule (or is no longer declared) — drop the entry", id)
		}
	}
	if len(report) > 0 {
		t.Errorf("%d findings (roots: cmd/, benchmark/, gfc.go) — delete each with every write to it, every branch that "+
			"read it and the test that only tested it, or move it into the _test.go that uses it as a reference:\n  %s",
			len(report), strings.Join(report, "\n  "))
	}
}

// A finding is one declaration or field that breaks a rule.
type finding struct {
	rule int
	id   string // pkg.Name, pkg.Type.Method or pkg.Type.Field
	pos  token.Position
	why  string
}

func (f finding) String() string {
	return fmt.Sprintf("%s: rule %d: %s %s", f.pos, f.rule, f.id, f.why)
}

// reachFile is one parsed source file and the role its path gives it.
type reachFile struct {
	ast      *ast.File
	test     bool // *_test.go
	external bool // package foo_test
	program  bool // a root of rule 1
}

// reachDecl is a declaration of a non-test file: a node of rule 1's graph.
type reachDecl struct {
	id    string
	pos   token.Pos
	owner types.Object // the type of a method or interface method
	refs  map[types.Object]bool
	root  bool
	live  bool
}

// fieldUse is what the module does with one struct field.
type fieldUse struct {
	id                  string
	v                   *types.Var
	owner               types.Object
	read, testRead      bool
	written             bool
	encoded, decoded    bool // handed to an encoder / filled by a decoder
	mapKey, resultField bool

	// Rule 4: the constants non-test code stores to the field, whether a
	// keyed literal leaves it out and a default fill puts one back, and
	// whether anything else — a program, a non-constant store — writes it.
	consts          []constant.Value
	omitted, filled bool
	varies          bool
}

var (
	reachFset = token.NewFileSet()
	// reachStd type-checks the standard library from source, once per test
	// binary.
	reachStd = importer.ForCompiler(reachFset, "source", nil).(types.ImporterFrom)
)

// reach is one module, loaded and type-checked with its tests.
type reach struct {
	fsys   fs.FS
	module string
	dirs   map[string][]*reachFile
	pkgs   map[string]*types.Package
	info   *types.Info
	conf   types.Config
	errs   []string

	decls  map[types.Object]*reachDecl
	fields map[*types.Var]*fieldUse
	ifaces []*types.Interface
	wire   []types.Type // struct types that declare json field tags
}

// reachCheck loads every package of module under fsys and returns what the
// four rules report, sorted by position.
func reachCheck(fsys fs.FS, module string) ([]finding, error) {
	r := &reach{
		fsys: fsys, module: module,
		dirs: map[string][]*reachFile{}, pkgs: map[string]*types.Package{},
		info: &types.Info{
			Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{}, Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		decls: map[types.Object]*reachDecl{}, fields: map[*types.Var]*fieldUse{},
	}
	r.conf = types.Config{Importer: r, Error: func(err error) { r.errs = append(r.errs, err.Error()) }}
	if err := r.load(); err != nil {
		return nil, err
	}
	if len(r.errs) > 0 {
		return nil, fmt.Errorf("type errors:\n  %s", strings.Join(r.errs, "\n  "))
	}
	r.declare()
	r.propagate()
	r.fieldUses()

	var out []finding
	report := func(rule int, id string, pos token.Pos, why string) {
		out = append(out, finding{rule, id, reachFset.Position(pos), why})
	}
	dead := func(o types.Object) bool { d := r.decls[o]; return d != nil && !d.live }
	for _, d := range r.decls {
		// A dead type is reported once, not once per method.
		if !d.live && !(d.owner != nil && dead(d.owner)) {
			report(1, d.id, d.pos, "is referenced from no program")
		}
	}
	for _, f := range r.fields {
		isRead := f.read || f.encoded || f.mapKey || f.testRead && f.resultField && f.v.Exported()
		switch {
		case f.v.Name() == "_" || dead(f.owner):
		case !isRead && f.written:
			report(2, f.id, f.v.Pos(), "is written and never read")
		case !isRead:
			report(2, f.id, f.v.Pos(), "is never used")
		case !f.written && !f.decoded:
			report(3, f.id, f.v.Pos(), "is read, and set by no non-test code and no decoder")
		case f.v.Exported() && f.owner.Exported() && !r.program(f.owner.Pkg()):
			if c := f.constant(); c != nil {
				report(4, f.id, f.v.Pos(), "is a constant in disguise: every non-test write stores "+c.String())
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].pos, out[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return out, nil
}

// load parses every .go file the build would take and type-checks each
// directory's package together with its in-package tests, then its external
// test package.
func (r *reach) load() error {
	ctxt := build.Default
	ctxt.OpenFile = func(name string) (io.ReadCloser, error) { return r.fsys.Open(name) }
	err := fs.WalkDir(r.fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != "." && (strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") || n == "testdata") {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		if ok, err := ctxt.MatchFile(path.Dir(p), path.Base(p)); err != nil || !ok {
			return err
		}
		src, err := fs.ReadFile(r.fsys, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(reachFset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		top := strings.Split(p, "/")[0]
		r.dirs[path.Dir(p)] = append(r.dirs[path.Dir(p)], &reachFile{
			ast: f, test: strings.HasSuffix(p, "_test.go"), external: strings.HasSuffix(f.Name.Name, "_test"),
			program: top == "cmd" || top == "benchmark" || p == "gfc.go",
		})
		return nil
	})
	if err != nil {
		return err
	}
	for dir := range r.dirs {
		if _, err := r.Import(path.Join(r.module, dir)); err != nil {
			return err
		}
		var ext []*ast.File
		for _, f := range r.dirs[dir] {
			if f.external {
				ext = append(ext, f.ast)
			}
		}
		if len(ext) > 0 {
			r.conf.Check(path.Join(r.module, dir)+"_test", reachFset, ext, r.info)
		}
	}
	return nil
}

// Import is the types.Importer of the load: a package of the module is
// checked from r.dirs, once, so that every importer sees the same objects;
// anything else is the standard library's.
func (r *reach) Import(pkg string) (*types.Package, error) {
	if pkg != r.module && !strings.HasPrefix(pkg, r.module+"/") {
		return reachStd.ImportFrom(pkg, "", 0)
	}
	if p, ok := r.pkgs[pkg]; ok {
		return p, nil
	}
	dir := strings.TrimPrefix(strings.TrimPrefix(pkg, r.module), "/")
	if dir == "" {
		dir = "."
	}
	var files []*ast.File
	for _, f := range r.dirs[dir] {
		if !f.external {
			files = append(files, f.ast)
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files for %s", pkg)
	}
	p, _ := r.conf.Check(pkg, reachFset, files, r.info) // errors arrive through conf.Error
	r.pkgs[pkg] = p
	return p, nil
}

// origin maps the field or method of an instantiated generic type back to
// the one its declaration defines.
func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Var:
		return o.Origin()
	case *types.Func:
		return o.Origin()
	}
	return o
}

// declare collects rule 1's nodes and edges — every declaration of a non-test
// file with the objects its source mentions — and rules 2–4's subjects, the
// fields of every struct type such a file declares.
func (r *reach) declare() {
	for _, files := range r.dirs {
		for _, f := range files {
			if f.test {
				continue
			}
			pkg := f.ast.Name.Name
			add := func(name *ast.Ident, id string, owner types.Object, body ast.Node) {
				d := &reachDecl{
					id: pkg + "." + id, pos: name.Pos(), owner: owner, refs: map[types.Object]bool{},
					// Programs are the roots; so is what the runtime or a
					// blank assignment runs without naming it.
					root: f.program || name.Name == "init" || name.Name == "_",
				}
				if body != nil {
					ast.Inspect(body, func(n ast.Node) bool {
						if use, ok := n.(*ast.Ident); ok && r.info.Uses[use] != nil {
							d.refs[origin(r.info.Uses[use])] = true
						}
						return true
					})
				}
				r.decls[r.info.Defs[name]] = d // go/types defines an object for func init and var _ too
			}
			for _, gd := range f.ast.Decls {
				switch gd := gd.(type) {
				case *ast.FuncDecl:
					id, owner := gd.Name.Name, types.Object(nil)
					if fn, _ := r.info.Defs[gd.Name].(*types.Func); fn != nil && gd.Recv != nil {
						if named := receiver(fn); named != nil {
							id, owner = named.Obj().Name()+"."+id, named.Obj()
						}
					}
					add(gd.Name, id, owner, gd)
				case *ast.GenDecl:
					for _, spec := range gd.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(s.Name, s.Name.Name, nil, s)
							if it, ok := s.Type.(*ast.InterfaceType); ok {
								for _, m := range it.Methods.List {
									for _, name := range m.Names {
										add(name, s.Name.Name+"."+name.Name, r.info.Defs[s.Name], nil)
									}
								}
							}
						case *ast.ValueSpec:
							for _, name := range s.Names {
								add(name, name.Name, nil, s)
							}
						}
					}
				}
			}
			ast.Inspect(f.ast, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if st, ok := n.Type.(*ast.StructType); ok {
						r.declareFields(pkg+"."+n.Name.Name, r.info.Defs[n.Name], st)
					}
				case *ast.InterfaceType:
					if it, ok := r.info.TypeOf(n).(*types.Interface); ok {
						r.ifaces = append(r.ifaces, it)
					}
				}
				return true
			})
		}
	}
}

// declareFields registers the fields of one struct type, and of the anonymous
// struct types nested in it, under dotted names.
func (r *reach) declareFields(prefix string, owner types.Object, st *ast.StructType) {
	for _, field := range st.Fields.List {
		if field.Tag != nil && strings.Contains(field.Tag.Value, `json:"`) {
			r.wire = append(r.wire, r.info.TypeOf(st))
		}
		for _, name := range field.Names {
			if v, ok := r.info.Defs[name].(*types.Var); ok {
				r.fields[v] = &fieldUse{id: prefix + "." + name.Name, v: v, owner: owner}
			}
			if inner, ok := field.Type.(*ast.StructType); ok {
				r.declareFields(prefix+"."+name.Name, owner, inner)
			}
		}
	}
}

// receiver is the named type a method is declared on.
func receiver(fn *types.Func) *types.Named {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// propagate marks what rule 1's roots reach: through references, and through
// interfaces — a live type's method is live once it implements a live
// interface method. Interface methods declared outside the module (fmt.Stringer,
// sort.Interface, json.Marshaler, …) count as called.
func (r *reach) propagate() {
	var queue []*reachDecl
	mark := func(o types.Object) bool {
		d := r.decls[o]
		if d == nil || d.live {
			return false
		}
		d.live = true
		queue = append(queue, d)
		return true
	}
	for o, d := range r.decls {
		if d.root {
			mark(o)
		}
	}

	ifaces := r.ifaces
	seen := map[*types.Package]bool{}
	var std func(p *types.Package)
	std = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			std(imp)
		}
	}
	for _, p := range r.pkgs {
		for _, imp := range p.Imports() {
			if r.pkgs[imp.Path()] == nil {
				std(imp)
			}
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	// What package errors calls through interfaces it does not export.
	protocol, err := parser.ParseFile(reachFset, "errors_protocol.go", `package p
		type ( U interface{ Unwrap() error }; I interface{ Is(error) bool }; A interface{ As(any) bool } )`, 0)
	if err != nil {
		panic(err)
	}
	p, err := new(types.Config).Check("p", reachFset, []*ast.File{protocol}, nil)
	if err != nil {
		panic(err)
	}
	for _, name := range p.Scope().Names() {
		ifaces = append(ifaces, p.Scope().Lookup(name).Type().Underlying().(*types.Interface))
	}

	for changed := true; changed; {
		for len(queue) > 0 {
			d := queue[0]
			queue = queue[1:]
			for o := range d.refs {
				mark(o)
			}
		}
		changed = false
		for o, d := range r.decls {
			tn, ok := o.(*types.TypeName)
			if !ok || !d.live || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
				continue
			}
			ptr := types.NewPointer(named)
			for _, it := range ifaces {
				if !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					if md := r.decls[m]; md != nil && !md.live {
						continue
					}
					impl, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
					if impl != nil && mark(origin(impl)) {
						changed = true
					}
				}
			}
		}
	}
}

// fieldUses walks every file, tests included, and records how each field is
// used.
func (r *reach) fieldUses() {
	for _, files := range r.dirs {
		for _, f := range files {
			r.fileFieldUses(f)
		}
	}
	// A struct with json field tags declares a wire format: its values reach
	// the encoder through `any` (runner.Store.Record, a writeJSON helper),
	// where no static type survives for the call-site rule to see.
	for _, t := range r.wire {
		r.reachFields(t, true, func(fu *fieldUse) { fu.encoded = true })
	}
}

func (r *reach) fileFieldUses(f *reachFile) {
	use := func(o types.Object, read, write bool) {
		v, _ := o.(*types.Var)
		if v == nil {
			return
		}
		fu := r.fields[v.Origin()]
		if fu == nil {
			return
		}
		if read && f.test {
			fu.testRead = true
		} else if read {
			fu.read = true
		}
		if write && !f.test {
			fu.written = true
		}
	}
	var stack []ast.Node
	ast.Inspect(f.ast, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if v, ok := r.info.Uses[n.Sel].(*types.Var); ok && v.IsField() {
				read, write := r.access(n, stack)
				use(v, read, write)
				if write && !f.test {
					c := r.fill(n, v, stack)
					r.store(f, v, c, c != nil)
				}
				// x.f with f promoted from embedded fields reads each of them.
				if sel := r.info.Selections[n]; sel != nil && len(sel.Index()) > 1 {
					t := sel.Recv()
					for _, i := range sel.Index()[:len(sel.Index())-1] {
						field := structOf(t).Field(i)
						use(field, true, false)
						t = field.Type()
					}
				}
			}
		case *ast.CompositeLit:
			st := structOf(r.info.TypeOf(n))
			if st == nil {
				break
			}
			keyed, named := len(n.Elts) == 0, map[types.Object]bool{}
			for i, e := range n.Elts {
				var field types.Object
				if kv, ok := e.(*ast.KeyValueExpr); !ok {
					field = st.Field(i)
				} else if key, ok := kv.Key.(*ast.Ident); ok {
					field, e, keyed = r.info.Uses[key], kv.Value, true
				}
				use(field, false, true)
				named[field] = true
				if !f.test {
					r.store(f, field, r.info.Types[e].Value, false)
				}
			}
			// A keyed literal stores the zero value to every field it omits.
			for i := 0; keyed && !f.test && i < st.NumFields(); i++ {
				if fu := r.fields[st.Field(i).Origin()]; fu != nil && !named[st.Field(i)] {
					fu.omitted = true
				}
			}
		case *ast.CallExpr:
			// json.Marshal(v), enc.Encode(v): every exported field v's type
			// reaches is read; json.Unmarshal(b, &v), dec.Decode(&v): written.
			fn := r.callee(n)
			if f.test || fn == nil || fn.Pkg() == nil || !strings.HasPrefix(fn.Pkg().Path(), "encoding/") {
				break
			}
			encodes := strings.HasPrefix(fn.Name(), "Marshal") || fn.Name() == "Encode"
			decodes := fn.Name() == "Unmarshal" || fn.Name() == "Decode"
			for _, arg := range n.Args {
				r.reachFields(r.info.TypeOf(arg), true, func(fu *fieldUse) {
					fu.encoded = fu.encoded || encodes
					fu.decoded = fu.decoded || decodes
				})
			}
		case *ast.FuncDecl:
			// The exported fields of what an exported function returns are
			// the package's output: a test that reads one is its consumer.
			fn, _ := r.info.Defs[n.Name].(*types.Func)
			if f.test || f.program || fn == nil || !fn.Exported() {
				break
			}
			if n.Recv != nil {
				if named := receiver(fn); named == nil || !named.Obj().Exported() {
					break
				}
			}
			res := fn.Type().(*types.Signature).Results()
			for i := 0; i < res.Len(); i++ {
				r.reachFields(res.At(i).Type(), true, func(fu *fieldUse) { fu.resultField = true })
			}
		}
		if e, ok := n.(ast.Expr); ok && !f.test && r.info.TypeOf(e) != nil {
			if m, ok := r.info.TypeOf(e).Underlying().(*types.Map); ok {
				r.reachFields(m.Key(), false, func(fu *fieldUse) { fu.mapKey = true })
			}
		}
		stack = append(stack, n)
		return true
	})
}

// access classifies one mention x.f of a field from the syntax around it
// (stack holds the enclosing nodes, innermost last). Storing to f, to an
// element of f or to a field of a struct-valued f is a write; so is f += v,
// whose read only feeds the store back, and f = append(f, v). &x.f is both.
// Everything else — including the load of a pointer to store through it — is
// a read.
func (r *reach) access(sel ast.Expr, stack []ast.Node) (read, write bool) {
	cur := sel
	selfUpdate := func(i int, rhs ast.Expr) bool {
		if i == 0 {
			return false
		}
		as, ok := stack[i-1].(*ast.AssignStmt)
		return ok && len(as.Lhs) == 1 && as.Rhs[0] == rhs && types.ExprString(as.Lhs[0]) == types.ExprString(cur)
	}
	for i := len(stack) - 1; i >= 0; i-- {
		_, viaPointer := r.info.TypeOf(cur).Underlying().(*types.Pointer)
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			cur = p
			continue
		case *ast.IndexExpr:
			if p.X == cur && !viaPointer {
				cur = p
				continue
			}
		case *ast.SelectorExpr:
			if p.X != cur || viaPointer {
				break
			}
			switch o := r.info.Uses[p.Sel].(type) {
			case *types.Var: // x.f.g
				cur = p
				continue
			case *types.Func: // x.f.Lock(): the method may store through &x.f
				if _, ok := o.Type().(*types.Signature).Recv().Type().(*types.Pointer); ok {
					return true, true
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range p.Lhs {
				if lhs == cur {
					return false, true
				}
			}
		case *ast.IncDecStmt:
			return false, true
		case *ast.RangeStmt:
			if p.Key == cur || p.Value == cur {
				return false, true
			}
		case *ast.UnaryExpr:
			if p.Op == token.AND {
				return true, true
			}
		case *ast.CallExpr:
			if id, ok := p.Fun.(*ast.Ident); ok && id.Name == "append" && p.Args[0] == cur && selfUpdate(i, p) {
				return false, false
			}
		case *ast.SliceExpr:
			if p.X == cur && selfUpdate(i, p) {
				return false, false
			}
		}
		return true, false
	}
	return true, false
}

// store records for rule 4 one write to field o by non-test file f: of the
// constant c, by a default fill when fill is set, or, when c is nil, of a
// value that can vary.
func (r *reach) store(f *reachFile, o types.Object, c constant.Value, fill bool) {
	v, _ := o.(*types.Var)
	if v == nil || r.fields[v.Origin()] == nil {
		return
	}
	fu := r.fields[v.Origin()]
	if f.program || c == nil {
		fu.varies = true
		return
	}
	fu.consts = append(fu.consts, c)
	fu.filled = fu.filled || fill
}

// fill is the constant a default fill stores to field v at sel — `sel = c`
// inside an if whose condition compares v with its zero value — or nil.
func (r *reach) fill(sel *ast.SelectorExpr, v *types.Var, stack []ast.Node) constant.Value {
	as, ok := stack[len(stack)-1].(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
		return nil
	}
	var c constant.Value
	for i, lhs := range as.Lhs {
		if lhs == sel {
			c = r.info.Types[as.Rhs[i]].Value
		}
	}
	for i := len(stack) - 2; c != nil && i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return nil
		case *ast.IfStmt:
			if stack[i+1] == p.Body && r.zeroTest(p.Cond, v) {
				return c
			}
		}
	}
	return nil
}

// zeroTest reports whether cond tests field v for its zero value (v == 0,
// v <= 0, v < 0), alone or as an operand of && and ||.
func (r *reach) zeroTest(cond ast.Expr, v *types.Var) bool {
	b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	switch {
	case !ok:
		return false
	case b.Op == token.LAND || b.Op == token.LOR:
		return r.zeroTest(b.X, v) || r.zeroTest(b.Y, v)
	case b.Op != token.EQL && b.Op != token.LEQ && b.Op != token.LSS:
		return false
	}
	sel, ok := ast.Unparen(b.X).(*ast.SelectorExpr)
	c, zero := r.info.Types[b.Y].Value, zeroOf(v.Type())
	return ok && origin(r.info.Uses[sel.Sel]) == v.Origin() && c != nil && zero != nil && constant.Compare(c, token.EQL, zero)
}

// constant is the one value every non-test write stores to the field, or nil
// when there are two, or one that can vary, or a decoder fills it.
func (f *fieldUse) constant() constant.Value {
	if f.varies || f.decoded {
		return nil
	}
	values := f.consts
	if f.omitted && !f.filled {
		values = append(values, zeroOf(f.v.Type()))
	}
	if len(values) == 0 || values[0] == nil {
		return nil
	}
	for _, c := range values[1:] {
		if c == nil || !constant.Compare(c, token.EQL, values[0]) {
			return nil
		}
	}
	return values[0]
}

// zeroOf is the zero value of t as a constant, or nil if t has no constants.
func zeroOf(t types.Type) constant.Value {
	b, _ := t.Underlying().(*types.Basic)
	switch {
	case b == nil:
		return nil
	case b.Info()&types.IsBoolean != 0:
		return constant.MakeBool(false)
	case b.Info()&types.IsString != 0:
		return constant.MakeString("")
	case b.Info()&types.IsNumeric != 0:
		return constant.MakeInt64(0)
	}
	return nil
}

// program reports whether p lives under cmd/ or benchmark/.
func (r *reach) program(p *types.Package) bool {
	top := strings.Split(strings.TrimPrefix(strings.TrimPrefix(p.Path(), r.module), "/"), "/")[0]
	return top == "cmd" || top == "benchmark"
}

// callee is the function or method a call statically names.
func (r *reach) callee(call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := r.info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := r.info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// structOf is the struct type behind t or *t, or nil.
func structOf(t types.Type) *types.Struct {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

// reachFields visits the fields of every struct a value of type t holds. With
// deep set it follows pointers, slices and maps and keeps to what
// encoding/json would: exported and embedded fields not tagged json:"-".
// Without, it stays inside the value itself — what == and a map hash read.
func (r *reach) reachFields(t types.Type, deep bool, visit func(*fieldUse)) {
	seen := map[types.Type]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			if deep {
				walk(u.Elem())
			}
		case *types.Slice:
			if deep {
				walk(u.Elem())
			}
		case *types.Map:
			if deep {
				walk(u.Key())
				walk(u.Elem())
			}
		case *types.Array:
			walk(u.Elem())
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				v := u.Field(i)
				if deep && (!v.Exported() && !v.Embedded() || reflect.StructTag(u.Tag(i)).Get("json") == "-") {
					continue
				}
				if fu := r.fields[v.Origin()]; fu != nil {
					visit(fu)
				}
				walk(v.Type())
			}
		}
	}
	walk(t)
}
