package chrysalis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names the non-test declarations no product root
// reaches that stay as code, keyed "import/path.Name" or
// "import/path.Type.Method", with the reason. An entry belongs here
// only when tests in more than one package use the declaration, as a
// helper or as the reference they compare against; a declaration that
// one package's tests need lives in that package's _test.go files. What
// an entry calls is kept with it.
var reachAllowlist = map[string]string{
	"chrysalis/internal/units.ApproxEqual":                    "the relative-tolerance comparison of the dataflow, energy, intermittent, pmic, sim, solar, storage, thermal and units tests",
	"chrysalis/internal/energy.Subsystem.AvailablePerCycle":   "the paper's Eq. 3 closed form (with storage.CycleEnergy), the reference the energy tests and sim's TestHugeCapacitorLeakageUnavailability compare against",
	"chrysalis/internal/msp430.Config.ActivePower":            "the fixed MSP430 load the sim, audit and root-package benchmark tests plan against",
	"chrysalis/internal/intermittent.FixedBudget":             "the fixed per-cycle budget the intermittent, sim, audit and root-package benchmark tests plan against",
	"chrysalis/internal/intermittent.Ladder.MinFeasibleIndex": "the eager-ladder budget scan, the oracle of the intermittent ladder tests and explore's ladderset_test.go",
	"chrysalis/internal/wal.Log.Records":                      "the record count since the last snapshot, read by the wal tests and by serve's persist_test.go to check compaction",
}

// TestProductReachability fails when a non-test declaration of this
// module is reached from no product root. The roots are main and init
// of every command and example, the benchmark module's non-test files
// (perfbench/), the exported names of this package and every init
// function. A method of a reached type counts as reached when an
// interface in the loaded code, the standard library included, has a
// method of that name: it may be called through the interface.
func TestProductReachability(t *testing.T) {
	g, err := loadReachGraph(".")
	if err != nil {
		t.Fatal(err)
	}
	g.reach(g.roots...)
	var kept []ast.Node
	for key := range reachAllowlist {
		d, ok := g.byKey[key]
		switch {
		case !ok:
			t.Errorf("allowlist entry %s names no declaration", key)
		case g.reached[d.obj]:
			t.Errorf("allowlist entry %s is reached by the product; drop it", key)
		default:
			g.reached[d.obj] = true
			kept = append(kept, d.node)
		}
	}
	g.reach(kept...)
	var bad []string
	for _, d := range g.unreached() {
		bad = append(bad, fmt.Sprintf("%s (%s, %d lines)", d.key, d.pos, d.lines))
	}
	if len(bad) > 0 {
		t.Errorf("%d declarations are reached from no product root; delete them, or move them into the _test.go files that use them:\n\t%s",
			len(bad), strings.Join(bad, "\n\t"))
	}
}

// reachDecl is one package-level declaration or method of the module.
type reachDecl struct {
	obj   types.Object
	key   string
	pos   token.Position
	lines int      // with the doc comment
	node  ast.Node // walked for the declarations it references
}

type reachPkg struct {
	path  string
	name  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

type reachGraph struct {
	fset    *token.FileSet
	module  string
	pkgs    map[string]*reachPkg
	pkgOf   map[ast.Node]*reachPkg // every root and declaration node
	decls   map[types.Object]*reachDecl
	byKey   map[string]*reachDecl
	roots   []ast.Node
	ifaces  map[string]bool // method names of every interface seen
	reached map[types.Object]bool
	queue   []*reachDecl
}

// loadReachGraph parses and type-checks every package of the module
// rooted at root, the benchmark module in root/perfbench included, and
// records their declarations and the product roots among them.
func loadReachGraph(root string) (*reachGraph, error) {
	g := &reachGraph{
		fset:    token.NewFileSet(),
		module:  "chrysalis",
		pkgs:    map[string]*reachPkg{},
		pkgOf:   map[ast.Node]*reachPkg{},
		decls:   map[types.Object]*reachDecl{},
		byKey:   map[string]*reachDecl{},
		ifaces:  map[string]bool{"Error": true}, // the predeclared error
		reached: map[types.Object]bool{},
	}
	dirs := map[string]string{} // import path -> directory
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if base := d.Name(); p != root && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		if rel == "." {
			dirs[g.module] = p
		} else {
			dirs[g.module+"/"+filepath.ToSlash(rel)] = p
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	std := importer.ForCompiler(g.fset, "source", nil)
	var load func(path string) (*reachPkg, error)
	load = func(path string) (*reachPkg, error) {
		if p, ok := g.pkgs[path]; ok {
			if p.types == nil {
				return nil, fmt.Errorf("import cycle through %s", path)
			}
			return p, nil
		}
		dir, ok := dirs[path]
		if !ok {
			return nil, fmt.Errorf("no directory for %s", path)
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			return nil, err
		}
		p := &reachPkg{path: path, name: bp.Name}
		g.pkgs[path] = p
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(g.fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, f)
		}
		p.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: importerFunc(func(ip string) (*types.Package, error) {
			if ip != g.module && !strings.HasPrefix(ip, g.module+"/") {
				return std.Import(ip)
			}
			q, err := load(ip)
			if err != nil {
				return nil, err
			}
			return q.types, nil
		})}
		if p.types, err = conf.Check(path, g.fset, p.files, p.info); err != nil {
			return nil, fmt.Errorf("type-check %s: %v", path, err)
		}
		return p, nil
	}
	paths := make([]string, 0, len(dirs))
	for path, dir := range dirs {
		if _, err := build.Default.ImportDir(dir, 0); err == nil {
			paths = append(paths, path)
		}
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := load(path); err != nil {
			return nil, err
		}
	}
	for _, path := range paths {
		g.collect(g.pkgs[path])
	}
	seen := map[*types.Package]bool{}
	for _, path := range paths {
		g.stdInterfaces(g.pkgs[path].types, seen)
	}
	return g, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// collect records p's declarations, the roots among them and the
// method names of the interfaces p declares.
func (g *reachGraph) collect(p *reachPkg) {
	bench := p.path == g.module+"/perfbench" || strings.HasPrefix(p.path, g.module+"/perfbench/")
	root := func(n ast.Node) {
		g.pkgOf[n] = p
		g.roots = append(g.roots, n)
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				for _, m := range it.Methods.List {
					for _, name := range m.Names {
						g.ifaces[name.Name] = true
					}
				}
			}
			return true
		})
		if bench {
			root(f)
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && (d.Name.Name == "init" || p.name == "main" && d.Name.Name == "main") {
					root(d)
					continue
				}
				g.add(p, p.info.Defs[d.Name], d, d.Doc)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					doc := d.Doc
					if d.Lparen.IsValid() {
						doc = nil
					}
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Doc != nil {
							doc = s.Doc
						}
						g.add(p, p.info.Defs[s.Name], s, doc)
					case *ast.ValueSpec:
						if s.Doc != nil {
							doc = s.Doc
						}
						for _, name := range s.Names {
							if name.Name == "_" {
								root(s) // evaluated at package initialization
							} else {
								g.add(p, p.info.Defs[name], s, doc)
							}
						}
					}
				}
			}
		}
	}
	if p.path == g.module {
		for obj, d := range g.decls {
			if g.pkgOf[d.node] == p && obj.Exported() {
				g.reached[obj] = true
				root(d.node)
			}
		}
	}
}

// stdInterfaces adds the method names of the interfaces declared at
// package level, exported or not, in the standard-library packages p
// imports, directly or not.
func (g *reachGraph) stdInterfaces(p *types.Package, seen map[*types.Package]bool) {
	for _, imp := range p.Imports() {
		if seen[imp] || imp.Path() == g.module || strings.HasPrefix(imp.Path(), g.module+"/") {
			continue
		}
		seen[imp] = true
		scope := imp.Scope()
		for _, name := range scope.Names() {
			if it, ok := scope.Lookup(name).Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					g.ifaces[it.Method(i).Name()] = true
				}
			}
		}
		g.stdInterfaces(imp, seen)
	}
}

func (g *reachGraph) add(p *reachPkg, obj types.Object, node ast.Node, doc *ast.CommentGroup) {
	if obj == nil {
		return
	}
	key := p.path + "." + obj.Name()
	if recv := recvOf(obj); recv != nil {
		key = p.path + "." + recv.Name() + "." + obj.Name()
	}
	start := node.Pos()
	if doc != nil {
		start = doc.Pos()
	}
	d := &reachDecl{
		obj:   obj,
		key:   key,
		pos:   g.fset.Position(obj.Pos()),
		lines: g.fset.Position(node.End()).Line - g.fset.Position(start).Line + 1,
		node:  node,
	}
	g.decls[obj] = d
	g.byKey[key] = d
	g.pkgOf[node] = p
}

// recvOf returns the receiver type of a method, or nil.
func recvOf(obj types.Object) *types.TypeName {
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			return namedOf(recv.Type())
		}
	}
	return nil
}

func namedOf(t types.Type) *types.TypeName {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// mark records obj as reached and queues its declaration.
func (g *reachGraph) mark(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	case *types.Const:
		// Using a constant uses its named type, whose methods (String)
		// an interface may call.
		if tn := namedOf(o.Type()); tn != nil {
			g.mark(tn)
		}
	}
	if d, ok := g.decls[obj]; ok && !g.reached[obj] {
		g.reached[obj] = true
		g.queue = append(g.queue, d)
	}
}

// reach marks everything the given nodes reference, directly or not.
func (g *reachGraph) reach(nodes ...ast.Node) {
	visit := func(n ast.Node) {
		info := g.pkgOf[n].info
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil {
					g.mark(obj)
				}
			}
			return true
		})
	}
	for _, n := range nodes {
		visit(n)
	}
	for len(g.queue) > 0 {
		for len(g.queue) > 0 {
			d := g.queue[len(g.queue)-1]
			g.queue = g.queue[:len(g.queue)-1]
			visit(d.node)
		}
		for obj := range g.decls {
			if recv := recvOf(obj); recv != nil && !g.reached[obj] && g.reached[recv] && g.ifaces[obj.Name()] {
				g.mark(obj)
			}
		}
	}
}

// unreached lists the declarations nothing reached, in source order.
func (g *reachGraph) unreached() []*reachDecl {
	var out []*reachDecl
	for obj, d := range g.decls {
		if !g.reached[obj] {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].pos, out[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return out
}
