package lint

// This file is the interprocedural dataflow engine behind detflow and
// floatorder: a package-at-a-time summarizer that walks every function
// body over go/ast + go/types, tracks taint through assignments, calls,
// closures and struct fields, and condenses each function into a
// FuncSummary (summary.go). Summaries of dependency
// packages arrive through the unitchecker facts path (or are computed
// recursively by linttest), so the whole-program analysis is the
// composition of per-package fixpoints in package-DAG order — the same
// shape as x/tools facts-based analyzers, with the go command providing
// the DAG ordering and the cache.
//
// Precision policy (see DESIGN.md §14 for the full argument):
//
//   - Context: summaries are context-insensitive (one summary per named
//     function); function literals are analyzed inline at their lexical
//     position sharing the enclosing environment, which makes captures
//     precise without any context cloning.
//   - Fields: field-insensitive. A store of a tainted value through a
//     selector taints the base object; a read through a selector reads
//     the base object's taint.
//   - Flow: statements are walked in order; loop bodies are walked twice
//     so taint introduced late in a body reaches uses earlier in the
//     next iteration. There is no kill on reassignment (a variable only
//     accumulates taint); the one deliberate kill is sanitization —
//     sorting a collection removes the order classes.
//   - Unknowns: callees without a summary (stdlib, interface methods,
//     func values) conservatively propagate the union of their operands'
//     taint to their results, and sink/source intrinsics (below) pin
//     down the stdlib entry points that matter.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// Taint classes. The "param:" and "rloop:" prefixes mark summarizer
// pseudo-classes that never appear in serialized summaries or findings.
const (
	classMapOrder = "maporder"  // value depends on map iteration order (annotation-respecting)
	classFPOrder  = "fporder"   // collection whose ELEMENT ORDER is map-iteration-derived (killed by sorting, survives //lint:deterministic)
	classMRange   = "mrange"    // pseudo: value varies per iteration of an enclosing order-sensitive loop
	classWall     = "wallclock" // derived from host wall-clock time
	classRand     = "rand"      // drawn from host-seeded global rand state
	classEnv      = "env"       // read from the process environment / host identity
	classPtrFmt   = "ptrfmt"    // formatted host pointer value (ASLR-dependent)
)

// Sink kinds: the determinism-critical outputs detflow guards.
const (
	sinkStat   = "stat"   // statistic registration or update
	sinkTrace  = "trace"  // trace arena / Tracer call
	sinkCkpt   = "ckpt"   // checkpoint encoder
	sinkReport = "report" // report writer
)

// entropyClasses are the classes detflow reports when they reach a sink.
var entropyClasses = []string{classEnv, classMapOrder, classPtrFmt, classRand, classWall}

// classNoun renders a taint class for diagnostics.
func classNoun(class string) string {
	switch class {
	case classMapOrder, classFPOrder:
		return "map iteration order"
	case classWall:
		return "wall-clock time"
	case classRand:
		return "host-seeded global rand"
	case classEnv:
		return "the process environment"
	case classPtrFmt:
		return "a formatted host pointer"
	}
	return class
}

// sinkNoun renders a sink kind for diagnostics.
func sinkNoun(kind string) string {
	switch kind {
	case sinkStat:
		return "stat registration"
	case sinkTrace:
		return "the trace arena"
	case sinkCkpt:
		return "a checkpoint encoder"
	case sinkReport:
		return "a report writer"
	}
	return kind
}

// IPFinding is one candidate finding recorded by the engine. The two
// interprocedural analyzers filter by Kind and render the message; the
// ordinary per-analyzer suppression machinery applies at Pos.
type IPFinding struct {
	Pos    token.Pos
	Kind   string // "sink" or "floatsum"
	Class  string // taint class involved (sink, floatsum)
	Sink   string // sink kind (Kind == "sink")
	Detail string // callee or object name for the message
}

// IPResult is the engine's output for one package.
type IPResult struct {
	Summary  *PkgSummary
	Findings []IPFinding
}

// IP computes and memoizes one package's interprocedural result, shared
// by every analyzer Pass over that package.
type IP struct {
	fset  *token.FileSet
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
	dep   func(path string) *PkgSummary
	audit *SuppressionAudit // optional; marks source-level waivers as used
	res   *IPResult
}

// SetAudit attaches a suppression audit so annotations consumed at taint
// sources (inside the engine, before any Reportf) count as used.
func (ip *IP) SetAudit(a *SuppressionAudit) { ip.audit = a }

// NewIP prepares (lazily) the interprocedural analysis of one package.
// dep resolves a dependency import path to its summary, or nil when none
// is available (outside the module); it may be nil when no dependency
// summaries exist at all.
func NewIP(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, dep func(path string) *PkgSummary) *IP {
	return &IP{fset: fset, files: files, pkg: pkg, info: info, dep: dep}
}

// Result runs the summarizer on first use.
func (ip *IP) Result() *IPResult {
	if ip.res == nil {
		s := newSummarizer(ip)
		s.run()
		ip.res = &IPResult{Summary: s.packageSummary(), Findings: s.finalFindings()}
	}
	return ip.res
}

const maxFixpointRounds = 6

type summarizer struct {
	ip      *IP
	info    *types.Info
	annots  map[string]map[int][]string // filename -> line -> suppressed analyzer names ("" = deterministic)
	table   map[string]*FuncSummary     // FullName -> summary under construction
	globals map[types.Object]taintSet   // package-level vars
	sanit   map[types.Object]bool       // objects sanitized (sorted) in the current function
	find    map[IPFinding]bool
	changed bool
}

type taintSet map[string]bool

func (t taintSet) union(o taintSet) taintSet {
	if len(o) == 0 {
		return t
	}
	if t == nil {
		t = make(taintSet, len(o))
	}
	for c := range o {
		t[c] = true
	}
	return t
}

func (t taintSet) with(classes ...string) taintSet {
	if t == nil {
		t = make(taintSet, len(classes))
	}
	for _, c := range classes {
		t[c] = true
	}
	return t
}

func (t taintSet) clone() taintSet {
	c := make(taintSet, len(t))
	for k := range t {
		c[k] = true
	}
	return c
}

// withoutOrder strips the iteration-order classes (the sanitizer effect).
func (t taintSet) withoutOrder() taintSet {
	if !t[classMapOrder] && !t[classFPOrder] && !t[classMRange] {
		return t
	}
	c := t.clone()
	delete(c, classMapOrder)
	delete(c, classFPOrder)
	delete(c, classMRange)
	return c
}

func newSummarizer(ip *IP) *summarizer {
	s := &summarizer{
		ip:      ip,
		info:    ip.info,
		annots:  make(map[string]map[int][]string),
		table:   make(map[string]*FuncSummary),
		globals: make(map[types.Object]taintSet),
		find:    make(map[IPFinding]bool),
	}
	for _, f := range ip.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				a, ok := parseAnnotation(c.Text)
				if !ok || a.reason == "" {
					continue
				}
				posn := ip.fset.Position(c.Pos())
				m := s.annots[posn.Filename]
				if m == nil {
					m = make(map[int][]string)
					s.annots[posn.Filename] = m
				}
				m[posn.Line] = append(m[posn.Line], a.analyzer)
			}
		}
	}
	return s
}

// sourceWaived reports whether an annotation at pos's line (or the line
// above) names one of the given analyzers, waiving a taint source there.
func (s *summarizer) sourceWaived(pos token.Pos, names ...string) bool {
	posn := s.ip.fset.Position(pos)
	for _, line := range []int{posn.Line, posn.Line - 1} {
		for _, got := range s.annots[posn.Filename][line] {
			for _, want := range names {
				if got == want {
					s.ip.audit.mark(posn.Filename, line)
					return true
				}
			}
		}
	}
	return false
}

// run drives the per-package fixpoint: functions are walked in call-graph
// postorder (callees first) and re-walked until no summary grows.
func (s *summarizer) run() {
	decls := s.sourceFuncDecls()
	order := s.callGraphOrder(decls)
	for round := 0; round < maxFixpointRounds; round++ {
		s.changed = false
		s.find = make(map[IPFinding]bool)
		s.walkPackageVars()
		for _, d := range order {
			s.walkFunc(d)
		}
		if !s.changed {
			break
		}
	}
}

// sourceFuncDecls returns every function declaration with a body in the
// package's non-test files.
func (s *summarizer) sourceFuncDecls() []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range s.ip.files {
		name := s.ip.fset.Position(f.Package).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}

// CallGraph is the package-local call graph: for each declared function,
// the declared functions it calls directly (including through method
// expressions and closures in its body). It exists to order the fixpoint
// (callees before callers) and is exported for the engine's tests.
type CallGraph struct {
	Nodes map[string]*ast.FuncDecl // FullName -> decl
	Edges map[string][]string      // caller FullName -> callee FullNames (package-local)
}

// BuildCallGraph constructs the package-local call graph over decls.
func (s *summarizer) buildCallGraph(decls []*ast.FuncDecl) *CallGraph {
	g := &CallGraph{Nodes: make(map[string]*ast.FuncDecl), Edges: make(map[string][]string)}
	for _, d := range decls {
		if fn := s.declFunc(d); fn != nil {
			g.Nodes[fn.FullName()] = d
		}
	}
	for _, d := range decls {
		fn := s.declFunc(d)
		if fn == nil {
			continue
		}
		caller := fn.FullName()
		seen := make(map[string]bool)
		ast.Inspect(d.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(s.info, call)
			if callee == nil || callee.Pkg() != s.ip.pkg {
				return true
			}
			name := callee.FullName()
			if _, declared := g.Nodes[name]; declared && !seen[name] {
				seen[name] = true
				g.Edges[caller] = append(g.Edges[caller], name)
			}
			return true
		})
	}
	return g
}

// callGraphOrder returns decls in callee-first (DFS postorder) order, so
// most summaries are complete before their callers are walked and the
// fixpoint converges in one round for acyclic call structure.
func (s *summarizer) callGraphOrder(decls []*ast.FuncDecl) []*ast.FuncDecl {
	g := s.buildCallGraph(decls)
	visited := make(map[string]bool)
	var order []*ast.FuncDecl
	var visit func(name string)
	visit = func(name string) {
		if visited[name] {
			return
		}
		visited[name] = true
		for _, callee := range g.Edges[name] {
			visit(callee)
		}
		order = append(order, g.Nodes[name])
	}
	for _, d := range decls {
		if fn := s.declFunc(d); fn != nil {
			visit(fn.FullName())
		} else {
			order = append(order, d) // no object (blank name); walk for findings anyway
		}
	}
	return order
}

func (s *summarizer) declFunc(d *ast.FuncDecl) *types.Func {
	fn, _ := s.info.Defs[d.Name].(*types.Func)
	return fn
}

// packageSummary condenses the fixpoint into the serializable form.
func (s *summarizer) packageSummary() *PkgSummary {
	ps := &PkgSummary{Path: s.ip.pkg.Path()}
	for name, fs := range s.table {
		if !fs.empty() {
			if ps.Funcs == nil {
				ps.Funcs = make(map[string]*FuncSummary)
			}
			ps.Funcs[name] = fs
		}
	}
	for obj, t := range s.globals {
		var classes []string
		for c := range t {
			if c == classMRange {
				continue // loop-scoped pseudo-class
			}
			if !strings.Contains(c, ":") {
				classes = append(classes, c)
			}
		}
		if len(classes) > 0 {
			if ps.Globals == nil {
				ps.Globals = make(map[string][]string)
			}
			ps.Globals[s.ip.pkg.Path()+"."+obj.Name()] = classes
		}
	}
	return ps
}

func (s *summarizer) finalFindings() []IPFinding {
	var out []IPFinding
	for f := range s.find {
		out = append(out, f)
	}
	// Deterministic order for the analyzers' reports.
	sortFindings(out)
	return out
}

func sortFindings(fs []IPFinding) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && lessFinding(fs[j], fs[j-1]); j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

func lessFinding(a, b IPFinding) bool {
	if a.Pos != b.Pos {
		return a.Pos < b.Pos
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Class != b.Class {
		return a.Class < b.Class
	}
	return a.Sink < b.Sink
}

// walkPackageVars seeds the global environment from package-level var
// initializers.
func (s *summarizer) walkPackageVars() {
	for _, f := range s.ip.files {
		name := s.ip.fset.Position(f.Package).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			w := s.newWalker(nil, nil)
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, val := range vs.Values {
					t := w.eval(val)
					if i < len(vs.Names) {
						if obj := s.info.Defs[vs.Names[i]]; obj != nil {
							w.addTaint(obj, t)
						}
					}
				}
			}
		}
	}
}

// walkFunc (re)analyzes one declared function, folding what it learns
// into the function's summary.
func (s *summarizer) walkFunc(d *ast.FuncDecl) {
	fn := s.declFunc(d)
	var sum *FuncSummary
	if fn != nil {
		sum = s.table[fn.FullName()]
		if sum == nil {
			sum = &FuncSummary{}
			s.table[fn.FullName()] = sum
		}
	} else {
		sum = &FuncSummary{}
	}
	s.sanit = make(map[types.Object]bool)
	w := s.newWalker(fn, sum)

	// Seed parameter slots with their pseudo-classes.
	if d.Recv != nil && len(d.Recv.List) == 1 && len(d.Recv.List[0].Names) == 1 {
		if obj := s.info.Defs[d.Recv.List[0].Names[0]]; obj != nil {
			w.slots[obj] = 0
			w.env[obj] = taintSet{}.with("param:0")
		}
	}
	slot := 1
	for _, field := range d.Type.Params.List {
		if len(field.Names) == 0 {
			slot++
			continue
		}
		for _, name := range field.Names {
			if obj := s.info.Defs[name]; obj != nil {
				w.slots[obj] = slot
				w.env[obj] = taintSet{}.with("param:" + strconv.Itoa(slot))
			}
			slot++
		}
	}

	w.stmt(d.Body)
}

func recvNamedType(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return namedType(sig.Recv().Type())
}

// record registers a finding (deduplicated; the fixpoint re-walks bodies).
func (s *summarizer) record(f IPFinding) {
	s.find[f] = true
}
