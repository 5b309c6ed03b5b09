package lint

// The per-function abstract walker of the interprocedural engine: one
// environment (object -> taint classes) per declared function, shared by
// every function literal inside it so closures capture precisely. See
// interproc.go for the overall policy.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

type fnWalker struct {
	s   *summarizer
	fn  *types.Func               // nil when walking package-level var initializers
	sum *FuncSummary              // nil iff fn has no object
	env map[types.Object]taintSet // params, locals, captured vars

	slots      map[types.Object]int // param/receiver object -> summary slot
	litReturns taintSet             // collects return taints of the innermost FuncLit being evaluated

	// mapLoops is the stack of enclosing order-sensitive range statements
	// (map ranges, or ranges over fporder-tainted collections): float
	// accumulation is order-sensitive exactly when it executes under one
	// of these and its addend varies per iteration (carries classMRange).
	mapLoops []token.Pos
}

func (s *summarizer) newWalker(fn *types.Func, sum *FuncSummary) *fnWalker {
	return &fnWalker{
		s:     s,
		fn:    fn,
		sum:   sum,
		env:   make(map[types.Object]taintSet),
		slots: make(map[types.Object]int),
	}
}

// --- statements ---

func (w *fnWalker) stmt(st ast.Stmt) {
	switch st := st.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, s := range st.List {
			w.stmt(s)
		}
	case *ast.ExprStmt:
		w.eval(st.X)
	case *ast.AssignStmt:
		w.assignStmt(st)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i, val := range vs.Values {
						t := w.eval(val)
						if i < len(vs.Names) {
							if obj := w.s.info.Defs[vs.Names[i]]; obj != nil {
								w.addTaint(obj, t)
							}
						}
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, res := range st.Results {
			w.ret(w.eval(res))
		}
	case *ast.IfStmt:
		w.stmt(st.Init)
		w.eval(st.Cond)
		w.stmt(st.Body)
		w.stmt(st.Else)
	case *ast.ForStmt:
		w.stmt(st.Init)
		if st.Cond != nil {
			w.eval(st.Cond)
		}
		w.stmt(st.Post)
		// Twice: taint introduced late in the body reaches earlier uses.
		w.stmt(st.Body)
		w.stmt(st.Body)
	case *ast.RangeStmt:
		w.rangeStmt(st)
	case *ast.SwitchStmt:
		w.stmt(st.Init)
		if st.Tag != nil {
			w.eval(st.Tag)
		}
		for _, cc := range st.Body.List {
			if cc, ok := cc.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.eval(e)
				}
				for _, s := range cc.Body {
					w.stmt(s)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		w.stmt(st.Init)
		w.stmt(st.Assign)
		for _, cc := range st.Body.List {
			if cc, ok := cc.(*ast.CaseClause); ok {
				for _, s := range cc.Body {
					w.stmt(s)
				}
			}
		}
	case *ast.SelectStmt:
		for _, cc := range st.Body.List {
			if cc, ok := cc.(*ast.CommClause); ok {
				w.stmt(cc.Comm)
				for _, s := range cc.Body {
					w.stmt(s)
				}
			}
		}
	case *ast.GoStmt:
		w.eval(st.Call)
	case *ast.DeferStmt:
		w.eval(st.Call)
	case *ast.SendStmt:
		// Channel send: taint the channel object (coarse).
		if obj := rootObj(w.s.info, st.Chan); obj != nil {
			w.addTaint(obj, w.eval(st.Value))
		}
	case *ast.IncDecStmt:
		w.eval(st.X)
	case *ast.LabeledStmt:
		w.stmt(st.Stmt)
	}
}

func (w *fnWalker) assignStmt(st *ast.AssignStmt) {
	// Multi-value RHS (call or comma-ok): every LHS gets the union.
	var ts []taintSet
	if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
		t := w.eval(st.Rhs[0])
		for range st.Lhs {
			ts = append(ts, t)
		}
	} else {
		for _, r := range st.Rhs {
			ts = append(ts, w.eval(r))
		}
	}
	for i, lhs := range st.Lhs {
		if i >= len(ts) {
			break
		}
		t := ts[i]
		// Float-order accumulation: x op= e, or x = x + e.
		if isFloatAccum(w.s.info, st, i) {
			w.floatAccum(lhs, t, st.TokPos)
		}
		w.store(lhs, t)
	}
}

// floatAccum handles `acc += v`-shaped statements on float accumulators.
// The direct Fig.15 finding fires when the addend varies per iteration of
// an enclosing order-sensitive loop (classMRange) and the accumulator
// outlives that loop — a loop-local accumulator resets each iteration and
// sums nothing across the ordered sequence. Summary consequences: a
// param-derived addend marks FloatAcc only when the accumulator outlives
// the CALL (receiver/pointer-param/global target) — a function summing a
// param into a local is a pure function of its arguments, not an ordered
// accumulation the caller completes; an rloop-derived addend always marks
// RangeSum (the ordered loop is here, the collection is the caller's).
func (w *fnWalker) floatAccum(lhs ast.Expr, t taintSet, pos token.Pos) {
	if t[classMRange] && len(w.mapLoops) > 0 && w.outlivesLoop(lhs) {
		w.s.record(IPFinding{Pos: pos, Kind: "floatsum", Class: classFPOrder,
			Detail: exprString(lhs)})
	}
	persistent := w.persistentTarget(lhs)
	for c := range t {
		if n, ok := strings.CutPrefix(c, "param:"); ok && persistent {
			w.markSlot(&w.sum.FloatAcc, n)
		}
		if n, ok := strings.CutPrefix(c, "rloop:"); ok {
			w.markSlot(&w.sum.RangeSum, n)
		}
	}
}

// outlivesLoop reports whether the accumulation target exists across
// iterations of the innermost order-sensitive loop: declared before it,
// reachable from a parameter/receiver, package-level, or a field/element
// of any of those.
func (w *fnWalker) outlivesLoop(lhs ast.Expr) bool {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj := identObj(w.s.info, x)
		if obj == nil {
			return false
		}
		if _, isSlot := w.slots[obj]; isSlot || isPackageLevel(obj) {
			return true
		}
		return obj.Pos() < w.mapLoops[len(w.mapLoops)-1]
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		if base := rootObj(w.s.info, lhs); base != nil {
			if _, isSlot := w.slots[base]; isSlot || isPackageLevel(base) {
				return true
			}
			return base.Pos() < w.mapLoops[len(w.mapLoops)-1]
		}
		return true
	}
	return true
}

// persistentTarget reports whether the accumulation target survives the
// function call: a receiver/parameter-reachable object or a package-level
// variable.
func (w *fnWalker) persistentTarget(lhs ast.Expr) bool {
	base := rootObj(w.s.info, lhs)
	if base == nil {
		return false
	}
	if _, isSlot := w.slots[base]; isSlot {
		return true
	}
	return isPackageLevel(base)
}

func (w *fnWalker) markSlot(field *[]bool, slotStr string) {
	if w.sum == nil {
		return
	}
	slot, err := strconv.Atoi(slotStr)
	if err != nil {
		return
	}
	for len(*field) <= slot {
		*field = append(*field, false)
	}
	if !(*field)[slot] {
		(*field)[slot] = true
		w.s.changed = true
	}
}

// isFloatAccum reports whether assignment index i accumulates into a
// float: `x += e` (or -=, *=, /=) with float x, or `x = x + e`.
func isFloatAccum(info *types.Info, st *ast.AssignStmt, i int) bool {
	if i >= len(st.Lhs) {
		return false
	}
	lhs := st.Lhs[i]
	if !isFloat(info.TypeOf(lhs)) {
		return false
	}
	switch st.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		return true
	case token.ASSIGN:
		if i >= len(st.Rhs) {
			return false
		}
		be, ok := ast.Unparen(st.Rhs[i]).(*ast.BinaryExpr)
		if !ok {
			return false
		}
		switch be.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO:
			ls := exprString(lhs)
			return exprString(be.X) == ls || exprString(be.Y) == ls
		}
	}
	return false
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isOrderedCollection reports whether t can carry a map-derived element
// order (slices and arrays; maps re-mint order at their own ranges).
func isOrderedCollection(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Array:
		return true
	}
	return false
}

// store writes taint through an lvalue. Identifier targets take the full
// set; selector/index/star targets taint the base object.
func (w *fnWalker) store(lhs ast.Expr, t taintSet) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return
		}
		if obj := identObj(w.s.info, lhs); obj != nil {
			w.addTaint(obj, t)
		}
	case *ast.SelectorExpr:
		base := rootObj(w.s.info, lhs.X)
		if base == nil {
			return
		}
		w.addTaint(base, t)
	case *ast.IndexExpr:
		if base := rootObj(w.s.info, lhs.X); base != nil {
			w.addTaint(base, t)
		}
	case *ast.StarExpr:
		if base := rootObj(w.s.info, lhs.X); base != nil {
			w.addTaint(base, t)
		}
	}
}

// addTaint grows an object's taint set, recording summary consequences:
// stores into parameter-reachable objects become Taints/Flows entries, and
// stores into package-level variables persist.
func (w *fnWalker) addTaint(obj types.Object, t taintSet) {
	if len(t) == 0 {
		return
	}
	var cur taintSet
	global := isPackageLevel(obj)
	if global {
		cur = w.s.globals[obj]
	} else {
		cur = w.env[obj]
	}
	grew := false
	for c := range t {
		if !cur[c] {
			if cur == nil {
				cur = make(taintSet)
			}
			cur[c] = true
			grew = true
		}
	}
	if !grew {
		return
	}
	if global {
		w.s.globals[obj] = cur
		w.s.changed = true
	} else {
		w.env[obj] = cur
	}
	// Store into a parameter slot's object: summary consequence.
	if slot, ok := w.slots[obj]; ok && w.sum != nil {
		for c := range t {
			if n, okk := strings.CutPrefix(c, "param:"); okk {
				if src, err := strconv.Atoi(n); err == nil && src != slot {
					w.addFlow(src, slot)
				}
				continue
			}
			if strings.HasPrefix(c, "rloop:") || c == classMRange {
				continue
			}
			w.addSlotTaint(slot, c)
		}
	}
}

func (w *fnWalker) addFlow(src, dst int) {
	for _, f := range w.sum.Flows {
		if f == [2]int{src, dst} {
			return
		}
	}
	w.sum.Flows = append(w.sum.Flows, [2]int{src, dst})
	w.s.changed = true
}

func (w *fnWalker) addSlotTaint(slot int, class string) {
	if w.sum.Taints == nil {
		w.sum.Taints = make(map[int][]string)
	}
	for _, c := range w.sum.Taints[slot] {
		if c == class {
			return
		}
	}
	w.sum.Taints[slot] = append(w.sum.Taints[slot], class)
	w.s.changed = true
}

func (w *fnWalker) addSlotSink(slot int, kinds []string) {
	if w.sum == nil {
		return
	}
	if w.sum.Sinks == nil {
		w.sum.Sinks = make(map[int][]string)
	}
outer:
	for _, k := range kinds {
		for _, have := range w.sum.Sinks[slot] {
			if have == k {
				continue outer
			}
		}
		w.sum.Sinks[slot] = append(w.sum.Sinks[slot], k)
		w.s.changed = true
	}
}

// ret folds one returned expression's taint into the summary (or into
// the enclosing function literal's value taint).
func (w *fnWalker) ret(t taintSet) {
	if w.litReturns != nil {
		w.litReturns = w.litReturns.union(t)
	}
	if w.sum == nil {
		return
	}
	for c := range t {
		if n, ok := strings.CutPrefix(c, "param:"); ok {
			w.markSlot(&w.sum.Prop, n)
			continue
		}
		if n, ok := strings.CutPrefix(c, "rloop:"); ok {
			// Result depends on a collection's iteration order: plain
			// propagation from that slot.
			w.markSlot(&w.sum.Prop, n)
			continue
		}
		if c == classMRange {
			continue // loop-iteration pseudo-class never leaves the function
		}
		found := false
		for _, have := range w.sum.Sources {
			if have == c {
				found = true
				break
			}
		}
		if !found {
			w.sum.Sources = append(w.sum.Sources, c)
			w.s.changed = true
		}
	}
}

// rangeStmt models iteration. Ranging a map mints, on the loop
// variables: classMapOrder (value taint for detflow; waived by an
// annotation claiming the loop commutes), classFPOrder (killed only by
// sorting or //lint:allow floatorder — append/store into a slice makes
// its element order map-derived), and the classMRange pseudo-class
// (per-iteration variation; the loop body becomes an order-sensitive
// accumulation context). Ranging an fporder-tainted collection re-arms
// the same context: its element order is map-derived, so ordered float
// accumulation over it is the Fig. 15 bug split across a call. Ranging
// any other collection hands the collection's taint to the loop
// variables, plus the rloop pseudo-class when the collection is a
// parameter (so float accumulation over it becomes a RangeSum bit).
func (w *fnWalker) rangeStmt(st *ast.RangeStmt) {
	xt := w.eval(st.X)
	loopTaint := xt.clone()
	sanitized := false
	if base := rootObj(w.s.info, st.X); base != nil && w.s.sanit[base] {
		sanitized = true
	}
	orderLoop := false
	if typeIsMap(w.s.info.TypeOf(st.X)) {
		if !w.s.sourceWaived(st.Range, "", "detmap", "detflow") {
			loopTaint = loopTaint.with(classMapOrder, classFPOrder)
		}
		if !w.s.sourceWaived(st.Range, "floatorder") {
			loopTaint = loopTaint.with(classMRange)
			orderLoop = true
		}
	} else if !sanitized {
		for c := range xt {
			if n, ok := strings.CutPrefix(c, "param:"); ok {
				loopTaint = loopTaint.with("rloop:" + n)
			}
		}
		if xt[classFPOrder] && !w.s.sourceWaived(st.Range, "floatorder") {
			loopTaint = loopTaint.with(classMRange)
			orderLoop = true
		}
	}
	if sanitized {
		loopTaint = loopTaint.withoutOrder()
		delete(loopTaint, classMRange)
		orderLoop = false
	}
	for _, v := range []ast.Expr{st.Key, st.Value} {
		if v == nil {
			continue
		}
		if id, ok := ast.Unparen(v).(*ast.Ident); ok && id.Name != "_" {
			if obj := identObj(w.s.info, id); obj != nil {
				w.addTaint(obj, loopTaint)
			}
		} else {
			w.store(v, loopTaint)
		}
	}
	if orderLoop {
		w.mapLoops = append(w.mapLoops, st.Range)
	}
	w.stmt(st.Body)
	w.stmt(st.Body)
	if orderLoop {
		w.mapLoops = w.mapLoops[:len(w.mapLoops)-1]
	}
}

// --- expressions ---

func (w *fnWalker) eval(e ast.Expr) taintSet {
	switch e := e.(type) {
	case nil:
		return nil
	case *ast.Ident:
		return w.objTaint(identObj(w.s.info, e))
	case *ast.SelectorExpr:
		// Package-qualified name: the named object itself.
		if isPkgQualifier(w.s.info, e.X) {
			return w.objTaint(identObj(w.s.info, e.Sel))
		}
		t := w.eval(e.X).clone()
		return t.union(w.objTaint(identObj(w.s.info, e.Sel)))
	case *ast.CallExpr:
		return w.evalCall(e)
	case *ast.BinaryExpr:
		return w.eval(e.X).clone().union(w.eval(e.Y))
	case *ast.UnaryExpr:
		return w.eval(e.X)
	case *ast.StarExpr:
		return w.eval(e.X)
	case *ast.ParenExpr:
		return w.eval(e.X)
	case *ast.IndexExpr:
		// Instantiated generic function/type: just the operand.
		if tv, ok := w.s.info.Types[e.Index]; ok && tv.IsType() {
			return w.eval(e.X)
		}
		t := w.eval(e.X).clone().union(w.eval(e.Index))
		// Reading one element out of an order-tainted collection yields a
		// value, not an ordered sequence: fporder stays on the collection.
		if !isOrderedCollection(w.s.info.TypeOf(e)) {
			delete(t, classFPOrder)
		}
		return t
	case *ast.IndexListExpr:
		return w.eval(e.X)
	case *ast.SliceExpr:
		return w.eval(e.X)
	case *ast.TypeAssertExpr:
		return w.eval(e.X)
	case *ast.CompositeLit:
		var t taintSet
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				t = t.union(w.eval(kv.Value))
			} else {
				t = t.union(w.eval(el))
			}
		}
		return t
	case *ast.FuncLit:
		return w.evalFuncLit(e)
	case *ast.KeyValueExpr:
		return w.eval(e.Value)
	}
	return nil
}

// evalFuncLit walks a function literal inline, sharing the enclosing
// environment (captures are the same objects), and returns the union of
// its return-statement taints as the literal's value taint.
func (w *fnWalker) evalFuncLit(lit *ast.FuncLit) taintSet {
	saved := w.litReturns
	w.litReturns = taintSet{}
	w.stmt(lit.Body)
	t := w.litReturns
	w.litReturns = saved
	if w.litReturns != nil {
		// Nested literals: the inner literal's value feeds the outer walk,
		// not the outer literal's returns.
		_ = saved
	}
	return t
}

func (w *fnWalker) objTaint(obj types.Object) taintSet {
	if obj == nil {
		return nil
	}
	if _, ok := obj.(*types.Const); ok {
		return nil
	}
	if isPackageLevel(obj) {
		if obj.Pkg() == w.s.ip.pkg {
			return w.s.globals[obj]
		}
		if w.s.ip.dep != nil && obj.Pkg() != nil {
			if ps := w.s.ip.dep(obj.Pkg().Path()); ps != nil {
				if classes, ok := ps.Globals[obj.Pkg().Path()+"."+obj.Name()]; ok {
					return taintSet{}.with(classes...)
				}
			}
		}
		return nil
	}
	return w.env[obj]
}

// --- helpers ---

func identObj(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

func isPkgQualifier(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isPkg := info.Uses[id].(*types.PkgName)
	return isPkg
}

// rootObj resolves an expression to the object whose taint it addresses:
// the base variable of a selector/index/star chain.
func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return identObj(info, x)
		case *ast.SelectorExpr:
			if isPkgQualifier(info, x.X) {
				return identObj(info, x.Sel)
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.CallExpr:
			return nil
		default:
			return nil
		}
	}
}

func isPackageLevel(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return false
	}
	return v.Parent() == v.Pkg().Scope()
}

func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	}
	return "?"
}
