package lint

// Call handling for the interprocedural engine: stdlib source/sink/
// sanitizer intrinsics and summary application with the slot convention
// (slot 0 = receiver, slot i+1 = parameter i).

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// evalCall models one call expression and returns the taint of its
// results.
func (w *fnWalker) evalCall(call *ast.CallExpr) taintSet {
	// Conversions: T(x) keeps x's taint.
	if tv, ok := w.s.info.Types[call.Fun]; ok && tv.IsType() {
		var t taintSet
		for _, a := range call.Args {
			t = t.union(w.eval(a))
		}
		return t
	}

	fn := calleeFunc(w.s.info, call)

	// Builtins and unresolvable callees (func values, closures stored in
	// variables): conservatively propagate operands plus the callee
	// value's own taint (a closure returning wall-clock time carries
	// "wallclock" as a value).
	if fn == nil {
		t := w.eval(call.Fun).clone()
		for _, a := range call.Args {
			t = t.union(w.eval(a))
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			switch id.Name {
			case "len", "cap", "new", "make":
				if w.s.info.Uses[id] == nil || w.s.info.Uses[id].Pkg() == nil {
					return nil // len(m) etc. are order-independent
				}
			}
		}
		return t
	}

	path := ""
	if fn.Pkg() != nil {
		path = fn.Pkg().Path()
	}

	// Sanitizers: sorting fixes an iteration order.
	if t, ok := w.sanitizerCall(fn, path, call); ok {
		return t
	}

	// Intrinsic entropy sources.
	if class := intrinsicSourceClass(fn, path); class != "" {
		return taintSet{}.with(class)
	}
	if path == "fmt" && formatArgsContain(call, "%p") {
		t := taintSet{}.with(classPtrFmt)
		for _, a := range call.Args {
			t = t.union(w.eval(a))
		}
		return t
	}

	// maps.Keys / maps.Values mint the order classes (sorting strips
	// them again, which is the slices.Sorted(maps.Keys(m)) idiom).
	if path == "maps" && (fn.Name() == "Keys" || fn.Name() == "Values") {
		t := taintSet{}.with(classFPOrder)
		if !w.s.sourceWaived(call.Pos(), "", "detmap", "detflow") {
			t = t.with(classMapOrder)
		}
		if w.s.sourceWaived(call.Pos(), "floatorder") {
			delete(t, classFPOrder)
		}
		for _, a := range call.Args {
			t = t.union(w.eval(a))
		}
		return t
	}

	ops := w.operands(call)

	// The System's scheduling surface carries no value to a sink.
	// Evaluate operands for their side effects only.
	if isSystemScheduleCall(fn) {
		for _, op := range ops {
			if op != nil {
				w.eval(op)
			}
		}
		return nil
	}

	// Intrinsic sinks (stat registration, tracer, checkpoint encoders,
	// report writers).
	if kinds := intrinsicSinkSlots(fn, path); kinds != nil {
		w.applySinks(call, ops, kinds, fn)
	}

	// Summary application.
	if sum := w.lookupSummary(fn); sum != nil {
		return w.applySummary(call, ops, sum, fn)
	}

	// No summary. Within the module (and its fixture mirrors) an absent
	// entry means the fixpoint found nothing: the call propagates no
	// taint. Outside it — stdlib helpers, interface methods — propagate
	// every operand conservatively.
	if strings.HasPrefix(path, "gem5prof") && !isInterfaceMethod(fn) && w.summaryKnown(fn) {
		for _, op := range ops {
			if op != nil {
				w.eval(op)
			}
		}
		return nil
	}
	var t taintSet
	for _, op := range ops {
		if op != nil {
			t = t.union(w.eval(op))
		}
	}
	return t
}

// operands maps a call to the slot convention: index 0 is the receiver
// expression (nil for plain calls), index i+1 is argument i.
func (w *fnWalker) operands(call *ast.CallExpr) []ast.Expr {
	ops := make([]ast.Expr, 1, len(call.Args)+1)
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && !isPkgQualifier(w.s.info, sel.X) {
		if s, ok := w.s.info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			ops[0] = sel.X
		}
	}
	ops = append(ops, call.Args...)
	return ops
}

// lookupSummary resolves a callee's summary: the current package's
// fixpoint table, or a dependency's facts.
func (w *fnWalker) lookupSummary(fn *types.Func) *FuncSummary {
	name := fn.FullName()
	if fn.Pkg() == w.s.ip.pkg {
		return w.s.table[name]
	}
	if w.s.ip.dep == nil || fn.Pkg() == nil {
		return nil
	}
	if ps := w.s.ip.dep(fn.Pkg().Path()); ps != nil {
		return ps.Funcs[name]
	}
	return nil
}

// summaryKnown reports whether the callee's package has been summarized
// at all (its own package, or a dependency with facts present) — the
// distinction between "summary says clean" and "never analyzed".
func (w *fnWalker) summaryKnown(fn *types.Func) bool {
	if fn.Pkg() == w.s.ip.pkg {
		return true
	}
	return w.s.ip.dep != nil && fn.Pkg() != nil && w.s.ip.dep(fn.Pkg().Path()) != nil
}

func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// applySummary folds a callee summary into the caller: result taint from
// Sources and Prop slots, stores via Taints and Flows, sink hits via
// Sinks, order-sensitive float accumulation via FloatAcc/RangeSum.
func (w *fnWalker) applySummary(call *ast.CallExpr, ops []ast.Expr, sum *FuncSummary, fn *types.Func) taintSet {
	opTaint := make([]taintSet, len(ops))
	for i, op := range ops {
		if op != nil {
			opTaint[i] = w.eval(op)
		}
	}
	res := taintSet{}.with(sum.Sources...)
	for slot, p := range sum.Prop {
		if p && slot < len(opTaint) {
			res = res.union(opTaint[slot])
		}
	}
	for slot, kinds := range sum.Sinks {
		if slot < len(opTaint) {
			w.sinkHit(call, kinds, opTaint[slot], fn)
		}
	}
	for slot, classes := range sum.Taints {
		if slot < len(ops) && ops[slot] != nil {
			if obj := rootObj(w.s.info, ops[slot]); obj != nil {
				w.addTaint(obj, taintSet{}.with(classes...))
			}
		}
	}
	for _, f := range sum.Flows {
		src, dst := f[0], f[1]
		if src < len(opTaint) && dst < len(ops) && ops[dst] != nil {
			if obj := rootObj(w.s.info, ops[dst]); obj != nil {
				w.addTaint(obj, opTaint[src])
			}
		}
	}
	for slot, acc := range sum.FloatAcc {
		if acc && slot < len(opTaint) {
			w.floatAccHit(call, opTaint[slot], fn)
		}
	}
	for slot, rs := range sum.RangeSum {
		if rs && slot < len(opTaint) {
			w.rangeSumHit(call, opTaint[slot], fn)
		}
	}
	return res
}

// floatAccHit handles an operand reaching a persistent float accumulator
// inside the callee (FloatAcc). Calling it from an order-sensitive loop
// with a per-iteration value is the Fig. 15 bug split across a call
// (h.Observe(v) inside a map range). Param-derived operands propagate the
// FloatAcc bit; rloop-derived operands mean the callee completes an
// ordered accumulation over a caller-supplied collection (RangeSum).
func (w *fnWalker) floatAccHit(call *ast.CallExpr, t taintSet, fn *types.Func) {
	if t[classMRange] && len(w.mapLoops) > 0 {
		w.s.record(IPFinding{Pos: call.Pos(), Kind: "floatsum", Class: classFPOrder,
			Detail: calleeLabel(fn)})
	}
	if w.sum == nil {
		return
	}
	for c := range t {
		if n, ok := strings.CutPrefix(c, "param:"); ok {
			w.markSlot(&w.sum.FloatAcc, n)
		}
		if n, ok := strings.CutPrefix(c, "rloop:"); ok {
			w.markSlot(&w.sum.RangeSum, n)
		}
	}
}

// rangeSumHit handles an operand whose collection the callee iterates in
// order while float-accumulating (RangeSum). Passing a collection whose
// element order is map-derived (fporder) reproduces Fig. 15 inside the
// callee; a param-derived collection propagates the bit.
func (w *fnWalker) rangeSumHit(call *ast.CallExpr, t taintSet, fn *types.Func) {
	if t[classFPOrder] {
		w.s.record(IPFinding{Pos: call.Pos(), Kind: "floatsum", Class: classFPOrder,
			Detail: calleeLabel(fn)})
	}
	if w.sum == nil {
		return
	}
	for c := range t {
		if n, ok := strings.CutPrefix(c, "param:"); ok {
			w.markSlot(&w.sum.RangeSum, n)
		}
	}
}

// sinkHit records findings for entropy classes reaching a sink, and
// propagates sinkness to the caller's summary for param-derived
// operands.
func (w *fnWalker) sinkHit(call *ast.CallExpr, kinds []string, t taintSet, fn *types.Func) {
	if len(t) == 0 {
		return
	}
	for _, class := range entropyClasses {
		if !t[class] {
			continue
		}
		for _, kind := range kinds {
			w.s.record(IPFinding{Pos: call.Pos(), Kind: "sink", Class: class, Sink: kind,
				Detail: calleeLabel(fn)})
		}
	}
	if w.sum != nil {
		for c := range t {
			if n, ok := strings.CutPrefix(c, "param:"); ok {
				if slot, err := strconv.Atoi(n); err == nil {
					w.addSlotSink(slot, kinds)
				}
			}
		}
	}
}

// applySinks handles an intrinsic sink callee: every listed slot is a
// sink of the given kinds.
func (w *fnWalker) applySinks(call *ast.CallExpr, ops []ast.Expr, kinds map[int][]string, fn *types.Func) {
	for slot, ks := range kinds {
		if slot < len(ops) && ops[slot] != nil {
			w.sinkHit(call, ks, w.eval(ops[slot]), fn)
		}
	}
	// Variadic tail: a sink taking ... (fmt-style report writers) sinks
	// every remaining argument under the last declared slot's kinds.
	if tail, ok := kinds[-1]; ok {
		for i := 1; i < len(ops); i++ {
			if ops[i] != nil {
				w.sinkHit(call, tail, w.eval(ops[i]), fn)
			}
		}
	}
}

func calleeLabel(fn *types.Func) string {
	if recv := recvNamedType(fn); recv != nil {
		return recv.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// sanitizerCall recognizes the sorting functions that fix an iteration
// order: in-place sorters kill the order classes on their argument's
// object; sorted-copy constructors return the input minus the order
// classes.
func (w *fnWalker) sanitizerCall(fn *types.Func, path string, call *ast.CallExpr) (taintSet, bool) {
	name := fn.Name()
	switch path {
	case "slices":
		switch name {
		case "Sort", "SortFunc", "SortStableFunc":
			w.sanitizeArg(call, 0)
			return nil, true
		case "Sorted", "SortedFunc", "SortedStableFunc":
			var t taintSet
			for _, a := range call.Args {
				t = t.union(w.eval(a))
			}
			return t.withoutOrder(), true
		}
	case "sort":
		switch name {
		case "Sort", "Stable", "Slice", "SliceStable", "Strings", "Ints", "Float64s":
			w.sanitizeArg(call, 0)
			return nil, true
		}
	}
	return nil, false
}

func (w *fnWalker) sanitizeArg(call *ast.CallExpr, i int) {
	if i >= len(call.Args) {
		return
	}
	obj := rootObj(w.s.info, call.Args[i])
	if obj == nil {
		return
	}
	w.s.sanit[obj] = true
	cur := w.env[obj]
	if isPackageLevel(obj) {
		cur = w.s.globals[obj]
	}
	if cur == nil {
		return
	}
	cleaned := cur.withoutOrder()
	if isPackageLevel(obj) {
		w.s.globals[obj] = cleaned
	} else {
		w.env[obj] = cleaned
	}
}

// intrinsicSourceClass classifies stdlib entropy entry points, reusing
// the nowallclock tables.
func intrinsicSourceClass(fn *types.Func, path string) string {
	if isMethod(fn) {
		return ""
	}
	name := fn.Name()
	switch path {
	case "time":
		if _, ok := bannedFuncs["time"][name]; ok {
			return classWall
		}
	case "os":
		if _, ok := bannedFuncs["os"][name]; ok {
			return classEnv
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[name] {
			return classRand
		}
	}
	return ""
}

// formatArgsContain reports whether any constant string argument of the
// call contains the given verb.
func formatArgsContain(call *ast.CallExpr, verb string) bool {
	for _, a := range call.Args {
		if lit, ok := ast.Unparen(a).(*ast.BasicLit); ok && strings.Contains(lit.Value, verb) {
			return true
		}
	}
	return false
}

// isSimPackageFunc reports whether fn belongs to a package named "sim"
// (the real simulator core or its fixture mirror).
func isSimPackageFunc(fn *types.Func) bool {
	return fn.Pkg() != nil && fn.Pkg().Name() == "sim"
}

// isSystemScheduleCall matches the System's scheduling surface.
func isSystemScheduleCall(fn *types.Func) bool {
	if !isSimPackageFunc(fn) {
		return false
	}
	switch fn.Name() {
	case "Schedule", "ScheduleIn", "Reschedule":
	default:
		return false
	}
	recv := recvNamedType(fn)
	return recv != nil && recv.Obj().Name() == "System"
}

// intrinsicSinkSlots returns the sink kinds per slot for the known
// determinism-critical entry points, nil when fn is not one. Slot -1
// marks a variadic tail sink.
func intrinsicSinkSlots(fn *types.Func, path string) map[int][]string {
	name := fn.Name()
	if isSimPackageFunc(fn) && isMethod(fn) {
		if recv := recvNamedType(fn); recv != nil && recv.Obj().Name() == "Registry" {
			switch name {
			case "Scalar", "Counter", "Formula", "Histogram":
				return map[int][]string{1: {sinkStat}, 2: {sinkStat}}
			}
		}
		switch name {
		case "Set", "Add", "Addn", "Inc", "Observe":
			if recv := recvNamedType(fn); recv != nil {
				switch recv.Obj().Name() {
				case "Scalar", "Counter", "Histogram":
					return map[int][]string{1: {sinkStat}}
				}
			}
		case "RegisterFunc", "AllocData", "Data", "Call":
			// The Tracer surface (interface and implementations alike).
			return map[int][]string{1: {sinkTrace}, 2: {sinkTrace}, 3: {sinkTrace}}
		}
	}
	if strings.HasPrefix(path, "gem5prof") {
		switch name {
		case "TakeCheckpoint", "EncodeCheckpoint", "Serialize":
			return map[int][]string{0: {sinkCkpt}, 1: {sinkCkpt}, 2: {sinkCkpt}}
		case "Render":
			if isMethod(fn) {
				return map[int][]string{0: {sinkReport}, 1: {sinkReport}}
			}
		}
	}
	if path == "os" && name == "WriteFile" {
		return map[int][]string{1: {sinkReport}, 2: {sinkReport}}
	}
	return nil
}
