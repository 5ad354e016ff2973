// Package locksafe flags re-entrant mutex acquisition — taking a
// sync.Mutex/RWMutex that the current call path already holds, either
// directly or by calling a same-package function whose (transitive)
// body acquires it — and reassignment of sync/atomic-typed fields,
// which must only be touched through their Load/Store/Add methods.
//
// This is the static form of the Deployment locking contract in
// DESIGN.md: d.mu and d.state are acquired in leaf sections
// that never call back into locking methods, and d.version is an
// atomic.Uint64 so Version() stays wait-free during Apply. Go mutexes
// are not re-entrant, so every violation is a real deadlock waiting for
// the right interleaving.
//
// The held-set tracking is intentionally conservative: acquisitions
// inside a branch do not leak out of it, closure bodies are analyzed as
// separate functions, and lock identity is the mutex variable or field
// object — two different struct instances sharing a field object can
// produce a false positive, which an explicit //lint:allow locksafe
// annotation silences with a reason.
package locksafe

import (
	"go/ast"
	"go/token"
	"go/types"

	"dgs/internal/analysis"
)

// Analyzer implements the locksafe check.
var Analyzer = &analysis.Analyzer{
	Name: "locksafe",
	Doc:  "flags re-entrant mutex acquisition (direct or via same-package calls) and reassignment of sync/atomic fields",
	Run:  run,
}

// lockOp classifies one mutex method call.
type lockOp int

const (
	opNone   lockOp = iota
	opLock          // Lock, RLock
	opUnlock        // Unlock, RUnlock
)

func run(pass *analysis.Pass) error {
	info := pass.Pkg.Info

	// Pass 1: per-function acquire sets (locks a body takes anywhere,
	// closures excluded) and the package-local call graph.
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, file := range pass.Pkg.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}
	acquires := map[*types.Func]map[types.Object]bool{}
	calls := map[*types.Func][]*types.Func{}
	for fn, fd := range decls {
		acq := map[types.Object]bool{}
		var callees []*types.Func
		inspectSkippingFuncLits(fd.Body, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			if obj, op := lockTarget(info, call); obj != nil && op == opLock {
				acq[obj] = true
			}
			if callee := calleeFunc(info, call); callee != nil {
				if _, local := decls[callee]; local {
					callees = append(callees, callee)
				}
			}
		})
		acquires[fn] = acq
		calls[fn] = callees
	}
	// Transitive closure: a function "acquires" what its callees acquire.
	for changed := true; changed; {
		changed = false
		for fn, callees := range calls {
			for _, callee := range callees {
				for obj := range acquires[callee] {
					if !acquires[fn][obj] {
						acquires[fn][obj] = true
						changed = true
					}
				}
			}
		}
	}

	// Pass 2: walk each body tracking the held set along the straight
	// line, branching with copies.
	w := &walker{pass: pass, info: info, decls: decls, acquires: acquires}
	for _, fd := range decls {
		w.block(fd.Body.List, map[types.Object]token.Pos{})
	}

	// Pass 3: atomic field hygiene.
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			assign, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, lhs := range assign.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if obj := info.Uses[sel.Sel]; obj != nil && isAtomicType(obj.Type()) {
					pass.Reportf(assign.Pos(), "sync/atomic field %s reassigned; use its Store method", obj.Name())
				}
			}
			return true
		})
	}
	return nil
}

// walker tracks held locks through a statement list.
type walker struct {
	pass     *analysis.Pass
	info     *types.Info
	decls    map[*types.Func]*ast.FuncDecl
	acquires map[*types.Func]map[types.Object]bool
}

// block processes stmts sequentially, mutating held; nested control-flow
// bodies get copies so branch-local unlocks/acquisitions don't leak.
func (w *walker) block(stmts []ast.Stmt, held map[types.Object]token.Pos) {
	for _, s := range stmts {
		w.stmt(s, held)
	}
}

func copyHeld(held map[types.Object]token.Pos) map[types.Object]token.Pos {
	c := make(map[types.Object]token.Pos, len(held))
	for k, v := range held {
		c[k] = v
	}
	return c
}

func (w *walker) stmt(s ast.Stmt, held map[types.Object]token.Pos) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		w.block(st.List, held)
	case *ast.IfStmt:
		if st.Init != nil {
			w.stmt(st.Init, held)
		}
		w.exprCalls(st.Cond, held, false)
		w.stmt(st.Body, copyHeld(held))
		if st.Else != nil {
			w.stmt(st.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if st.Init != nil {
			w.stmt(st.Init, held)
		}
		if st.Cond != nil {
			w.exprCalls(st.Cond, held, false)
		}
		body := copyHeld(held)
		w.stmt(st.Body, body)
		if st.Post != nil {
			w.stmt(st.Post, body)
		}
	case *ast.RangeStmt:
		w.exprCalls(st.X, held, false)
		w.stmt(st.Body, copyHeld(held))
	case *ast.SwitchStmt:
		if st.Init != nil {
			w.stmt(st.Init, held)
		}
		if st.Tag != nil {
			w.exprCalls(st.Tag, held, false)
		}
		for _, c := range st.Body.List {
			w.stmt(c, copyHeld(held))
		}
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			w.stmt(st.Init, held)
		}
		for _, c := range st.Body.List {
			w.stmt(c, copyHeld(held))
		}
	case *ast.CaseClause:
		for _, e := range st.List {
			w.exprCalls(e, held, false)
		}
		w.block(st.Body, held)
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			w.stmt(c, copyHeld(held))
		}
	case *ast.CommClause:
		if st.Comm != nil {
			w.stmt(st.Comm, held)
		}
		w.block(st.Body, held)
	case *ast.LabeledStmt:
		w.stmt(st.Stmt, held)
	case *ast.GoStmt:
		// A goroutine does not run while the caller holds the lock; its
		// body is analyzed as an independent function.
	case *ast.DeferStmt:
		// A deferred unlock keeps the lock held to function end; a
		// deferred call that acquires a held lock is registered while
		// held and may run before the unlock, so it is still reported.
		if obj, op := lockTarget(w.info, st.Call); obj != nil {
			if op == opUnlock {
				return // held until the end of the function: keep it set
			}
			w.checkAcquire(st.Call, obj, held)
			return
		}
		w.exprCalls(st.Call, held, true)
	default:
		ast.Inspect(s, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				w.stmt(n.Body, map[types.Object]token.Pos{})
				return false
			case *ast.CallExpr:
				w.call(n, held)
			}
			return true
		})
	}
}

// exprCalls processes the calls inside a bare expression.
func (w *walker) exprCalls(e ast.Expr, held map[types.Object]token.Pos, includeSelf bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.stmt(n.Body, map[types.Object]token.Pos{})
			return false
		case *ast.CallExpr:
			if n == e && !includeSelf {
				return true
			}
			w.call(n, held)
		}
		return true
	})
}

// call handles one call expression against the current held set.
func (w *walker) call(call *ast.CallExpr, held map[types.Object]token.Pos) {
	if obj, op := lockTarget(w.info, call); obj != nil {
		switch op {
		case opLock:
			w.checkAcquire(call, obj, held)
			held[obj] = call.Pos()
		case opUnlock:
			delete(held, obj)
		}
		return
	}
	if len(held) == 0 {
		return
	}
	callee := calleeFunc(w.info, call)
	if callee == nil {
		return
	}
	if _, local := w.decls[callee]; !local {
		return
	}
	for obj := range w.acquires[callee] {
		if pos, ok := held[obj]; ok {
			w.pass.Reportf(call.Pos(), "call to %s acquires %s, already held since %s (re-entrant locking deadlocks)",
				callee.Name(), obj.Name(), w.pass.Fset.Position(pos))
		}
	}
}

func (w *walker) checkAcquire(call *ast.CallExpr, obj types.Object, held map[types.Object]token.Pos) {
	if pos, ok := held[obj]; ok {
		w.pass.Reportf(call.Pos(), "re-entrant acquisition of %s, already held since %s (Go mutexes do not nest)",
			obj.Name(), w.pass.Fset.Position(pos))
	}
}

// inspectSkippingFuncLits visits every node except closure bodies.
func inspectSkippingFuncLits(root ast.Node, fn func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// lockTarget resolves call to (mutex identity, op) when it invokes a
// sync.Mutex/RWMutex lock method; identity is the mutex field or
// variable object.
func lockTarget(info *types.Info, call *ast.CallExpr) (types.Object, lockOp) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, opNone
	}
	var op lockOp
	switch sel.Sel.Name {
	case "Lock", "RLock":
		op = opLock
	case "Unlock", "RUnlock":
		op = opUnlock
	default:
		return nil, opNone
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, opNone
	}
	// d.mu.Lock(): identity is the mu field; mu.Lock(): the mu variable;
	// embedded mutex d.Lock(): the embedded field, resolved through the
	// method selection's index path.
	switch x := sel.X.(type) {
	case *ast.SelectorExpr:
		if s := info.Selections[x]; s != nil {
			return s.Obj(), op
		}
		if obj := info.Uses[x.Sel]; obj != nil {
			return obj, op // package-qualified or field var
		}
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			return nil, opNone
		}
		if isMutexType(obj.Type()) {
			return obj, op
		}
		// Embedded: resolve the field the promoted method travels through.
		if s := info.Selections[sel]; s != nil {
			if f := embeddedLockField(s); f != nil {
				return f, op
			}
		}
	}
	return nil, opNone
}

// embeddedLockField digs the mutex field out of a promoted method
// selection (receiver.Lock() with an embedded sync.Mutex).
func embeddedLockField(s *types.Selection) types.Object {
	t := s.Recv()
	idx := s.Index()
	for _, i := range idx[:len(idx)-1] {
		st, ok := deref(t).Underlying().(*types.Struct)
		if !ok {
			return nil
		}
		f := st.Field(i)
		if isMutexType(f.Type()) {
			return f
		}
		t = f.Type()
	}
	return nil
}

func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	id := analysis.CalleeIdent(call)
	if id == nil {
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

func isMutexType(t types.Type) bool {
	n, ok := deref(t).(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "sync" && (n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex")
}

func isAtomicType(t types.Type) bool {
	n, ok := deref(t).(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync/atomic"
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
