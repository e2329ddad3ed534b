package engine

import (
	"lpath/internal/bitset"
	"lpath/internal/lpath"
	"lpath/internal/planner"
	"lpath/internal/relstore"
)

// Bitmap execution: dense-bitset kernels over the columnar row index
// (docs/EXECUTION.md, "Bitmap filter kernels"). Two pieces share the
// machinery:
//
//   - The scope-entry kernel replaces the scoped branch's per-scope
//     expansion: the scope frontier becomes one bitset, the entry step's
//     clustered posting range is walked once, and scope membership resolves
//     through the store's parent-pointer column — one array load and a bit
//     test for the child axis, a parent-chain climb for descendants, cut
//     short by edge alignment (rights never decrease and lefts never grow
//     while climbing, so a climb past the first non-aligned ancestor cannot
//     realign).
//
//   - Satisfier bitsets replace the map-based semijoin sets for unscoped
//     filters, and boolean combinations of semijoin-backed filters combine
//     with word-parallel And/Or/AndNot instead of per-candidate recursion.
//     Negations stay symbolic (a complement flag) so no kernel ever
//     materializes the complement of a sparse set.
//
// Both kernels are result-identical to the probe path by construction: the
// scope-entry emits exactly the (row, scope) pairs the scoped expansion
// would after its dedup, and eager satisfier materialization is safe because
// the planner's reversibility gate only registers semijoins on filters that
// cannot error.

// useBitmapEntry decides whether a subtree-scoped tail enters through the
// bitmap kernel. Under bitmapAuto the plan's cost-marked entry decides —
// except when a forced merge or twig mode is measuring a specific executor
// the kernel would shadow. bitmapAlways forces every shape-eligible entry.
func (e *Engine) useBitmapEntry(tail *lpath.Path, ctx *evalCtx) bool {
	if e.bitmap == bitmapOff || len(tail.Steps) == 0 {
		return false
	}
	step := &tail.Steps[0]
	if !planner.BitmapEntryStep(step) {
		return false
	}
	if e.bitmap == bitmapAlways {
		return true
	}
	if e.exec == execAlways || e.twig == twigAlways {
		return false
	}
	sp := ctx.stepPlan(step)
	return sp != nil && sp.Strategy == planner.StrategyBitmap
}

// evalBitmapScoped evaluates a subtree-scoped tail whose first step runs as
// a bitmap scope entry, then re-enters the regular pipeline for the
// remaining steps. cur is read-only here; the caller releases it.
func (e *Engine) evalBitmapScoped(tail *lpath.Path, cur []bind, ctx *evalCtx) ([]bind, error) {
	entry, err := e.bitmapEntry(&tail.Steps[0], cur, ctx)
	if err != nil {
		return nil, err
	}
	if len(entry) == 0 {
		ctx.ar.putBinds(entry)
		return nil, nil
	}
	return e.evalSteps(tail, 1, entry, true, ctx)
}

// bitmapEntry evaluates a scoped tail's first step set-at-a-time. It emits
// every (candidate, scope) pair the scoped probe expansion would — in
// posting order rather than per-scope order, which no downstream consumer
// observes (final results sort, counts are multiset sizes, and each pair is
// emitted exactly once, matching the probe path's cross-binding dedup).
func (e *Engine) bitmapEntry(step *lpath.Step, cur []bind, ctx *evalCtx) ([]bind, error) {
	sp := ctx.stepPlan(step)
	preds := step.Preds
	if sp != nil && sp.Reordered {
		preds = sp.PredExprs()
	}

	// The scope frontier as a bitset; the virtual root stands for every tree
	// root (within the streaming tid window, when one is active). The scope
	// rows themselves came from a windowed pipeline, so no further clamp is
	// needed.
	scopeBits := ctx.ar.getBitset(e.s.Len())
	for _, b := range cur {
		if b.row == noRow {
			for _, ri := range e.narrowToWindow(e.s.Roots(), ctx) {
				scopeBits.Set(ri)
			}
			continue
		}
		scopeBits.Set(b.row)
	}

	// The step's candidates: one clustered posting range (wildcards use the
	// document-order element index), narrowed to the window. Borrowed from
	// the store — never mutated.
	var cands []int32
	if step.Wildcard() {
		cands = e.narrowToWindow(e.s.ElementsByLeft(), ctx)
	} else if lo, hi, ok := e.s.NameRange(step.Test); ok {
		cands = e.narrowToWindow(e.s.RowSeq()[lo:hi], ctx)
	}

	parents := e.s.ParentRows()
	cols := e.s.Cols()
	lefts, rights := cols.Left, cols.Right
	out := ctx.ar.getBinds()
	fail := func(err error) ([]bind, error) {
		ctx.ar.putBitset(scopeBits)
		ctx.ar.putBinds(out)
		return nil, err
	}
	for _, x := range cands {
		if ctx.interrupted() {
			return fail(ctx.cerr)
		}
		if step.Axis == lpath.AxisChild {
			p := parents[x]
			if p == relstore.NoParent || !scopeBits.Has(p) {
				continue
			}
			if step.LeftAlign && lefts[x] != lefts[p] {
				continue
			}
			if step.RightAlign && rights[x] != rights[p] {
				continue
			}
			ok, err := e.bitmapPredsHold(preds, bind{row: x, scope: p}, ctx)
			if err != nil {
				return fail(err)
			}
			if ok {
				out = append(out, bind{row: x, scope: p})
			}
			continue
		}
		// Descendant axes: every scope containing x lies on x's parent chain.
		// descendant-or-self additionally admits x as its own scope (trivially
		// aligned).
		if step.Axis == lpath.AxisDescendantOrSelf && scopeBits.Has(x) {
			ok, err := e.bitmapPredsHold(preds, bind{row: x, scope: x}, ctx)
			if err != nil {
				return fail(err)
			}
			if ok {
				out = append(out, bind{row: x, scope: x})
			}
		}
		for p := parents[x]; p != relstore.NoParent; p = parents[p] {
			if step.LeftAlign && lefts[p] != lefts[x] {
				break
			}
			if step.RightAlign && rights[p] != rights[x] {
				break
			}
			if !scopeBits.Has(p) {
				continue
			}
			ok, err := e.bitmapPredsHold(preds, bind{row: x, scope: p}, ctx)
			if err != nil {
				return fail(err)
			}
			if ok {
				out = append(out, bind{row: x, scope: p})
			}
		}
	}
	ctx.ar.putBitset(scopeBits)
	ctx.countStep(sp, len(out))
	return out, nil
}

// bitmapPredsHold runs the entry step's predicate pipeline on one emitted
// binding. BitmapEntryStep excluded positional predicates, so the (1, 1)
// positional context is inert.
func (e *Engine) bitmapPredsHold(preds []lpath.Expr, b bind, ctx *evalCtx) (bool, error) {
	for _, pred := range preds {
		ok, err := e.evalExpr(pred, b, 1, 1, ctx)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// predBits resolves a predicate to one satisfier bitset plus a complement
// flag, when every leaf of its boolean combination carries a planned
// semijoin. Combinations memoize per (expression, scope) like the leaf sets;
// negation flips the flag and the And/Or cases apply De Morgan so the result
// is always a positive set under And/Or/AndNot kernels. ok is false when
// some leaf has no semijoin (positional, count, string-function or
// forward-only predicates) — the caller falls back to per-candidate
// evaluation. Eager materialization of branches a short-circuit would skip
// is safe: the planner's reversibility gate admits only error-free filters.
func (e *Engine) predBits(x lpath.Expr, scope int32, ctx *evalCtx) (set *bitset.Set, negated, ok bool, err error) {
	switch t := x.(type) {
	case *lpath.NotExpr:
		set, negated, ok, err = e.predBits(t.X, scope, ctx)
		return set, !negated, ok, err
	case *lpath.AndExpr, *lpath.OrExpr:
		key := satKey{expr: x, scope: scope}
		if s, hit := ctx.satBits[key]; hit {
			return s, ctx.satNeg[key], true, nil
		}
		var l, r lpath.Expr
		_, isAnd := t.(*lpath.AndExpr)
		if isAnd {
			a := t.(*lpath.AndExpr)
			l, r = a.L, a.R
		} else {
			o := t.(*lpath.OrExpr)
			l, r = o.L, o.R
		}
		ls, ln, lok, lerr := e.predBits(l, scope, ctx)
		if lerr != nil || !lok {
			return nil, false, false, lerr
		}
		rs, rn, rok, rerr := e.predBits(r, scope, ctx)
		if rerr != nil || !rok {
			return nil, false, false, rerr
		}
		res := ctx.ar.getBitset(e.s.Len())
		var neg bool
		switch {
		case isAnd && !ln && !rn: // L ∧ R
			res.CopyFrom(ls)
			res.And(rs)
		case isAnd && ln && rn: // ¬L ∧ ¬R = ¬(L ∨ R)
			res.CopyFrom(ls)
			res.Or(rs)
			neg = true
		case isAnd && ln: // ¬L ∧ R = R ∖ L
			res.CopyFrom(rs)
			res.AndNot(ls)
		case isAnd: // L ∧ ¬R = L ∖ R
			res.CopyFrom(ls)
			res.AndNot(rs)
		case !ln && !rn: // L ∨ R
			res.CopyFrom(ls)
			res.Or(rs)
		case ln && rn: // ¬L ∨ ¬R = ¬(L ∧ R)
			res.CopyFrom(ls)
			res.And(rs)
			neg = true
		case ln: // ¬L ∨ R = ¬(L ∖ R)
			res.CopyFrom(ls)
			res.AndNot(rs)
			neg = true
		default: // L ∨ ¬R = ¬(R ∖ L)
			res.CopyFrom(rs)
			res.AndNot(ls)
			neg = true
		}
		if ctx.satBits == nil {
			ctx.satBits = make(map[satKey]*bitset.Set)
		}
		ctx.satBits[key] = res
		if neg {
			if ctx.satNeg == nil {
				ctx.satNeg = make(map[satKey]bool)
			}
			ctx.satNeg[key] = true
		}
		return res, neg, true, nil
	default:
		sj := ctx.semijoin(x)
		if sj == nil {
			return nil, false, false, nil
		}
		s, serr := e.satisfierBits(sj, x, scope, ctx)
		if serr != nil {
			return nil, false, false, serr
		}
		return s, false, true, nil
	}
}

// satisfierBits is the bitset counterpart of semiHolds' satisfier sets,
// memoized per (filter expression, scope) on the evaluation context and
// recycled through the arena between evaluations.
func (e *Engine) satisfierBits(sj *planner.Semijoin, x lpath.Expr, scope int32, ctx *evalCtx) (*bitset.Set, error) {
	key := satKey{expr: x, scope: scope}
	if set, ok := ctx.satBits[key]; ok {
		return set, nil
	}
	set, err := e.bitsetSatisfiers(sj, x, scope, ctx)
	if err != nil {
		return nil, err
	}
	if ctx.satBits == nil {
		ctx.satBits = make(map[satKey]*bitset.Set)
	}
	ctx.satBits[key] = set
	return set, nil
}

// bitsetSatisfiers mirrors satisfiers (semijoin.go) with dense sets: the
// per-level dedup map becomes one pooled bitset cleared between levels, and
// the final satisfier set is a bitset ready for word-parallel combination.
func (e *Engine) bitsetSatisfiers(sj *planner.Semijoin, x lpath.Expr, scope int32, ctx *evalCtx) (*bitset.Set, error) {
	steps := sj.Head.Steps
	cur, err := e.semiSeeds(sj, scope, ctx)
	if err != nil {
		return nil, err
	}
	nSeeds := len(cur)

	seen := ctx.ar.getBitset(e.s.Len())
	for i := len(steps) - 1; i >= 1 && len(cur) > 0; i-- {
		inv, _ := lpath.InverseAxis(steps[i].Axis)
		prev := &steps[i-1]
		synth := lpath.Step{Axis: inv, Test: prev.Test}
		next := cur[:0:0]
		seen.Reset(e.s.Len())
		for _, ri := range cur {
			cands, borrowed := e.axisCandidates(&synth, bind{row: ri, scope: scope}, ctx)
			for _, ci := range cands {
				if seen.Has(ci) {
					continue
				}
				seen.Set(ci)
				if !e.inScopeRow(scope, ci) {
					continue
				}
				ok, perr := e.semiPredsHold(prev.Preds, ci, scope, "", "", ctx)
				if perr != nil {
					if !borrowed {
						ctx.ar.putInts(cands)
					}
					ctx.ar.putBitset(seen)
					return nil, perr
				}
				if ok {
					next = append(next, ci)
				}
			}
			if !borrowed {
				ctx.ar.putInts(cands)
			}
		}
		cur = next
	}
	ctx.ar.putBitset(seen)

	out := ctx.ar.getBitset(e.s.Len())
	inv0, _ := lpath.InverseAxis(steps[0].Axis)
	synth := lpath.Step{Axis: inv0, Test: "_"}
	for _, ri := range cur {
		cands, borrowed := e.axisCandidates(&synth, bind{row: ri, scope: scope}, ctx)
		for _, ci := range cands {
			out.Set(ci)
		}
		if !borrowed {
			ctx.ar.putInts(cands)
		}
	}
	if ctx.act != nil {
		ctx.countSemi(x, nSeeds, out.Count())
	}
	return out, nil
}
