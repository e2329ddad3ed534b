package planner

import (
	"fmt"
	"math"

	"lpath/internal/lpath"
)

// Predicate planning: estimate each conjunct's selectivity and per-candidate
// cost, and — for existential path filters — decide between the forward
// strategy (evaluate the filter path from every candidate) and a reverse
// semijoin (materialize the filter's satisfier set once from its selective
// end, then test candidates by membership).

// selFloor keeps selectivities strictly positive so downstream estimates
// stay ordered instead of collapsing to zero.
const selFloor = 1e-4

func clampSel(s float64) float64 {
	if s < selFloor {
		return selFloor
	}
	if s > 1 {
		return 1
	}
	return s
}

// planExpr estimates one predicate expression evaluated against nCtx
// candidate rows of shape c.
func (pl *Planner) planExpr(x lpath.Expr, c ectx, nCtx float64, plan *Plan) *PredPlan {
	pp := &PredPlan{Expr: x}
	switch e := x.(type) {
	case *lpath.AndExpr:
		l := pl.planExpr(e.L, c, nCtx, plan)
		r := pl.planExpr(e.R, c, nCtx*l.Sel, plan)
		pp.Sel = clampSel(l.Sel * r.Sel)
		pp.Cost = l.Cost + l.Sel*r.Cost
		pp.Paths = append(append(pp.Paths, l.Paths...), r.Paths...)

	case *lpath.OrExpr:
		l := pl.planExpr(e.L, c, nCtx, plan)
		r := pl.planExpr(e.R, c, nCtx*(1-l.Sel), plan)
		pp.Sel = clampSel(1 - (1-l.Sel)*(1-r.Sel))
		pp.Cost = l.Cost + (1-l.Sel)*r.Cost
		pp.Paths = append(append(pp.Paths, l.Paths...), r.Paths...)

	case *lpath.NotExpr:
		inner := pl.planExpr(e.X, c, nCtx, plan)
		pp.Sel = clampSel(1 - inner.Sel)
		pp.Cost = inner.Cost
		pp.Paths = inner.Paths

	case *lpath.PositionExpr, *lpath.LastExpr:
		pp.Sel, pp.Cost = 0.5, 0

	case *lpath.CountExpr:
		hp := pl.planPath(e.Path, c, 1, plan)
		pp.Sel = 0.5
		pp.Cost = hp.cost
		pp.Paths = []*PathPlan{hp}

	case *lpath.StrFnExpr:
		head, _, err := lpath.SplitAttr(e.Path)
		if err != nil || head == nil {
			pp.Sel, pp.Cost = 0.1, 1
			break
		}
		hp := pl.planPath(head, c, 1, plan)
		pp.Sel = clampSel(math.Min(1, hp.EstOut) * 0.1)
		pp.Cost = hp.cost + 1
		pp.Paths = []*PathPlan{hp}

	case *lpath.PathExpr:
		return pl.planExistential(x, e.Path, "", "", c, nCtx, plan)

	case *lpath.CmpExpr:
		return pl.planExistential(x, e.Path, e.Op, e.Value, c, nCtx, plan)

	default:
		pp.Sel, pp.Cost = 0.5, 1
	}
	return pp
}

// attrShare is the probability that an element carries the attribute.
func (pl *Planner) attrShare(attr string) float64 {
	if pl.elements == 0 {
		return 0
	}
	return math.Min(1, float64(pl.st.AttrNames["@"+attr])/pl.elements)
}

// planExistential estimates an existence filter [path] or comparison
// [path op 'value'] and registers a semijoin when the reverse strategy is
// modeled cheaper.
func (pl *Planner) planExistential(x lpath.Expr, path *lpath.Path, op, value string, c ectx, nCtx float64, plan *Plan) *PredPlan {
	pp := &PredPlan{Expr: x}
	head, attr, err := lpath.SplitAttr(path)
	if err != nil {
		// Unreachable after Validate; keep neutral estimates.
		pp.Sel, pp.Cost = 0.5, 1
		return pp
	}
	if head == nil {
		// Attribute of the context node itself: one index lookup.
		pp.Cost = 1
		switch op {
		case "=":
			pp.Sel = clampSel(math.Min(pl.attrShare(attr),
				float64(pl.st.PostingCount(value))/math.Max(pl.nameCount(c.test), 1)))
			pp.Note = "attr probe"
		case "!=":
			pp.Sel = clampSel(pl.attrShare(attr) * 0.9)
		default:
			pp.Sel = clampSel(pl.attrShare(attr))
		}
		return pp
	}

	hp := pl.planPath(head, c, 1, plan)
	pp.Paths = []*PathPlan{hp}
	m := hp.EstOut
	lastTest := lastStepTest(head)
	switch {
	case attr == "":
		pp.Sel = clampSel(math.Min(1, m))
	case op == "=":
		pv := float64(pl.st.PostingCount(value)) / math.Max(pl.nameCount(lastTest), 1)
		pp.Sel = clampSel(m * math.Min(pv, 1))
	case op == "!=":
		pp.Sel = clampSel(m * pl.attrShare(attr) * 0.9)
	default:
		pp.Sel = clampSel(m * pl.attrShare(attr))
	}
	pp.Cost = hp.cost + 1

	if sj := pl.planSemijoin(x, head, hp, attr, op, value, c, nCtx, pp.Cost); sj != nil {
		plan.semis[x] = sj
		pp.Note = fmt.Sprintf("semijoin (seed=%s ~%s rows, set ~%s)",
			sj.Seed, card(sj.EstSeed), card(sj.EstSet))
		// Amortized per-candidate cost once the set exists.
		pp.Cost = sj.EstReverse / math.Max(nCtx, 1)
	}
	return pp
}

// planSemijoin models the reverse strategy for the filter and returns it
// when it is both sound (reversible axes, no alignment, no positional or
// error-capable predicates, no subtree scope inside the filter) and modeled
// sufficiently cheaper than evaluating the filter forward from each of the
// nCtx candidates.
func (pl *Planner) planSemijoin(x lpath.Expr, head *lpath.Path, hp *PathPlan, attr, op, value string, c ectx, nCtx, fwdCost float64) *Semijoin {
	if !reversible(head) {
		return nil
	}
	steps := head.Steps
	k := len(steps)
	last := &steps[k-1]

	sj := &Semijoin{Expr: x, Head: head, Attr: attr, Op: op, Value: value}
	var seedCost float64
	switch {
	case op == "=" && attr != "" && !pl.noValue:
		sj.Seed = SeedValue
		sj.SeedValue, sj.SeedAttr = value, "@"+attr
		sj.EstSeed = float64(pl.st.PostingCount(value))
		seedCost = math.Max(sj.EstSeed, 1)
		sj.EstSeed *= predSel(hp.Steps[k-1])
	default:
		if v, a, ok := directEq(last); ok && !pl.noValue &&
			float64(pl.st.PostingCount(v)) < pl.nameCount(last.Test) {
			sj.Seed = SeedValue
			sj.SeedValue, sj.SeedAttr = v, "@"+a
			sj.EstSeed = float64(pl.st.PostingCount(v))
			seedCost = math.Max(sj.EstSeed, 1)
			// The posting list already enforces the driving equality; only
			// the remaining predicates thin the seed further.
			sj.EstSeed *= predSelExcluding(hp.Steps[k-1], v, "@"+a)
		} else {
			sj.Seed = SeedName
			sj.EstSeed = pl.nameCount(last.Test)
			seedCost = math.Max(sj.EstSeed, 1)
			sj.EstSeed *= predSel(hp.Steps[k-1])
		}
		if attr != "" {
			sj.EstSeed *= pl.attrShare(attr)
		}
	}

	// Walk the inverse axes from the seed level back to the head of the
	// filter path, capping each level at its name cardinality.
	r := sj.EstSeed
	revCost := seedCost
	for i := k - 1; i >= 1; i-- {
		inv, _ := lpath.InverseAxis(steps[i].Axis)
		cctx := ectx{test: steps[i].Test, span: pl.spanOf(steps[i].Test)}
		cands, cost, _ := pl.probe(cctx, inv, steps[i-1].Test)
		revCost += r * cost
		r = math.Min(pl.nameCount(steps[i-1].Test), r*cands) * predSel(hp.Steps[i-1])
	}
	inv0, _ := lpath.InverseAxis(steps[0].Axis)
	cands, cost, _ := pl.probe(ectx{test: steps[0].Test, span: pl.spanOf(steps[0].Test)}, inv0, "_")
	revCost += r * cost
	sj.EstSet = math.Min(pl.elements, r*cands)
	revCost += nCtx // one membership probe per candidate

	sj.EstForward = nCtx * fwdCost
	sj.EstReverse = revCost
	if revCost >= semijoinAdvantage*sj.EstForward {
		return nil
	}
	return sj
}

// lastStepTest is the node test of the path's final location step (its
// innermost scoped tail), or "_" when the path navigates by scope alone.
func lastStepTest(p *lpath.Path) string {
	test := "_"
	for q := p; q != nil; q = q.Scoped {
		if n := len(q.Steps); n > 0 {
			test = q.Steps[n-1].Test
		}
	}
	return test
}

// predSel is the combined selectivity of a planned step's predicates.
func predSel(sp *StepPlan) float64 {
	s := 1.0
	for _, p := range sp.Preds {
		s *= p.Sel
	}
	return s
}

// predSelExcluding is predSel with the consumed @attr=value equality left
// out (its selectivity is already paid by the posting-list seed).
func predSelExcluding(sp *StepPlan, value, attrName string) float64 {
	s := 1.0
	for _, p := range sp.Preds {
		if consumedByValue(p.Expr, value, attrName) {
			continue
		}
		s *= p.Sel
	}
	return s
}

// reversible reports whether the filter path can be evaluated backwards with
// identical semantics: every axis invertible, no attribute axis mid-path, no
// edge alignment (it binds to the outer context), no positional predicates
// (their counting context is forward-only), no subtree scope, and no
// predicate that could raise a runtime error (reversal changes which rows a
// predicate is evaluated on, and must not change whether an error surfaces).
func reversible(head *lpath.Path) bool {
	if head == nil || head.Scoped != nil || len(head.Steps) == 0 {
		return false
	}
	for i := range head.Steps {
		s := &head.Steps[i]
		if s.Axis == lpath.AxisAttribute || s.LeftAlign || s.RightAlign || s.HasPositional() {
			return false
		}
		if _, ok := lpath.InverseAxis(s.Axis); !ok {
			return false
		}
		if predsCanError(s.Preds) {
			return false
		}
	}
	return true
}

// --- runtime-error analysis -----------------------------------------------

// Validate rejects almost every malformed query before evaluation, but
// count()'s path is validated as a predicate path and may legally contain an
// attribute step that the join pipeline then rejects at runtime — and only
// if evaluation actually reaches it. Reordering predicates or reversing a
// filter changes which rows (and hence whether) such a predicate runs, so
// any predicate that could error pins the written order.

func predsCanError(preds []lpath.Expr) bool {
	for _, p := range preds {
		if exprCanError(p) {
			return true
		}
	}
	return false
}

func exprCanError(x lpath.Expr) bool {
	switch e := x.(type) {
	case *lpath.AndExpr:
		return exprCanError(e.L) || exprCanError(e.R)
	case *lpath.OrExpr:
		return exprCanError(e.L) || exprCanError(e.R)
	case *lpath.NotExpr:
		return exprCanError(e.X)
	case *lpath.PathExpr:
		return pathPredsCanError(e.Path)
	case *lpath.CmpExpr:
		return pathPredsCanError(e.Path)
	case *lpath.StrFnExpr:
		return pathPredsCanError(e.Path)
	case *lpath.CountExpr:
		return pathHasAttrStep(e.Path) || pathPredsCanError(e.Path)
	}
	return false
}

func pathHasAttrStep(p *lpath.Path) bool {
	for q := p; q != nil; q = q.Scoped {
		for i := range q.Steps {
			if q.Steps[i].Axis == lpath.AxisAttribute {
				return true
			}
		}
	}
	return false
}

func pathPredsCanError(p *lpath.Path) bool {
	for q := p; q != nil; q = q.Scoped {
		for i := range q.Steps {
			if predsCanError(q.Steps[i].Preds) {
				return true
			}
		}
	}
	return false
}
