package lpath

import (
	"reflect"
	"strings"
	"testing"
)

// TestPlannerResultIdentity is the optimizer's acceptance property: over the
// full 23-query evaluation matrix, the cost-based planner changes evaluation
// strategy only — results are byte-identical with the planner on and off,
// serially and sharded, and the count pipelines agree with materialization.
func TestPlannerResultIdentity(t *testing.T) {
	planned, err := GenerateCorpus("wsj", 0.005, 11, WithShards(4), WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	unplanned, err := GenerateCorpus("wsj", 0.005, 11, WithShards(4), WithWorkers(3), WithoutPlanner())
	if err != nil {
		t.Fatal(err)
	}
	// The pure-probe reference: twig and bitmap both off, so every step runs
	// through the per-binding probe executor.
	probeOnly, err := GenerateCorpus("wsj", 0.005, 11, WithShards(4), WithWorkers(3), WithoutTwigExecutor(), WithoutBitmapExecutor())
	if err != nil {
		t.Fatal(err)
	}
	// Twig rotation: the holistic sweep forced on every maximal run, and
	// disabled entirely (falling back to per-step execution).
	forcedTwig, err := GenerateCorpus("wsj", 0.005, 11, WithShards(4), WithWorkers(3), withTwigAlways())
	if err != nil {
		t.Fatal(err)
	}
	twigOff, err := GenerateCorpus("wsj", 0.005, 11, WithShards(4), WithWorkers(3), WithoutTwigExecutor())
	if err != nil {
		t.Fatal(err)
	}
	// Bitmap rotation: the dense-bitset kernels forced on every eligible
	// scope entry, and disabled entirely (per-scope expansion, map-backed
	// satisfier sets).
	forcedBitmap, err := GenerateCorpus("wsj", 0.005, 11, WithShards(4), WithWorkers(3), withBitmapAlways())
	if err != nil {
		t.Fatal(err)
	}
	bitmapOff, err := GenerateCorpus("wsj", 0.005, 11, WithShards(4), WithWorkers(3), WithoutBitmapExecutor())
	if err != nil {
		t.Fatal(err)
	}
	for _, eq := range EvalQueries() {
		q := MustCompile(eq.Text)
		want, err := unplanned.Select(q)
		if err != nil {
			t.Fatalf("Q%d unplanned: %v", eq.ID, err)
		}
		got, err := planned.Select(q)
		if err != nil {
			t.Fatalf("Q%d planned: %v", eq.ID, err)
		}
		if !matchesEqual(got, want) {
			t.Errorf("Q%d: planned %d matches, unplanned %d — or a match differs",
				eq.ID, len(got), len(want))
		}
		gotProbe, err := probeOnly.Select(q)
		if err != nil {
			t.Fatalf("Q%d probe-only: %v", eq.ID, err)
		}
		if !matchesEqual(gotProbe, want) {
			t.Errorf("Q%d: probe-only %d matches, unplanned %d — or a match differs",
				eq.ID, len(gotProbe), len(want))
		}
		gotTwig, err := forcedTwig.Select(q)
		if err != nil {
			t.Fatalf("Q%d forced-twig: %v", eq.ID, err)
		}
		if !matchesEqual(gotTwig, want) {
			t.Errorf("Q%d: forced-twig %d matches, unplanned %d — or a match differs",
				eq.ID, len(gotTwig), len(want))
		}
		gotNoTwig, err := twigOff.Select(q)
		if err != nil {
			t.Fatalf("Q%d twig-off: %v", eq.ID, err)
		}
		if !matchesEqual(gotNoTwig, want) {
			t.Errorf("Q%d: twig-off %d matches, unplanned %d — or a match differs",
				eq.ID, len(gotNoTwig), len(want))
		}
		gotBitmap, err := forcedBitmap.Select(q)
		if err != nil {
			t.Fatalf("Q%d forced-bitmap: %v", eq.ID, err)
		}
		if !matchesEqual(gotBitmap, want) {
			t.Errorf("Q%d: forced-bitmap %d matches, unplanned %d — or a match differs",
				eq.ID, len(gotBitmap), len(want))
		}
		gotNoBitmap, err := bitmapOff.Select(q)
		if err != nil {
			t.Fatalf("Q%d bitmap-off: %v", eq.ID, err)
		}
		if !matchesEqual(gotNoBitmap, want) {
			t.Errorf("Q%d: bitmap-off %d matches, unplanned %d — or a match differs",
				eq.ID, len(gotNoBitmap), len(want))
		}
		gotPar, err := planned.SelectParallel(q)
		if err != nil {
			t.Fatalf("Q%d planned parallel: %v", eq.ID, err)
		}
		wantPar, err := unplanned.SelectParallel(q)
		if err != nil {
			t.Fatalf("Q%d unplanned parallel: %v", eq.ID, err)
		}
		if !reflect.DeepEqual(got, gotPar) || !matchesEqual(gotPar, wantPar) {
			t.Errorf("Q%d: parallel results diverge (planned %d / unplanned %d)",
				eq.ID, len(gotPar), len(wantPar))
		}
		for name, pair := range map[string][2]int{
			"Count":         {mustCount(t, planned.Count, q), mustCount(t, unplanned.Count, q)},
			"CountParallel": {mustCount(t, planned.CountParallel, q), mustCount(t, unplanned.CountParallel, q)},
		} {
			if pair[0] != len(want) || pair[1] != len(want) {
				t.Errorf("Q%d %s: planned %d, unplanned %d, want %d",
					eq.ID, name, pair[0], pair[1], len(want))
			}
		}
	}
}

func mustCount(t *testing.T, count func(*Query) (int, error), q *Query) int {
	t.Helper()
	n, err := count(q)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// matchesEqual compares match lists across two corpora built from the same
// trees: Node pointers differ, so compare (tree, tag, words) in order.
func matchesEqual(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].TreeID != b[i].TreeID || a[i].Node.Tag != b[i].Node.Tag ||
			strings.Join(a[i].Node.Words(), " ") != strings.Join(b[i].Node.Words(), " ") {
			return false
		}
	}
	return true
}

// TestExplainOnEvalMatrix checks Corpus.Explain renders a plan with actual
// cardinalities for every matrix query, and that explaining never perturbs
// subsequent evaluation.
func TestExplainOnEvalMatrix(t *testing.T) {
	c, err := GenerateCorpus("wsj", 0.002, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, eq := range EvalQueries() {
		q := MustCompile(eq.Text)
		report, err := c.Explain(q)
		if err != nil {
			t.Fatalf("Q%d explain: %v", eq.ID, err)
		}
		if !strings.Contains(report, "query: "+eq.Text) ||
			!strings.Contains(report, "estimated matches:") ||
			!strings.Contains(report, "actual:") {
			t.Errorf("Q%d: malformed report:\n%s", eq.ID, report)
		}
		ms, err := c.Select(q)
		if err != nil {
			t.Fatal(err)
		}
		n, err := c.Count(q)
		if err != nil || n != len(ms) {
			t.Errorf("Q%d after explain: Count = %d, len(Select) = %d, %v", eq.ID, n, len(ms), err)
		}
	}
	// Explain works on a planner-disabled corpus too (it plans on demand).
	c.Configure(WithoutPlanner())
	if _, err := c.Explain(MustCompile(`//NP`)); err != nil {
		t.Errorf("explain without planner: %v", err)
	}
}

// TestExplainTextCachedPlanFreshActuals pins the EXPLAIN-through-cache
// contract: repeatedly explaining a CompileCached query renders the cached
// executable plan with
// fresh actual-cardinality counters — byte-identical reports, no stale or
// doubled actuals — and the repeats hit the plan cache rather than
// replanning.
func TestExplainTextCachedPlanFreshActuals(t *testing.T) {
	c, err := GenerateCorpus("wsj", 0.002, 5, WithPlanCache(16))
	if err != nil {
		t.Fatal(err)
	}
	const text = `//VP{//NP$}`
	explainCached := func() (string, error) {
		q, err := c.CompileCached(text)
		if err != nil {
			return "", err
		}
		return c.Explain(q)
	}
	first, err := explainCached()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first, "actual") {
		t.Fatalf("EXPLAIN report carries no actuals:\n%s", first)
	}
	before := c.PlanCacheStats()
	for i := 0; i < 3; i++ {
		again, err := explainCached()
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatalf("cached Explain drifted on repeat %d:\n--- first ---\n%s\n--- again ---\n%s", i+1, first, again)
		}
	}
	after := c.PlanCacheStats()
	if after.Hits <= before.Hits {
		t.Errorf("repeated cached Explain did not hit the plan cache (hits %d -> %d)", before.Hits, after.Hits)
	}
	if after.Misses != before.Misses {
		t.Errorf("repeated cached Explain re-missed the plan cache (misses %d -> %d)", before.Misses, after.Misses)
	}

	// The cached-plan report must agree with a from-scratch Explain of the
	// same text (same plan, same fresh actuals).
	fresh, err := c.Explain(MustCompile(text))
	if err != nil {
		t.Fatal(err)
	}
	if fresh != first {
		t.Fatalf("cached-plan EXPLAIN differs from from-scratch EXPLAIN:\n--- cached ---\n%s\n--- fresh ---\n%s", first, fresh)
	}
}

// TestCompileCachedPlanFollowsIndex pins the plan a CompileCached query
// carries to the corpus and index it was planned for: after the corpus
// rebuilds, and on another corpus, the query plans afresh: it answers and
// explains exactly what a plainly compiled query does there.
func TestCompileCachedPlanFollowsIndex(t *testing.T) {
	c, err := GenerateCorpus("wsj", 0.002, 5, WithPlanCache(16))
	if err != nil {
		t.Fatal(err)
	}
	other, err := GenerateCorpus("wsj", 0.002, 6)
	if err != nil {
		t.Fatal(err)
	}
	const text = `//NP[//NN]->VP`
	q, err := c.CompileCached(text)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, c *Corpus) {
		t.Helper()
		want, err := c.Select(MustCompile(text))
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Select(q)
		if err != nil {
			t.Fatal(err)
		}
		if !matchesEqual(got, want) {
			t.Errorf("%s: cached query gave %d matches, plain query %d", name, len(got), len(want))
		}
		n, err := c.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(want) {
			t.Errorf("%s: cached query counted %d, want %d", name, n, len(want))
		}
		// EXPLAIN prints the plan's estimates, which follow the index
		// statistics: a stale plan would show the old index's estimates.
		gotPlan, err := c.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		wantPlan, err := c.Explain(MustCompile(text))
		if err != nil {
			t.Fatal(err)
		}
		if gotPlan != wantPlan {
			t.Errorf("%s: cached query explains\n%s\nwant\n%s", name, gotPlan, wantPlan)
		}
	}
	check("same index", c)
	if err := c.AddSentence("(S (NP (NP (NN dog)) (VP (VB ran))) (VP (VB sat)))"); err != nil {
		t.Fatal(err)
	}
	check("rebuilt index", c)
	check("other corpus", other)
}
