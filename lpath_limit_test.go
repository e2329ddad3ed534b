package lpath

import (
	"context"
	"reflect"
	"testing"
)

// limitStrategies pins each executor strategy the way the differential
// fuzzer does, so the early-termination parity holds for the probe loop, the
// twig sweep, the bitmap kernels and the planner's own mix alike.
func limitStrategies() []struct {
	name string
	opts []Option
} {
	return []struct {
		name string
		opts []Option
	}{
		{"auto", nil},
		{"probe", []Option{WithoutTwigExecutor(), WithoutBitmapExecutor()}},
		{"twig", []Option{withTwigAlways()}},
		{"bitmap", []Option{withBitmapAlways()}},
		{"no-bitmap", []Option{WithoutBitmapExecutor()}},
	}
}

// TestSelectLimitParity holds SelectLimit(k) ≡ Select()[:k] for every query
// of the paper's 23-query suite, every executor strategy, and limits around
// the interesting boundaries (empty, one, mid-stream, exact, past the end).
func TestSelectLimitParity(t *testing.T) {
	for _, st := range limitStrategies() {
		t.Run(st.name, func(t *testing.T) {
			c, err := GenerateCorpus("wsj", 0.004, 3, st.opts...)
			if err != nil {
				t.Fatal(err)
			}
			for _, eq := range EvalQueries() {
				q := MustCompile(eq.Text)
				full, err := c.Select(q)
				if err != nil {
					t.Fatalf("Q%d select: %v", eq.ID, err)
				}
				for _, k := range []int{0, 1, 7, len(full), len(full) + 1} {
					got, err := c.SelectLimit(q, k)
					if err != nil {
						t.Fatalf("Q%d limit %d: %v", eq.ID, k, err)
					}
					want := full
					if k < len(full) {
						want = full[:k]
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("Q%d: SelectLimit(%d) = %d matches, want prefix of %d",
							eq.ID, k, len(got), len(want))
					}
				}
			}
		})
	}
}

// TestSelectParallelLimitParity holds the sharded path to the same contract:
// SelectParallelLimit(k) ≡ Select()[:k], independent of shard and worker
// counts.
func TestSelectParallelLimitParity(t *testing.T) {
	c, err := GenerateCorpus("wsj", 0.004, 3, WithShards(3), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, eq := range EvalQueries() {
		q := MustCompile(eq.Text)
		full, err := c.Select(q)
		if err != nil {
			t.Fatalf("Q%d select: %v", eq.ID, err)
		}
		for _, k := range []int{0, 1, 7, len(full), len(full) + 1} {
			got, err := c.SelectParallelLimit(q, k)
			if err != nil {
				t.Fatalf("Q%d parallel limit %d: %v", eq.ID, k, err)
			}
			want := full
			if k < len(full) {
				want = full[:k]
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Q%d: SelectParallelLimit(%d) = %d matches, want prefix of %d",
					eq.ID, k, len(got), len(want))
			}
		}
	}
}

// TestMatchesIterator exercises the range-over-func surface: full
// consumption equals Select, breaking early equals the prefix, and
// cancellation surfaces as the iterator's final error pair.
func TestMatchesIterator(t *testing.T) {
	c, err := GenerateCorpus("wsj", 0.002, 5)
	if err != nil {
		t.Fatal(err)
	}
	q := MustCompile(`//VB->NP`)
	full, err := c.Select(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 10 {
		t.Fatalf("corpus too small: %d matches", len(full))
	}

	var all []Match
	for m, err := range c.Matches(q) {
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, m)
	}
	if !reflect.DeepEqual(all, full) {
		t.Errorf("full iteration: %d matches, Select: %d", len(all), len(full))
	}

	var prefix []Match
	for m, err := range c.Matches(q) {
		if err != nil {
			t.Fatal(err)
		}
		prefix = append(prefix, m)
		if len(prefix) == 5 {
			break
		}
	}
	if !reflect.DeepEqual(prefix, full[:5]) {
		t.Errorf("early break: %d matches, want the first 5", len(prefix))
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sawErr := false
	for _, err := range c.MatchesContext(ctx, q) {
		if err != nil {
			sawErr = true
			if err != context.Canceled {
				t.Errorf("iterator error = %v, want context.Canceled", err)
			}
		}
	}
	if !sawErr {
		t.Error("cancelled iteration yielded no error")
	}
}

// TestSelectLimitText covers the plan-cache serving path: with and without a
// configured cache, SelectLimit on a CompileCached query equals the prefix of
// Select.
func TestSelectLimitText(t *testing.T) {
	for _, cached := range []bool{false, true} {
		opts := []Option{}
		if cached {
			opts = append(opts, WithPlanCache(16))
		}
		c, err := GenerateCorpus("wsj", 0.002, 5, opts...)
		if err != nil {
			t.Fatal(err)
		}
		const text = `//VB->NP`
		q, err := c.CompileCached(text)
		if err != nil {
			t.Fatal(err)
		}
		full, err := c.Select(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.SelectLimit(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(full) < 3 || !reflect.DeepEqual(got, full[:3]) {
			t.Errorf("cached=%v: SelectLimit(3) = %d matches, want the first 3 of %d",
				cached, len(got), len(full))
		}
		if _, err := c.CompileCached(`//VB[`); err == nil {
			t.Errorf("cached=%v: compile error not reported", cached)
		}
	}
}

// TestSelectLimitScoped pins the windowed scoped-roots expansion: scoping on
// the virtual root must restrict per tree inside each streaming window.
func TestSelectLimitScoped(t *testing.T) {
	c, err := GenerateCorpus("wsj", 0.002, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{`//S{//NP$}`, `//VP{/VB-->NN}`, `//NP[not(//JJ) and //NN]`} {
		q := MustCompile(text)
		full, err := c.Select(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 4, len(full)} {
			got, err := c.SelectLimit(q, k)
			if err != nil {
				t.Fatal(err)
			}
			want := full
			if k < len(full) {
				want = full[:k]
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: SelectLimit(%d) = %d matches, want %d", text, k, len(got), len(want))
			}
		}
	}
}
