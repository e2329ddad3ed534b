package lpath

import (
	"fmt"
	"testing"
)

// allocBudgets caps warm steady-state allocations per cached Count evaluation
// for every query of the evaluation matrix at scale 0.01. Budgets are ~2x the
// measured steady state (minimum 64, to absorb incidental per-group sorting
// and map growth), so a regression that reintroduces per-binding or per-row
// allocation — historically tens of thousands of objects per evaluation —
// fails loudly while arena/pool jitter does not.
var allocBudgets = map[int]int{
	1: 64, 2: 64, 3: 64, 4: 700, 5: 70, 6: 90, 7: 64, 8: 64, 9: 64,
	10: 64, 11: 64, 12: 64, 13: 64, 14: 64, 15: 64, 16: 64, 17: 64,
	18: 64, 19: 64, 20: 64, 21: 64, 22: 64, 23: 64,
}

// bitmapAllocBudgets is the same contract with the dense-bitset kernels
// forced onto every eligible scope entry and satisfier set: the bitsets are
// arena-pooled, so forcing them must not reintroduce per-scope or per-row
// allocation on any query.
var bitmapAllocBudgets = map[int]int{
	1: 64, 2: 64, 3: 64, 4: 700, 5: 70, 6: 90, 7: 64, 8: 64, 9: 64,
	10: 64, 11: 64, 12: 64, 13: 64, 14: 64, 15: 64, 16: 64, 17: 64,
	18: 64, 19: 64, 20: 64, 21: 64, 22: 64, 23: 64,
}

// TestStepEvaluationAllocBudget pins the steady-state allocation behavior of
// the executors across the full 23-query evaluation matrix: with a warm plan
// cache and grown scratch arenas, evaluation must not allocate per binding or
// per row. Before the columnar store and the arena-pooled evaluation context,
// one warm cached Count of Q10 allocated ~58k objects; today the probe and
// twig pipelines hold nearly every query to double-digit allocations
// (Q4's budget reflects its per-group trailing-context materialization, the
// one remaining per-group cost).
func TestStepEvaluationAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget needs a non-trivial corpus")
	}
	configs := []struct {
		name    string
		opts    []Option
		budgets map[int]int
	}{
		{"auto", nil, allocBudgets},
		{"bitmap", []Option{withBitmapAlways()}, bitmapAllocBudgets},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			opts := append([]Option{WithPlanCache(0)}, cfg.opts...)
			c, err := GenerateCorpus("wsj", 0.01, 42, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for _, eq := range EvalQueries() {
				budget, ok := cfg.budgets[eq.ID]
				if !ok {
					t.Fatalf("Q%d: no allocation budget defined", eq.ID)
				}
				t.Run(fmt.Sprintf("Q%d", eq.ID), func(t *testing.T) {
					if _, err := countCached(c, eq.Text); err != nil { // warm: compile, cache, size arenas
						t.Fatal(err)
					}
					allocs := testing.AllocsPerRun(20, func() {
						if _, err := countCached(c, eq.Text); err != nil {
							t.Fatal(err)
						}
					})
					t.Logf("warm cached Count(Q%d) = %.0f allocs/op (budget %d)", eq.ID, allocs, budget)
					if allocs > float64(budget) {
						t.Errorf("warm cached Count(Q%d) = %.0f allocs/op, budget %d", eq.ID, allocs, budget)
					}
				})
			}
		})
	}
}
