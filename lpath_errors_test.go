package lpath

import (
	"context"
	"errors"
	"testing"

	ast "lpath/internal/lpath"
)

// TestErrorParityAcrossEntryPoints pins the error contract of the public
// query API: for one identical failure, every entry point — serial,
// parallel, counting, context-honoring, text-compiling — returns the
// identical error, independent of worker scheduling. The parallel paths used
// to surface whichever shard's error won the race; runShards now propagates
// deterministically by shard index.
func TestErrorParityAcrossEntryPoints(t *testing.T) {
	c, err := GenerateCorpus("wsj", 0.005, 11, WithWorkers(4), WithShards(4), WithPlanCache(8))
	if err != nil {
		t.Fatal(err)
	}

	// An attribute step in the main path fails validation (the parser only
	// accepts @ inside predicates, so build the AST directly). The public
	// Compile rejects it, so forge the Query the way a buggy caller (or a
	// future code path skipping validation) would: every evaluation entry
	// point must still fail with the same sentinel.
	badQuery := &Query{text: `//@lex`, path: &ast.Path{Steps: []ast.Step{
		{Axis: ast.AxisDescendant, Test: "lex"},
	}}}
	badQuery.path.Steps[0].Axis = ast.AxisAttribute

	t.Run("forged invalid query", func(t *testing.T) {
		entries := []struct {
			name string
			run  func() error
		}{
			{"Select", func() error { _, err := c.Select(badQuery); return err }},
			{"SelectContext", func() error { _, err := c.SelectContext(context.Background(), badQuery); return err }},
			{"SelectParallel", func() error { _, err := c.SelectParallel(badQuery); return err }},
			{"SelectParallelContext", func() error {
				_, err := c.SelectParallelContext(context.Background(), badQuery)
				return err
			}},
			{"Count", func() error { _, err := c.Count(badQuery); return err }},
			{"CountContext", func() error { _, err := c.CountContext(context.Background(), badQuery); return err }},
			{"CountParallel", func() error { _, err := c.CountParallel(badQuery); return err }},
			{"CountParallelContext", func() error {
				_, err := c.CountParallelContext(context.Background(), badQuery)
				return err
			}},
			{"Explain", func() error { _, err := c.Explain(badQuery); return err }},
			{"ExplainContext", func() error { _, err := c.ExplainContext(context.Background(), badQuery); return err }},
		}
		for _, e := range entries {
			err := e.run()
			if err == nil {
				t.Errorf("%s: no error for invalid query", e.name)
				continue
			}
			if !errors.Is(err, ast.ErrAttrInMainPath) {
				t.Errorf("%s: got %v, want ErrAttrInMainPath", e.name, err)
			}
			if got, want := err.Error(), ast.ErrAttrInMainPath.Error(); got != want {
				t.Errorf("%s: error text %q, want %q", e.name, got, want)
			}
		}
	})

	t.Run("text compile error", func(t *testing.T) {
		const bad = `//VP[`
		_, wantErr := Compile(bad)
		if wantErr == nil {
			t.Fatalf("Compile(%q) unexpectedly succeeded", bad)
		}
		_, err := c.CompileCached(bad)
		if err == nil || err.Error() != wantErr.Error() {
			t.Errorf("CompileCached: error %v, want %q", err, wantErr)
		}
	})

	t.Run("cancelled context", func(t *testing.T) {
		q := MustCompile(`//NP`)
		cq, err := c.CompileCached(`//NP`)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		entries := []struct {
			name string
			run  func() error
		}{
			{"SelectContext", func() error { _, err := c.SelectContext(ctx, q); return err }},
			{"CountContext", func() error { _, err := c.CountContext(ctx, q); return err }},
			{"ExplainContext", func() error { _, err := c.ExplainContext(ctx, q); return err }},
			{"SelectParallelContext", func() error { _, err := c.SelectParallelContext(ctx, q); return err }},
			{"CountParallelContext", func() error { _, err := c.CountParallelContext(ctx, q); return err }},
			{"SelectContext(cached)", func() error { _, err := c.SelectContext(ctx, cq); return err }},
			{"CountContext(cached)", func() error { _, err := c.CountContext(ctx, cq); return err }},
		}
		for _, e := range entries {
			if err := e.run(); !errors.Is(err, context.Canceled) {
				t.Errorf("%s: got %v, want context.Canceled", e.name, err)
			}
		}
	})
}

// TestContextEntryPointsAgreeWhenHealthy verifies the context variants are
// result-identical to their plain counterparts under a live context.
func TestContextEntryPointsAgreeWhenHealthy(t *testing.T) {
	c, err := GenerateCorpus("wsj", 0.005, 11, WithPlanCache(8))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, text := range []string{`//NP`, `//VP/VB-->NN`, `//S[//NP/ADJP]`} {
		q := MustCompile(text)
		want, err := c.Select(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.SelectContext(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Errorf("SelectContext(%s): %d matches, want %d", text, len(got), len(want))
		}
		n, err := c.CountContext(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(want) {
			t.Errorf("CountContext(%s): %d, want %d", text, n, len(want))
		}
		cq, err := c.CompileCached(text)
		if err != nil {
			t.Fatal(err)
		}
		nt, err := c.CountContext(ctx, cq)
		if err != nil {
			t.Fatal(err)
		}
		if nt != len(want) {
			t.Errorf("CountContext(cached %s): %d, want %d", text, nt, len(want))
		}
		pn, err := c.CountParallelContext(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if pn != len(want) {
			t.Errorf("CountParallelContext(%s): %d, want %d", text, pn, len(want))
		}
	}
}
