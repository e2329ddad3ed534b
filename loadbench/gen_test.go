package main

import (
	"math/rand/v2"
	"slices"
	"testing"

	"lpath"
	"lpath/internal/tree"
)

func testShapes(t *testing.T) []shape {
	t.Helper()
	c, err := lpath.GenerateCorpus("wsj", 0.01, 42)
	if err != nil {
		t.Fatal(err)
	}
	shapes := paperShapes(corpusTables(&tree.Corpus{Trees: c.Trees()}))
	if len(shapes) != len(lpath.EvalQueries()) {
		t.Fatalf("%d shapes, want one per paper query", len(shapes))
	}
	return shapes
}

func TestGenerateDeterministicDistinctCompiling(t *testing.T) {
	shapes := testShapes(t)
	gen := func(seed uint64) []string {
		texts, err := generate(rand.New(rand.NewPCG(seed, 1)), shapes, 3000, map[string]bool{"//VB->NP": true})
		if err != nil {
			t.Fatal(err)
		}
		return texts
	}
	a, b := gen(7), gen(7)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different texts")
	}
	if slices.Equal(a, gen(8)) {
		t.Fatal("different seeds gave the same texts")
	}
	seen := make(map[string]bool)
	for _, text := range a {
		if seen[text] || text == "//VB->NP" {
			t.Fatalf("text %q repeated", text)
		}
		seen[text] = true
		if _, err := lpath.Compile(text); err != nil {
			t.Fatalf("text %q does not compile: %v", text, err)
		}
	}
	if len(a) != 3000 {
		t.Fatalf("got %d texts, want 3000", len(a))
	}
}

func TestSplitFindsTagsAndWords(t *testing.T) {
	lits, names, words := split(`//NP[->PP[//IN[@lex=of]]=>VP]`)
	if want := []string{"NP", "PP", "IN", "of", "VP"}; !slices.Equal(names, want) {
		t.Fatalf("names %q, want %q", names, want)
	}
	if want := []bool{false, false, false, true, false}; !slices.Equal(words, want) {
		t.Fatalf("words %v, want %v", words, want)
	}
	for _, q := range lpath.EvalQueries() {
		lits, names, _ = split(q.Text)
		text := lits[0]
		for i, n := range names {
			text += n + lits[i+1]
		}
		if text != q.Text {
			t.Fatalf("Q%d: split rebuilds %q, want %q", q.ID, text, q.Text)
		}
	}
}
