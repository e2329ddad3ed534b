package main

import (
	"encoding/json"
	"strings"
	"testing"

	"lpath"
	"lpath/internal/tree"
)

func smallCorpus(t *testing.T) (*lpath.Corpus, *oracle) {
	t.Helper()
	c, err := lpath.GenerateCorpus("wsj", 0.01, 42)
	if err != nil {
		t.Fatal(err)
	}
	return c, newOracle(&tree.Corpus{Trees: c.Trees()})
}

// The tree-by-tree oracle must agree with Corpus.SelectOracle: the same
// prefix, truncation and count as lpathd's limit+1 probe reports them.
func TestOracleMatchesSelectOracle(t *testing.T) {
	c, o := smallCorpus(t)
	for _, q := range lpath.EvalQueries() {
		all, err := c.SelectOracle(lpath.MustCompile(q.Text))
		if err != nil {
			t.Fatal(err)
		}
		for _, limit := range []int{1, 5, 100} {
			got, err := o.answer(q.Text, limit)
			if err != nil {
				t.Fatal(err)
			}
			n := min(len(all), limit)
			want := answer{Count: len(all), Truncated: len(all) > limit}
			if want.Truncated {
				want.Count = -1
			}
			for _, m := range all[:n] {
				want.Matches = append(want.Matches, match{Tree: m.TreeID, Tag: m.Node.Tag, Text: strings.Join(m.Node.Words(), " ")})
			}
			if !got.equal(want) {
				t.Fatalf("Q%d limit %d: got %v, want %v", q.ID, limit, got, want)
			}
		}
		got, err := o.answer(q.Text, 0)
		if err != nil || got.Count != len(all) {
			t.Fatalf("Q%d count: got %v, %v; want %d", q.ID, got.Count, err, len(all))
		}
	}
}

// The gate must fail a run whose sampled answers are wrong.
func TestCheckSampleCatchesWrongAnswers(t *testing.T) {
	_, o := smallCorpus(t)
	texts := []string{`//VB->NP`, `//NP/NP/NP/NP/NP`, `//VP/VP/VP`}
	resp := func(text string, tamper func(*answer)) *response {
		a, err := o.answer(text, queryLimit)
		if err != nil {
			t.Fatal(err)
		}
		if tamper != nil {
			tamper(&a)
		}
		raw, err := json.Marshal(a.Matches)
		if err != nil {
			t.Fatal(err)
		}
		return &response{Count: a.Count, Truncated: a.Truncated, Matches: raw}
	}
	run := func(kept map[int]*response) *bench {
		b := &bench{
			w:      &workload{checkCap: 10},
			pool:   texts,
			oracle: o,
			load:   &loadResult{attempted: len(kept), kept: kept},
		}
		return b
	}
	good := run(map[int]*response{0: resp(texts[0], nil), 1: resp(texts[1], nil), 2: resp(texts[2], nil)})
	if err := good.verify(); err != nil || good.load.wrong != 0 {
		t.Fatalf("correct answers failed the check: %v", err)
	}
	// A request that failed (non-200 or transport error) fails the run even
	// when every checked answer is right.
	good.load.failed = 1
	if err := good.verify(); err == nil {
		t.Fatal("a failed request passed the run")
	}
	for name, tamper := range map[string]func(*answer){
		"dropped match": func(a *answer) { a.Matches = a.Matches[1:] },
		"wrong text":    func(a *answer) { a.Matches[0].Text += " x" },
		"wrong count":   func(a *answer) { a.Count++ },
		"wrong flag":    func(a *answer) { a.Truncated = !a.Truncated },
	} {
		b := run(map[int]*response{0: resp(texts[0], nil), 1: resp(texts[1], tamper), 2: resp(texts[2], nil)})
		if err := b.verify(); err == nil || b.load.wrong != 1 || b.load.failed != 1 {
			t.Errorf("%s: check passed (err %v, wrong %d, failed %d)", name, err, b.load.wrong, b.load.failed)
		}
	}
}

func TestPromDeltas(t *testing.T) {
	parse := func(s string) promSample {
		p, err := parseProm(strings.NewReader(s))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	before := parse("# HELP x\nlpathd_plan_cache{corpus=\"wsj\",event=\"hit\"} 3\nlpathd_plan_cache{corpus=\"wsj\",event=\"miss\"} 4\nlpathd_batch_size_sum 10\n")
	after := parse("lpathd_plan_cache{corpus=\"wsj\",event=\"hit\"} 5\nlpathd_plan_cache{corpus=\"wsj\",event=\"miss\"} 9\nlpathd_batch_size_sum 12\n")
	if d := delta(before, after, "lpathd_plan_cache", `event="hit"`); d != 2 {
		t.Errorf("hit delta %v, want 2", d)
	}
	if d := delta(before, after, "lpathd_plan_cache"); d != 7 {
		t.Errorf("all-events delta %v, want 7", d)
	}
	if d := delta(before, after, "lpathd_batch_size_sum"); d != 2 {
		t.Errorf("sum delta %v, want 2", d)
	}
	if d := delta(before, after, "lpathd_batch_size"); d != 0 {
		t.Errorf("prefix of another metric matched: %v", d)
	}
}
