package main

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync"

	"lpath/internal/tree"
	"lpath/internal/treeval"
)

// match is one rendered match, as lpathd's /v1/query returns it.
type match struct {
	Tree int    `json:"tree"`
	Tag  string `json:"tag"`
	Text string `json:"text,omitempty"`
}

// answer is what a response must say: for /v1/query the match prefix, the
// truncation flag and the count (-1 when truncated, as lpathd reports it
// without "count": true); for /v1/count only the count.
type answer struct {
	Count     int
	Truncated bool
	Matches   []match
}

func (a answer) equal(b answer) bool {
	return a.Count == b.Count && a.Truncated == b.Truncated && slices.Equal(a.Matches, b.Matches)
}

func (a answer) String() string {
	return fmt.Sprintf("count=%d truncated=%v matches=%d", a.Count, a.Truncated, len(a.Matches))
}

// response is the part of a lpathd response body the benchmark reads. The
// match list stays raw until a check needs it.
type response struct {
	Count     int             `json:"count"`
	Truncated bool            `json:"truncated"`
	Matches   json.RawMessage `json:"matches"`
	ElapsedMS float64         `json:"elapsed_ms"`
}

func (r *response) answer() (answer, error) {
	a := answer{Count: r.Count, Truncated: r.Truncated}
	if len(r.Matches) > 0 {
		if err := json.Unmarshal(r.Matches, &a.Matches); err != nil {
			return answer{}, fmt.Errorf("decoding matches: %w", err)
		}
	}
	return a, nil
}

// oracle computes expected answers with the reference tree-walking
// evaluator (internal/treeval, what Corpus.SelectOracle runs), which never
// touches the relational store or the engine under test. A count is
// treeval's corpus count. A limited answer is evaluated tree by tree in
// corpus order, so it stops once the prefix and its truncation are known.
type oracle struct {
	all   *treeval.CorpusEval
	evs   []*treeval.Evaluator
	trees []*tree.Tree
}

func newOracle(tc *tree.Corpus) *oracle {
	o := &oracle{all: treeval.NewCorpus(tc), trees: tc.Trees}
	for _, t := range tc.Trees {
		o.evs = append(o.evs, treeval.New(t))
	}
	return o
}

// answer evaluates text; limit 0 asks for the count alone.
func (o *oracle) answer(text string, limit int) (answer, error) {
	p, err := compile(text)
	if err != nil {
		return answer{}, err
	}
	if limit == 0 {
		n, err := o.all.Count(p)
		return answer{Count: n}, err
	}
	var ms []match
	for i, ev := range o.evs {
		nodes, err := ev.Eval(p)
		if err != nil {
			return answer{}, err
		}
		for _, n := range nodes {
			ms = append(ms, match{Tree: o.trees[i].ID, Tag: n.Tag, Text: strings.Join(n.Words(), " ")})
		}
		if len(ms) > limit {
			return answer{Count: -1, Truncated: true, Matches: ms[:limit]}, nil
		}
	}
	return answer{Count: len(ms), Matches: ms}, nil
}

// answers evaluates texts on workers goroutines; the evaluators are
// read-only after construction.
func (o *oracle) answers(texts []string, limit, workers int) ([]answer, error) {
	out := make([]answer, len(texts))
	errs := make([]error, len(texts))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(texts); i += workers {
				out[i], errs[i] = o.answer(texts[i], limit)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("oracle %q: %w", texts[i], err)
		}
	}
	return out, nil
}
