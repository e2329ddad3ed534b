package lpath

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzEvalOracle is the differential fuzzer over the three evaluators: the
// engine with the cost-based planner, the engine with planning disabled, and
// the reference tree-walking oracle. On every (query, treebank) input that
// compiles and parses, all three must agree exactly — same matches, same
// order, and the two engine configurations must agree on whether evaluation
// errors (runtime errors are data-dependent, and the planner must not change
// which ones surface).
//
// The corpus is built once and shared, so Node pointers are comparable with
// reflect.DeepEqual across all evaluators.
func FuzzEvalOracle(f *testing.F) {
	bank := "(S (NP (N I)) (VP (V saw) (NP (D the) (N dog))))\n" +
		"(S (NP (DT the) (NN cat)) (VP (VB sat) (PP (IN on) (NP (DT a) (NN mat)))))"
	for _, eq := range EvalQueries() {
		f.Add(eq.Text, bank)
	}
	f.Add(`//VP{/VB-->NN}`, bank)
	f.Add(`//NP[count(//NN)=1]`, bank)
	f.Add(`//V[@lex=saw][@lex!=sat]`, bank)
	f.Add(`//S[//^NP]`, "(S (NP (N I)) (VP (V saw)))")
	f.Add(`//_[position()=2]`, bank)
	f.Add(`//NP[not(//JJ) and //NN]`, bank)
	f.Add(`//S{//N$}`, bank)

	f.Fuzz(func(t *testing.T, query, treebank string) {
		if len(query) > 256 || len(treebank) > 2048 {
			return
		}
		q, err := Compile(query)
		if err != nil {
			return // not a valid query; FuzzParse covers the parser
		}
		c := NewCorpus(WithShards(2), WithWorkers(2))
		trees := 0
		for _, line := range strings.Split(treebank, "\n") {
			line = strings.TrimSpace(line)
			if line == "" {
				continue
			}
			if err := c.AddSentence(line); err != nil {
				continue // skip malformed trees, keep the parsable ones
			}
			if trees++; trees >= 8 {
				break
			}
		}

		planned, plannedErr := c.Select(q)
		plannedCount, plannedCountErr := c.Count(q)
		par, parErr := c.SelectParallel(q)
		parCount, parCountErr := c.CountParallel(q)

		// Early-termination rotation: a limit derived from the input walks
		// the streaming path through empty, mid-stream and past-the-end
		// prefixes across fuzz inputs. A limited evaluation may legitimately
		// stop before a tree whose data-dependent runtime error the full
		// evaluation hits, so errors only compare one way (checked below).
		limit := len(query) % 5
		limited, limitedErr := c.SelectLimit(q, limit)
		parLimited, parLimitedErr := c.SelectParallelLimit(q, limit)

		// Executor rotation: force the holistic twig sweep on every maximal
		// run, then disable it. All must agree with the planner-chosen mix.
		c.Configure(withTwigAlways())
		twigged, twiggedErr := c.Select(q)
		c.Configure(WithoutTwigExecutor())
		untwigged, untwiggedErr := c.Select(q)

		// Bitmap rotation, with the twig executor still off: force the
		// dense-bitset kernels onto every eligible scope entry and satisfier
		// set, then disable them too. That last leg is the pure-probe
		// reference: every step runs through the per-binding probe executor.
		c.Configure(withBitmapAlways())
		bitmapped, bitmappedErr := c.Select(q)
		c.Configure(WithoutBitmapExecutor())
		probed, probedErr := c.Select(q)

		c.Configure(WithoutPlanner())
		unplanned, unplannedErr := c.Select(q)

		if (plannedErr != nil) != (unplannedErr != nil) {
			t.Fatalf("%q: planned err %v, unplanned err %v", query, plannedErr, unplannedErr)
		}
		if (plannedErr != nil) != (plannedCountErr != nil) ||
			(plannedErr != nil) != (parErr != nil) ||
			(plannedErr != nil) != (parCountErr != nil) {
			t.Fatalf("%q: select err %v, count err %v, parallel errs %v/%v",
				query, plannedErr, plannedCountErr, parErr, parCountErr)
		}
		if (plannedErr != nil) != (twiggedErr != nil) || (plannedErr != nil) != (untwiggedErr != nil) {
			t.Fatalf("%q: planned err %v, twig-always err %v, twig-off err %v",
				query, plannedErr, twiggedErr, untwiggedErr)
		}
		if (plannedErr != nil) != (bitmappedErr != nil) || (plannedErr != nil) != (probedErr != nil) {
			t.Fatalf("%q: planned err %v, bitmap-always err %v, probe-only err %v",
				query, plannedErr, bitmappedErr, probedErr)
		}
		if plannedErr != nil {
			return // all evaluators agree the query errors on this corpus
		}
		if !reflect.DeepEqual(planned, unplanned) {
			t.Fatalf("%q: planned %d matches, unplanned %d — or order differs\nplanned:   %v\nunplanned: %v",
				query, len(planned), len(unplanned), matchKeys(planned), matchKeys(unplanned))
		}
		if !reflect.DeepEqual(planned, probed) {
			t.Fatalf("%q: probe-only differs from planned (%d vs %d matches)\nprobed: %v\nplanned: %v",
				query, len(probed), len(planned), matchKeys(probed), matchKeys(planned))
		}
		if !reflect.DeepEqual(planned, twigged) {
			t.Fatalf("%q: twig-always differs from planned (%d vs %d matches)\ntwigged: %v\nplanned: %v",
				query, len(twigged), len(planned), matchKeys(twigged), matchKeys(planned))
		}
		if !reflect.DeepEqual(planned, untwigged) {
			t.Fatalf("%q: twig-off differs from planned (%d vs %d matches)\nuntwigged: %v\nplanned: %v",
				query, len(untwigged), len(planned), matchKeys(untwigged), matchKeys(planned))
		}
		if !reflect.DeepEqual(planned, bitmapped) {
			t.Fatalf("%q: bitmap-always differs from planned (%d vs %d matches)\nbitmapped: %v\nplanned: %v",
				query, len(bitmapped), len(planned), matchKeys(bitmapped), matchKeys(planned))
		}
		if !reflect.DeepEqual(planned, par) {
			t.Fatalf("%q: parallel differs from serial (%d vs %d matches)",
				query, len(par), len(planned))
		}
		if plannedCount != len(planned) || parCount != len(planned) {
			t.Fatalf("%q: Count=%d CountParallel=%d, want %d",
				query, plannedCount, parCount, len(planned))
		}

		if limitedErr != nil {
			t.Fatalf("%q: Select succeeded but SelectLimit(%d) errored: %v", query, limit, limitedErr)
		}
		if parLimitedErr != nil {
			t.Fatalf("%q: Select succeeded but SelectParallelLimit(%d) errored: %v", query, limit, parLimitedErr)
		}
		wantPrefix := planned
		if limit < len(planned) {
			wantPrefix = planned[:limit]
		}
		if !reflect.DeepEqual(limited, wantPrefix) {
			t.Fatalf("%q: SelectLimit(%d) = %v, want prefix %v",
				query, limit, matchKeys(limited), matchKeys(wantPrefix))
		}
		if !reflect.DeepEqual(parLimited, wantPrefix) {
			t.Fatalf("%q: SelectParallelLimit(%d) = %v, want prefix %v",
				query, limit, matchKeys(parLimited), matchKeys(wantPrefix))
		}

		oracle, oracleErr := c.SelectOracle(q)
		if oracleErr != nil {
			t.Fatalf("%q: engine succeeded but oracle errored: %v", query, oracleErr)
		}
		if !reflect.DeepEqual(planned, oracle) {
			t.Fatalf("%q: engine %d matches, oracle %d — or order differs\nengine: %v\noracle: %v",
				query, len(planned), len(oracle), matchKeys(planned), matchKeys(oracle))
		}
	})
}

// matchKeys renders matches as pointer-independent (tree, tag, words) keys
// for failure messages.
func matchKeys(ms []Match) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Node.Tag
		if ws := m.Node.Words(); len(ws) > 0 {
			out[i] += "[" + strings.Join(ws, " ") + "]"
		}
	}
	return out
}
