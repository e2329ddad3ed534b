package main

import (
	"fmt"
	"math/rand/v2"
	"regexp"
	"sort"
	"strings"

	"lpath"
	"lpath/internal/tree"
)

// The generator instantiates the paper's 23 Figure 6(c) queries as shapes:
// every tag name and every @lex word becomes a slot, refilled by drawing
// from the corpus's own tag or word frequency table with probability
// proportional to frequency, as a tag or word picked at random from the
// corpus text would be.
var (
	tagRe  = regexp.MustCompile(`[A-Z][A-Z0-9]*(?:-[A-Z0-9]+)*`)
	wordRe = regexp.MustCompile(`@lex=([A-Za-z0-9]+)`)
	// identRe is what a generated tag or word must look like to be spliced
	// into query text unquoted; punctuation tags such as "." or "PRP$"
	// would change the query's meaning.
	identRe = regexp.MustCompile(`^[A-Za-z0-9]+(?:-[A-Za-z0-9]+)*$`)
)

// drawRetries is how many draws a shape gets to produce an unseen text
// before it counts as exhausted.
const drawRetries = 32

// shape is a paper query split into literal text and slots:
// lits[0] slots[0] lits[1] ... lits[n].
type shape struct {
	lits  []string
	slots []*freqTable
}

// weights draws an index with probability proportional to its weight; it
// holds the running sums of the weights.
type weights []float64

func (w *weights) add(x float64) {
	sum := x
	if n := len(*w); n > 0 {
		sum += (*w)[n-1]
	}
	*w = append(*w, sum)
}

func (w weights) draw(rng *rand.Rand) int {
	i := sort.SearchFloat64s(w, rng.Float64()*w[len(w)-1])
	return min(i, len(w)-1)
}

// freqTable draws names with probability proportional to their frequency.
type freqTable struct {
	names []string
	w     weights
}

func newFreqTable(freq map[string]int) *freqTable {
	t := &freqTable{}
	for k := range freq {
		if identRe.MatchString(k) {
			t.names = append(t.names, k)
		}
	}
	sort.Strings(t.names) // map order is random; the draws must not be
	for _, n := range t.names {
		t.w.add(float64(freq[n]))
	}
	return t
}

func (t *freqTable) draw(rng *rand.Rand) string { return t.names[t.w.draw(rng)] }

// tables are the corpus's tag and word frequency tables.
type tables struct {
	tags, words *freqTable
}

func corpusTables(tc *tree.Corpus) tables {
	words := make(map[string]int)
	for _, t := range tc.Trees {
		t.Root.Walk(func(n *tree.Node) bool {
			if n.Word != "" {
				words[n.Word]++
			}
			return true
		})
	}
	return tables{tags: newFreqTable(tc.TagFrequencies()), words: newFreqTable(words)}
}

// split cuts a query into literal text around its tags and @lex words:
// lits[0] names[0] lits[1] ... names[n-1] lits[n]; words[i] marks a word.
func split(text string) (lits, names []string, words []bool) {
	for {
		w := wordRe.FindStringSubmatchIndex(text)
		t := tagRe.FindStringIndex(text)
		switch {
		case w == nil && t == nil:
			return append(lits, text), names, words
		case t == nil || (w != nil && w[2] < t[0]):
			lits, names, words = append(lits, text[:w[2]]), append(names, text[w[2]:w[3]]), append(words, true)
			text = text[w[3]:]
		default:
			lits, names, words = append(lits, text[:t[0]]), append(names, text[t[0]:t[1]]), append(words, false)
			text = text[t[1]:]
		}
	}
}

// paperShapes turns the paper's queries into shapes over the corpus tables.
func paperShapes(tb tables) []shape {
	var out []shape
	for _, q := range lpath.EvalQueries() {
		lits, _, words := split(q.Text)
		sh := shape{lits: lits}
		for i := range words {
			table := tb.tags
			if words[i] {
				table = tb.words
			}
			sh.slots = append(sh.slots, table)
		}
		out = append(out, sh)
	}
	return out
}

func (sh shape) draw(rng *rand.Rand) string {
	var b strings.Builder
	for i, s := range sh.slots {
		b.WriteString(sh.lits[i])
		b.WriteString(s.draw(rng))
	}
	b.WriteString(sh.lits[len(sh.lits)-1])
	return b.String()
}

// generate returns up to n distinct query texts, none in seen (which it
// extends), each of which compiles. Shapes are picked uniformly; a shape
// that yields no new text in drawRetries draws has run out of combinations
// and leaves the mix. The result is shuffled, so any prefix of it has the
// mix of the whole.
func generate(rng *rand.Rand, shapes []shape, n int, seen map[string]bool) ([]string, error) {
	live := append([]shape(nil), shapes...)
	out := make([]string, 0, n)
	for len(out) < n && len(live) > 0 {
		k := rng.IntN(len(live))
		added := false
		for try := 0; try < drawRetries; try++ {
			text := live[k].draw(rng)
			if seen[text] {
				continue
			}
			seen[text] = true
			if _, err := lpath.Compile(text); err != nil {
				continue
			}
			out = append(out, text)
			added = true
			break
		}
		if !added {
			live = append(live[:k], live[k+1:]...)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("query generator produced no texts")
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}
