// Package lpath is a from-scratch Go implementation of LPath, the XPath
// dialect for linguistic queries of Bird, Chen, Davidson, Lee and Zheng
// (ICDE 2006), together with the interval-labeling query engine the paper
// proposes and the baseline systems it evaluates against.
//
// The public API is small:
//
//	c, _ := lpath.GenerateCorpus("wsj", 0.01, 42) // or LoadCorpus / NewCorpus
//	q, _ := lpath.Compile(`//VP{/V-->N}`)
//	matches, _ := c.Select(q)
//	n, _ := c.Count(q)
//
// Queries support the full LPath language: the XPath vertical axes, the
// horizontal axes -> --> <- <-- => ==> <= <==, subtree scoping with braces,
// edge alignment ^ and $, and predicates with @attr comparisons, and/or/not.
//
// Corpora are ordered trees in the Penn Treebank bracketed format. Select
// uses the interval-label relational engine (internal/engine); SelectOracle
// evaluates with the reference tree-walker for cross-checking.
package lpath

import (
	"context"
	"fmt"
	"io"
	"iter"
	"os"
	"runtime"

	"lpath/internal/corpus"
	"lpath/internal/engine"
	ast "lpath/internal/lpath"
	"lpath/internal/planner"
	"lpath/internal/relstore"
	"lpath/internal/relstore/snapshot"
	"lpath/internal/sqlgen"
	"lpath/internal/tree"
	"lpath/internal/treeval"
)

// Tree is an ordered linguistic tree (see the internal/tree package for the
// node model).
type Tree = tree.Tree

// Node is a node of a linguistic tree.
type Node = tree.Node

// Match is one query result: a node within a tree of the corpus.
type Match = engine.Match

// Stats summarizes a corpus (sentence, word, node and tag counts).
type Stats = corpus.Stats

// ParseTree parses one bracketed tree, e.g. "(S (NP I) (VP (V saw)))".
func ParseTree(s string) (*Tree, error) { return tree.ParseTree(s) }

// Query is a compiled LPath query.
type Query struct {
	text string
	path *ast.Path
	// exec is the executable plan CompileCached resolved for corpus at
	// store generation gen. Evaluating the query on that corpus at that
	// generation runs exec directly; any other corpus or generation plans
	// the query afresh.
	corpus *Corpus
	gen    uint64
	exec   *planner.Plan
}

// Compile parses and validates an LPath query.
func Compile(text string) (*Query, error) {
	p, err := ast.Parse(text)
	if err != nil {
		return nil, err
	}
	if err := ast.Validate(p); err != nil {
		return nil, err
	}
	return &Query{text: text, path: p}, nil
}

// MustCompile is Compile panicking on error; for tests and constants.
func MustCompile(text string) *Query {
	q, err := Compile(text)
	if err != nil {
		panic(err)
	}
	return q
}

// String returns the original query text.
func (q *Query) String() string { return q.text }

// Canonical returns the pretty-printed canonical form of the query.
func (q *Query) Canonical() string { return q.path.String() }

// SQL returns the relational translation of the query over the node
// relation {tid, left, right, depth, id, pid, name, value}, as the paper's
// yacc-based translator produced for its commercial database backend.
func (q *Query) SQL() (string, error) { return sqlgen.Translate(q.path) }

// Corpus is a queryable collection of linguistic trees. The zero value is
// not usable; create one with NewCorpus, LoadCorpus, OpenCorpus or
// GenerateCorpus. Adding trees invalidates the index, which is rebuilt
// lazily on the next query.
type Corpus struct {
	trees  *tree.Corpus
	store  *relstore.Store
	eng    *engine.Engine
	oracle *treeval.CorpusEval
	dirty  bool

	// Parallel execution state: per-shard engines (built lazily, invalidated
	// separately from the serial engine so either path can build first) and
	// the configured worker-pool and shard-count bounds.
	shards      []*engine.Engine
	shardsDirty bool
	workers     int
	shardCount  int

	// planCache memoizes query text → compiled plan for CompileCached.
	planCache *engine.PlanCache

	// gen counts store rebuilds; cached executable plans are keyed to it so
	// a rebuilt corpus (new statistics) invalidates plans but not ASTs.
	gen uint64
	// closer releases the backing resources of a snapshot-loaded corpus
	// (the mmap of OpenStore); see Close.
	closer func() error
	// noPlanner disables cost-based planning on every engine this corpus
	// builds (see WithoutPlanner).
	noPlanner bool
	// twigOff / twigAlways pin the holistic twig executor on every engine
	// this corpus builds (see WithoutTwigExecutor and withTwigAlways).
	twigOff    bool
	twigAlways bool
	// bitmapOff / bitmapAlways pin the dense-bitset kernels the same way (see
	// WithoutBitmapExecutor and withBitmapAlways).
	bitmapOff    bool
	bitmapAlways bool
}

// Option configures query execution on a Corpus; pass options to a
// constructor or apply them later with Configure.
type Option func(*Corpus)

// WithWorkers bounds SelectParallel's worker pool at n goroutines. The
// default (and any value below 1) is runtime.GOMAXPROCS(0).
func WithWorkers(n int) Option {
	return func(c *Corpus) { c.workers = n }
}

// WithShards partitions the corpus into k tree-ID shards for parallel
// execution. The default (and any value below 1) is the worker count, so
// every worker owns one shard; larger values improve load balance on skewed
// corpora at a small per-shard indexing cost.
func WithShards(k int) Option {
	return func(c *Corpus) {
		c.shardCount = k
		c.shardsDirty = true
	}
}

// WithoutPlanner disables the statistics-driven cost-based planner, so every
// query evaluates with the engine's default strategy. The planner never
// changes results — only evaluation order and access paths — which the
// differential tests enforce; this option exists for those tests and for
// measuring the planner's contribution.
func WithoutPlanner() Option {
	return func(c *Corpus) {
		c.noPlanner = true
		c.dirty = true
		c.shardsDirty = true
	}
}

// WithoutTwigExecutor disables the holistic twig executor, so every location
// step runs through the per-binding probe executor regardless of the plan's
// run marking. The twig executor is result-identical to the probe executor
// (the differential tests enforce it); this option exists for
// those tests and for measuring the twig executor's contribution
// (docs/EXECUTION.md).
func WithoutTwigExecutor() Option {
	return func(c *Corpus) {
		c.twigOff = true
		c.twigAlways = false
		c.dirty = true
		c.shardsDirty = true
	}
}

// withTwigAlways runs every maximal twig-able run through the holistic sweep,
// bypassing the planner's cost decision; the differential tests and fuzzers
// use it to keep the twig path under continuous cross-checking.
func withTwigAlways() Option {
	return func(c *Corpus) {
		c.twigAlways = true
		c.twigOff = false
		c.dirty = true
		c.shardsDirty = true
	}
}

// WithoutBitmapExecutor disables the dense-bitset kernels, so subtree scopes
// expand per scope and semijoin satisfier sets materialize as maps — exactly
// the pre-bitmap engine. The bitmap kernels are result-identical (the
// differential tests enforce it); this option exists for those tests and for
// measuring the bitmap executor's contribution (docs/EXECUTION.md).
func WithoutBitmapExecutor() Option {
	return func(c *Corpus) {
		c.bitmapOff = true
		c.bitmapAlways = false
		c.dirty = true
		c.shardsDirty = true
	}
}

// withBitmapAlways runs every shape-eligible subtree-scope entry through the
// bitmap kernel, bypassing the planner's cost decision; the differential
// tests and fuzzers use it to keep the bitmap path under continuous
// cross-checking.
func withBitmapAlways() Option {
	return func(c *Corpus) {
		c.bitmapAlways = true
		c.bitmapOff = false
		c.dirty = true
		c.shardsDirty = true
	}
}

// WithPlanCache enables the compiled-plan cache used by CompileCached,
// holding at most capacity plans under LRU eviction (capacity < 1
// selects the default, engine.DefaultPlanCacheSize = 128).
func WithPlanCache(capacity int) Option {
	return func(c *Corpus) { c.planCache = engine.NewPlanCache(capacity) }
}

// Configure applies options to an existing corpus. It is not safe to call
// concurrently with queries.
func (c *Corpus) Configure(opts ...Option) {
	for _, o := range opts {
		o(c)
	}
}

func newCorpus(tc *tree.Corpus, opts ...Option) *Corpus {
	c := &Corpus{trees: tc, dirty: true, shardsDirty: true}
	c.Configure(opts...)
	return c
}

// NewCorpus creates an empty corpus.
func NewCorpus(opts ...Option) *Corpus {
	return newCorpus(tree.NewCorpus(), opts...)
}

// LoadCorpus reads bracketed trees from r.
func LoadCorpus(r io.Reader, opts ...Option) (*Corpus, error) {
	tc, err := tree.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return newCorpus(tc, opts...), nil
}

// OpenCorpus reads bracketed trees from a file.
func OpenCorpus(path string, opts ...Option) (*Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := LoadCorpus(f, opts...)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// GenerateCorpus synthesizes a corpus with the named profile ("wsj" or
// "swb") at the given scale (1.0 ≈ the paper's corpus size; see
// internal/corpus for the calibration).
func GenerateCorpus(profile string, scale float64, seed int64, opts ...Option) (*Corpus, error) {
	p, err := corpus.ParseProfile(profile)
	if err != nil {
		return nil, err
	}
	tc := corpus.Generate(corpus.Config{Profile: p, Scale: scale, Seed: seed})
	return newCorpus(tc, opts...), nil
}

// Add appends a tree to the corpus.
func (c *Corpus) Add(t *Tree) {
	c.trees.Add(t)
	c.dirty = true
	c.shardsDirty = true
}

// AddSentence parses a bracketed tree and appends it.
func (c *Corpus) AddSentence(bracketed string) error {
	t, err := tree.ParseTree(bracketed)
	if err != nil {
		return err
	}
	c.Add(t)
	return nil
}

// Len returns the number of trees.
func (c *Corpus) Len() int { return c.trees.Len() }

// Trees returns the underlying trees (shared, not copied).
func (c *Corpus) Trees() []*Tree { return c.trees.Trees }

// Stats measures the corpus (Figure 6(a)-style statistics).
func (c *Corpus) Stats() Stats { return corpus.Measure(c.trees) }

// Save writes the corpus in bracketed format.
func (c *Corpus) Save(w io.Writer) error { return tree.WriteAll(w, c.trees) }

// SaveStore writes the corpus's interval-label store as a binary snapshot
// (the .lpx format of internal/relstore/snapshot), building it first if
// needed. A snapshot contains the complete built index — clustered rows,
// columnar label arrays, every posting permutation, and the planner's
// statistics block — so LoadStore answers queries without re-parsing,
// re-labeling, or re-sorting anything: the paper's "label once, query many
// times" workflow.
func (c *Corpus) SaveStore(w io.Writer) error {
	if err := c.Build(); err != nil {
		return err
	}
	return snapshot.Write(w, c.store)
}

// SaveStoreFile writes the store snapshot to path atomically (temp file +
// rename), building the index first if needed.
func (c *Corpus) SaveStoreFile(path string) error {
	if err := c.Build(); err != nil {
		return err
	}
	return snapshot.WriteFile(path, c.store)
}

// LoadStore reads a store snapshot written by SaveStore and returns a
// ready-to-query corpus with its trees reconstructed from the relation.
// Every load failure — truncation, bit corruption, version skew — is
// reported as a typed error from internal/relstore/snapshot; a snapshot
// never loads silently wrong.
func LoadStore(r io.Reader, opts ...Option) (*Corpus, error) {
	store, trees, err := snapshot.Read(r)
	if err != nil {
		return nil, err
	}
	return corpusFromStore(store, trees, nil, opts...)
}

// OpenStore memory-maps a store snapshot file. Loading is lazy at page
// granularity: validation and queries fault in only the pages they touch,
// and the kernel page cache shares the index across processes. The mapping
// lives until Close (or process exit).
func OpenStore(path string, opts ...Option) (*Corpus, error) {
	f, err := snapshot.Open(path)
	if err != nil {
		return nil, err
	}
	return corpusFromStore(f.Store(), f.Corpus(), f.Close, opts...)
}

// corpusFromStore wraps an already-built store (from a snapshot) in a
// Corpus, honoring the configured engine options.
func corpusFromStore(store *relstore.Store, trees *tree.Corpus, closer func() error, opts ...Option) (*Corpus, error) {
	c := &Corpus{trees: trees, store: store, shardsDirty: true, closer: closer}
	c.Configure(opts...)
	eng, err := engine.New(store, c.engineOpts()...)
	if err != nil {
		return nil, err
	}
	c.eng = eng
	return c, nil
}

// Close releases resources held by a snapshot-backed corpus (the mmap of
// OpenStore). It is a no-op for corpora built from trees. The corpus must
// not be queried after Close.
func (c *Corpus) Close() error {
	if c.closer == nil {
		return nil
	}
	closer := c.closer
	c.closer = nil
	return closer()
}

// Build constructs the interval-label store and indexes eagerly. Queries
// trigger it automatically; calling it explicitly separates indexing time
// from query time, as the benchmarks do.
func (c *Corpus) Build() error {
	if !c.dirty && c.eng != nil {
		return nil
	}
	store := relstore.Build(c.trees, relstore.SchemeInterval)
	eng, err := engine.New(store, c.engineOpts()...)
	if err != nil {
		return err
	}
	c.store = store
	c.eng = eng
	c.oracle = nil
	c.dirty = false
	c.gen++ // new statistics: cached executable plans are stale
	return nil
}

// engineOpts translates corpus options into engine options.
func (c *Corpus) engineOpts() []engine.Option {
	var opts []engine.Option
	if c.noPlanner {
		opts = append(opts, engine.WithoutPlanner())
	}
	if c.twigOff {
		opts = append(opts, engine.WithoutTwig())
	}
	if c.twigAlways {
		opts = append(opts, engine.WithTwigAlways())
	}
	if c.bitmapOff {
		opts = append(opts, engine.WithoutBitmap())
	}
	if c.bitmapAlways {
		opts = append(opts, engine.WithBitmapAlways())
	}
	return opts
}

// Select evaluates the query with the label-based engine and returns the
// distinct matches of its final step in document order.
func (c *Corpus) Select(q *Query) ([]Match, error) {
	return c.SelectContext(context.Background(), q)
}

// SelectContext is Select honoring a context: cancellation or an expired
// deadline interrupts the evaluation cooperatively — the executors poll the
// context inside their sweeps, so even a long-running serial query returns
// promptly with the context's error (context.Canceled or
// context.DeadlineExceeded).
func (c *Corpus) SelectContext(ctx context.Context, q *Query) ([]Match, error) {
	if err := c.Build(); err != nil {
		return nil, err
	}
	return c.eng.EvalPlanContext(ctx, q.path, c.plan(q))
}

// SelectLimit evaluates the query with early termination and returns at most
// limit matches — exactly the first limit entries of Select's (tree,
// document)-ordered result. Trees past the one holding the limit-th match
// are never evaluated, so the cost of a limited query over a high-match
// corpus is proportional to the trees actually needed, not the corpus.
// limit <= 0 returns an empty slice.
func (c *Corpus) SelectLimit(q *Query, limit int) ([]Match, error) {
	return c.SelectLimitContext(context.Background(), q, limit)
}

// SelectLimitContext is SelectLimit honoring a context, with the same
// cooperative cancellation guarantees as SelectContext.
func (c *Corpus) SelectLimitContext(ctx context.Context, q *Query, limit int) ([]Match, error) {
	if err := c.Build(); err != nil {
		return nil, err
	}
	return c.eng.EvalPlanLimitContext(ctx, q.path, c.plan(q), limit)
}

// Matches returns a range-over-func iterator over the query's matches in
// Select's (tree, document) order, evaluating incrementally: breaking out of
// the range loop terminates the evaluation, so consuming k matches costs
// what SelectLimit(k) costs.
//
//	for m, err := range c.Matches(q) {
//		if err != nil { ... }
//		use(m)
//	}
//
// On an evaluation error the iterator yields one (zero Match, error) pair
// and stops.
func (c *Corpus) Matches(q *Query) iter.Seq2[Match, error] {
	return c.MatchesContext(context.Background(), q)
}

// MatchesContext is Matches honoring a context for cooperative cancellation;
// a cancelled evaluation yields the context's error as its final pair.
func (c *Corpus) MatchesContext(ctx context.Context, q *Query) iter.Seq2[Match, error] {
	return func(yield func(Match, error) bool) {
		if err := c.Build(); err != nil {
			yield(Match{}, err)
			return
		}
		err := c.eng.StreamPlan(ctx, q.path, c.plan(q), func(m Match) bool {
			return yield(m, nil)
		})
		if err != nil {
			yield(Match{}, err)
		}
	}
}

// Count returns the number of matches of the query, using the engine's
// count-only pipeline: the same joins as Select, but without the final sort
// and node materialization. Count always equals len(Select(q)).
func (c *Corpus) Count(q *Query) (int, error) {
	return c.CountContext(context.Background(), q)
}

// CountContext is Count honoring a context, with the same cooperative
// cancellation guarantees as SelectContext.
func (c *Corpus) CountContext(ctx context.Context, q *Query) (int, error) {
	if err := c.Build(); err != nil {
		return 0, err
	}
	return c.eng.CountPlanContext(ctx, q.path, c.plan(q))
}

// Explain plans the query against the corpus statistics, executes the plan
// with cardinality counters, and returns the EXPLAIN report: per step, the
// chosen access path and the estimated vs actual rows (see docs/PLANNER.md
// for the format).
func (c *Corpus) Explain(q *Query) (string, error) {
	return c.ExplainContext(context.Background(), q)
}

// ExplainContext is Explain honoring a context for cooperative
// cancellation: EXPLAIN executes the query, so a deadline bounds it like any
// other evaluation. A query from CompileCached reports the cached plan it
// would run; the actual-cardinality counters are fresh on every call.
func (c *Corpus) ExplainContext(ctx context.Context, q *Query) (string, error) {
	if err := c.Build(); err != nil {
		return "", err
	}
	var exec *planner.Plan
	if c.planned(q) {
		exec = q.exec
	}
	// A nil plan makes the engine plan the query itself, even when planning
	// is disabled: EXPLAIN exists to show what the planner would do.
	return c.eng.ExplainPlanContext(ctx, q.path, exec)
}

// Strategies returns how many of the query's main-path steps execute as
// per-binding probes, as members of holistic twig runs, and as bitmap scope
// entries (the exec= column of EXPLAIN; see
// docs/EXECUTION.md) under the plan Select would run. With planning
// disabled every step counts as a probe.
func (c *Corpus) Strategies(q *Query) (probe, twig, bitmap int, err error) {
	if err := c.Build(); err != nil {
		return 0, 0, 0, err
	}
	plan := c.plan(q)
	if plan == nil {
		for p := q.path; p != nil; p = p.Scoped {
			probe += len(p.Steps)
		}
		return probe, 0, 0, nil
	}
	probe, _, twig, bitmap = plan.StrategyCounts()
	return probe, twig, bitmap, nil
}

// numWorkers resolves the configured worker bound.
func (c *Corpus) numWorkers() int {
	if c.workers > 0 {
		return c.workers
	}
	return runtime.GOMAXPROCS(0)
}

// buildShards constructs the per-shard stores and engines lazily; queries
// through SelectParallel trigger it automatically.
func (c *Corpus) buildShards() error {
	if !c.shardsDirty && c.shards != nil {
		return nil
	}
	k := c.shardCount
	if k < 1 {
		k = c.numWorkers()
	}
	shards, err := engine.NewSharded(relstore.BuildShards(c.trees, relstore.SchemeInterval, k), c.engineOpts()...)
	if err != nil {
		return err
	}
	c.shards = shards
	c.shardsDirty = false
	return nil
}

// SelectParallel evaluates the query over tree-ID shards with a bounded
// worker pool (see WithWorkers and WithShards) and returns exactly the
// matches Select returns, in the same (tree, document) order — the result
// is deterministic and independent of the worker count. The shard index is
// built lazily on first use, like Select's.
func (c *Corpus) SelectParallel(q *Query) ([]Match, error) {
	return c.SelectParallelContext(context.Background(), q)
}

// SelectParallelContext is SelectParallel honoring a context: cancellation
// abandons shards that have not started and returns the context's error.
func (c *Corpus) SelectParallelContext(ctx context.Context, q *Query) ([]Match, error) {
	if err := c.buildShards(); err != nil {
		return nil, err
	}
	return engine.EvalParallel(ctx, c.shards, q.path, engine.WithWorkers(c.numWorkers()))
}

// SelectParallelLimit is SelectLimit over the shards: every shard streams
// with a per-shard cap of limit matches, and once the lowest shards have
// settled limit ordered matches all higher shards are cancelled. It returns
// exactly SelectLimit's result (the first limit entries of Select's order),
// deterministically, whatever the worker count.
func (c *Corpus) SelectParallelLimit(q *Query, limit int) ([]Match, error) {
	return c.SelectParallelLimitContext(context.Background(), q, limit)
}

// SelectParallelLimitContext is SelectParallelLimit honoring a context.
func (c *Corpus) SelectParallelLimitContext(ctx context.Context, q *Query, limit int) ([]Match, error) {
	if err := c.buildShards(); err != nil {
		return nil, err
	}
	return engine.EvalParallelLimit(ctx, c.shards, q.path, limit, engine.WithWorkers(c.numWorkers()))
}

// CountParallel returns the number of matches, evaluated in parallel with
// the count-only pipeline: each shard counts its distinct matches (no sort,
// no node materialization) and the disjoint per-shard counts are summed.
// CountParallel always equals len(SelectParallel(q)).
func (c *Corpus) CountParallel(q *Query) (int, error) {
	return c.CountParallelContext(context.Background(), q)
}

// CountParallelContext is CountParallel honoring a context: cancellation
// abandons shards that have not started and interrupts in-flight shard
// evaluations cooperatively.
func (c *Corpus) CountParallelContext(ctx context.Context, q *Query) (int, error) {
	if err := c.buildShards(); err != nil {
		return 0, err
	}
	return engine.CountParallel(ctx, c.shards, q.path, engine.WithWorkers(c.numWorkers()))
}

// CompileCached compiles and plans a query through the corpus's plan cache
// (see WithPlanCache), so a repeated text skips parsing, validation and
// cost-based planning: one cache lookup resolves both. The returned Query
// carries the executable plan for the corpus's current index, which
// Select, Count, Explain and their variants on this corpus run without
// replanning. Without a configured cache it is plain Compile.
func (c *Corpus) CompileCached(text string) (*Query, error) {
	if c.planCache == nil {
		return Compile(text)
	}
	if err := c.Build(); err != nil {
		return nil, err
	}
	p, exec, err := c.planCache.GetOrPlan(text, c.gen,
		func(s string) (*ast.Path, error) {
			q, err := Compile(s)
			if err != nil {
				return nil, err
			}
			return q.path, nil
		},
		c.eng.Plan)
	if err != nil {
		return nil, err
	}
	return &Query{text: text, path: p, corpus: c, gen: c.gen, exec: exec}, nil
}

// planned reports whether q carries the executable plan for the corpus's
// current index. The corpus must be built.
func (c *Corpus) planned(q *Query) bool {
	return q.corpus == c && q.gen == c.gen
}

// plan returns the executable plan for q on the built corpus: the one q
// carries when CompileCached planned it for the current index, otherwise a
// fresh plan (nil with planning disabled).
func (c *Corpus) plan(q *Query) *planner.Plan {
	if c.planned(q) {
		return q.exec
	}
	return c.eng.Plan(q.path)
}

// CacheStats reports plan-cache effectiveness; see Corpus.PlanCacheStats.
type CacheStats = engine.CacheStats

// PlanCacheStats returns the plan cache's hit/miss/eviction counters, or a
// zero snapshot when no cache is configured.
func (c *Corpus) PlanCacheStats() CacheStats {
	if c.planCache == nil {
		return CacheStats{}
	}
	return c.planCache.Stats()
}

// SelectOracle evaluates the query with the reference tree-walking
// evaluator. It is slow and exists to cross-check Select.
func (c *Corpus) SelectOracle(q *Query) ([]Match, error) {
	if c.oracle == nil {
		c.oracle = treeval.NewCorpus(c.trees)
	}
	ms, err := c.oracle.Eval(q.path)
	if err != nil {
		return nil, err
	}
	out := make([]Match, len(ms))
	for i, m := range ms {
		out[i] = Match{TreeID: m.TreeID, Node: m.Node}
	}
	return out, nil
}

// EvalQueries returns the paper's 23-query evaluation set (Figure 6(c)),
// in order; XPath reports which are XPath 1.0-expressible.
func EvalQueries() []EvalQuery {
	out := make([]EvalQuery, 0, len(ast.EvalQueries))
	for _, q := range ast.EvalQueries {
		out = append(out, EvalQuery{ID: q.ID, Text: q.Text, XPath: q.XPathExpressible})
	}
	return out
}

// EvalQuery is one entry of the paper's evaluation query set.
type EvalQuery struct {
	ID    int
	Text  string
	XPath bool
}
