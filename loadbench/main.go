// Command loadbench is lpathd's end-to-end load benchmark with a per-layer
// traced replay. It generates a corpus and a seeded request sequence,
// starts a real lpathd child process, drives it closed-loop over loopback
// HTTP for a fixed time, checks the answers against the reference evaluator,
// and prints every metric by name with its unit; the last line of standard
// output is one JSON object. With -trace 1 it also replays the same requests
// in-process with spans around each layer's calls and reports per-layer
// metrics instead of the end-to-end ones. See README.md.
//
// Run it from the repository root through run.sh, which builds lpathd and
// this program:
//
//	bash loadbench/run.sh --workload serve-cold --seed 1 --seconds 10 --trace 0
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"lpath"
	"lpath/internal/engine"
	"lpath/internal/relstore"
	"lpath/internal/server"
	"lpath/internal/tree"
)

const (
	corpusProfile = "wsj"
	corpusSeed    = 42
	queryLimit    = 100
	// keepStride: about one response in keepStride is kept for the oracle
	// check of the generated workloads.
	keepStride = 16
)

// workload is one traffic mix; README.md says why each was chosen.
type workload struct {
	name     string
	count    bool    // /v1/count (full evaluation) instead of /v1/query with limit 100
	scale    float64 // WSJ corpus scale
	snapshot bool    // lpathd opens a .lpx snapshot (-index) instead of Penn text (-corpus)
	clients  int
	procs    int    // lpathd's GOMAXPROCS, 0 for the runtime default; README.md says why serve-cold uses 1
	setups   int    // lpathd starts per run; setup_s is their median
	pool     int    // distinct generated texts available to the timed phase
	warm     int    // generated texts sent untimed before the timed phase
	checkCap int    // at most this many kept responses are checked
	stream   uint64 // the generator's seed stream, so workloads draw different texts
}

var workloads = []workload{
	{name: "serve-cold", scale: 0.05, snapshot: true, clients: 2, procs: 1, setups: 9,
		pool: 60000, warm: 100, checkCap: 256, stream: 1},
	{name: "count-full", count: true, scale: 0.2, clients: 2, setups: 5,
		pool: 40000, warm: 50, checkCap: 96, stream: 2},
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: serve-cold or count-full")
		seed    = flag.Int64("seed", 1, "workload seed: query sequence and checked sample")
		seconds = flag.Int("seconds", 30, "length of the timed phase, in seconds")
		trace   = flag.Int("trace", 0, "1: also run the traced in-process replay and report per-layer metrics")
		bin     = flag.String("lpathd", ".bench_build/loadbench/lpathd", "lpathd binary")
		out     = flag.String("out", ".bench_build/loadbench", "directory for corpus files, the lpathd log and spans")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "loadbench: need -workload serve-cold|count-full, -seconds >= 1, -trace 0|1\n")
		os.Exit(2)
	}
	b := &bench{w: w, seed: *seed, dur: time.Duration(*seconds) * time.Second, trace: *trace == 1, bin: *bin, out: *out}
	ms, err := b.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		if b.load == nil {
			os.Exit(1) // no timed phase: nothing to report
		}
	}
	for _, m := range ms {
		fmt.Printf("metric %-40s %14.6f %s\n", m.name, m.value, m.unit)
	}
	jm := make(map[string]any, len(ms))
	for _, m := range ms {
		jm[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	attempted, failed := 0, 0
	if b.load != nil {
		attempted, failed = b.load.attempted, b.load.failed
	}
	line, _ := json.Marshal(map[string]any{"correct": err == nil, "attempted": attempted, "failed": failed, "metrics": jm})
	fmt.Println(string(line))
	if err != nil {
		os.Exit(1)
	}
}

// bench is one run of one workload.
type bench struct {
	w     *workload
	seed  int64
	dur   time.Duration
	trace bool
	bin   string
	out   string

	trees    *tree.Corpus
	oracle   *oracle
	paper    []string // the 23 paper queries, in order
	warm     []string // generated warm-up texts
	pool     []string // generated timed texts
	snapPath string   // the corpus as a .lpx snapshot
	textPath string   // the corpus as Penn text
	load     *loadResult
	setup    []float64
	warmupS  float64
	rssMB    float64
	before   promSample
	after    promSample
}

// limit is the request's match limit, 0 for /v1/count.
func (b *bench) limit() int {
	if b.w.count {
		return 0
	}
	return queryLimit
}

func (b *bench) endpoint() string {
	if b.w.count {
		return "/v1/count"
	}
	return "/v1/query"
}

// text returns the timed phase's i-th query text.
func (b *bench) text(i int) (string, bool) {
	if i >= len(b.pool) {
		return "", false
	}
	return b.pool[i], true
}

func (b *bench) run() ([]metric, error) {
	if err := os.MkdirAll(b.out, 0o755); err != nil {
		return nil, err
	}
	b.printEnv()
	if err := b.prepare(); err != nil {
		return nil, err
	}
	if err := b.serve(); err != nil {
		return nil, err
	}
	runErr := b.verify()
	if !b.trace {
		ms, err := b.endToEnd()
		return ms, errors.Join(runErr, err)
	}
	ms, err := b.perLayer()
	return ms, errors.Join(runErr, err)
}

// printEnv prints the run's environment and parameters.
func (b *bench) printEnv() {
	host, _ := os.Hostname()
	fmt.Printf("env host=%s nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		host, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	procs := "default"
	if b.w.procs > 0 {
		procs = fmt.Sprint(b.w.procs)
	}
	fmt.Printf("run workload=%s corpus=%s scale=%g corpus_seed=%d seed=%d clients=%d lpathd_GOMAXPROCS=%s seconds=%g trace=%v\n",
		b.w.name, corpusProfile, b.w.scale, corpusSeed, b.seed, b.w.clients, procs, b.dur.Seconds(), b.trace)
}

// commit names the source under test: the git commit when the tree is a
// checkout, else a hash of the Go sources and module files.
func commit() string {
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			data, err := os.ReadFile(path)
			if err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", path, len(data))
				h.Write(data)
			}
		}
		return nil
	})
	return "src-" + hex.EncodeToString(h.Sum(nil))[:12]
}

// prepare generates the corpus files, the request sequence and the oracle.
func (b *bench) prepare() error {
	c, err := lpath.GenerateCorpus(corpusProfile, b.w.scale, corpusSeed)
	if err != nil {
		return err
	}
	b.trees = &tree.Corpus{Trees: c.Trees()}
	b.snapPath = filepath.Join(b.out, fmt.Sprintf("wsj-%g.lpx", b.w.scale))
	b.textPath = filepath.Join(b.out, fmt.Sprintf("wsj-%g.mrg", b.w.scale))
	if b.w.snapshot || b.trace {
		if err := c.SaveStoreFile(b.snapPath); err != nil {
			return err
		}
	}
	if !b.w.snapshot || b.trace {
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			return err
		}
		if err := os.WriteFile(b.textPath, buf.Bytes(), 0o644); err != nil {
			return err
		}
	}

	for _, q := range lpath.EvalQueries() {
		b.paper = append(b.paper, q.Text)
	}
	shapes := paperShapes(corpusTables(b.trees))
	seen := make(map[string]bool)
	for _, t := range b.paper {
		seen[t] = true
	}
	if b.warm, err = generate(rand.New(rand.NewPCG(uint64(b.seed), b.w.stream+100)), shapes, b.w.warm, seen); err != nil {
		return err
	}
	if b.pool, err = generate(rand.New(rand.NewPCG(uint64(b.seed), b.w.stream)), shapes, b.w.pool, seen); err != nil {
		return err
	}
	b.oracle = newOracle(b.trees)
	return nil
}

// serve starts lpathd (several times, for setup_s), warms it up with the
// paper's queries checked against the oracle, and runs the timed phase.
func (b *bench) serve() error {
	client := newHTTPClient(2 * b.w.clients)
	logFile, err := os.Create(filepath.Join(b.out, "lpathd-"+b.w.name+".log"))
	if err != nil {
		return err
	}
	defer logFile.Close()
	flagName, path := "-corpus", b.textPath
	if b.w.snapshot {
		flagName, path = "-index", b.snapPath
	}
	var d *lpathd
	for k := 0; k < b.w.setups; k++ {
		if d != nil {
			d.stop()
		}
		var took time.Duration
		d, took, err = startLpathd(client, b.bin, flagName, path, b.w.procs, logFile)
		if err != nil {
			return err
		}
		b.setup = append(b.setup, took.Seconds())
	}
	defer d.stop()
	url := d.base + b.endpoint()

	// Warm-up, untimed: the paper's queries (every answer checked against
	// the oracle) and generated texts that the timed phase never repeats.
	want, err := b.oracle.answers(b.paper, b.limit(), runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	t0 := time.Now()
	for i, text := range b.paper {
		r, err := post(client, url, newRequest(text, b.limit()), &buf)
		if err != nil {
			return fmt.Errorf("warm-up %q: %w", text, err)
		}
		got, err := r.answer()
		if err != nil {
			return err
		}
		if !got.equal(want[i]) {
			return fmt.Errorf("warm-up %q: wrong answer: got %v, want %v", text, got, want[i])
		}
	}
	for _, text := range b.warm {
		if _, err := post(client, url, newRequest(text, b.limit()), &buf); err != nil {
			return fmt.Errorf("warm-up %q: %w", text, err)
		}
	}
	b.warmupS = time.Since(t0).Seconds()

	next := func(i int) (request, bool) {
		text, ok := b.text(i)
		return newRequest(text, b.limit()), ok
	}
	kept := func(i int) bool { return keep(b.seed, i, keepStride) }
	if b.before, err = d.scrape(client); err != nil {
		return err
	}
	// The load generator needs little CPU; on one P it leaves the rest of
	// the host to lpathd.
	procs := runtime.GOMAXPROCS(1)
	b.load = runLoad(client, url, b.w.clients, b.dur, next, kept)
	runtime.GOMAXPROCS(procs)
	if b.after, err = d.scrape(client); err != nil {
		return err
	}
	if b.rssMB, err = d.peakRSSMB(); err != nil {
		return err
	}
	if b.load.exhausted {
		fmt.Fprintf(os.Stderr, "loadbench: the %d-text pool ran out after %v; raise the pool size\n", len(b.pool), b.load.elapsed)
	}
	if len(b.load.samples) == 0 {
		return fmt.Errorf("no successful requests; first error: %v", b.load.firstErr)
	}
	return nil
}

// verify fails the run when a request failed or a checked answer is wrong.
// Every generated text compiles and 2 clients never fill lpathd's 4
// evaluation slots, so a non-200 response or a transport error is as wrong
// an answer as a mismatch with the oracle.
func (b *bench) verify() error {
	if err := b.checkSample(); err != nil {
		return err
	}
	if b.load.failed > 0 {
		return fmt.Errorf("%d failed requests; first: %v", b.load.failed, b.load.firstErr)
	}
	return nil
}

// checkSample compares the kept responses with the oracle's answers.
func (b *bench) checkSample() error {
	idx := b.load.keptIndexes(b.w.checkCap)
	if len(idx) == 0 {
		fmt.Printf("check sample=0 of %d\n", b.load.attempted)
		return nil
	}
	texts := make([]string, len(idx))
	for k, i := range idx {
		texts[k], _ = b.text(i)
	}
	want, err := b.oracle.answers(texts, b.limit(), runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	var first error
	for k, i := range idx {
		got, err := b.load.kept[i].answer()
		if err == nil && !got.equal(want[k]) {
			err = fmt.Errorf("got %v, want %v", got, want[k])
		}
		if err != nil {
			b.load.failed++
			b.load.wrong++
			if first == nil {
				first = fmt.Errorf("request %d %q: wrong answer: %w", i, texts[k], err)
			}
		}
	}
	fmt.Printf("check sample=%d of %d responses against the oracle, wrong=%d\n", len(idx), b.load.attempted, b.load.wrong)
	return first
}

// endToEnd computes the metrics a user of lpathd sees.
func (b *bench) endToEnd() ([]metric, error) {
	l := b.load
	lat := make([]float64, len(l.samples))
	for i, s := range l.samples {
		lat[i] = s.latMS
	}
	p50, err := percentile(lat, 0.50)
	if err != nil {
		return nil, err
	}
	p99, err := percentile(lat, 0.99)
	if err != nil {
		return nil, err
	}
	errRate := ratio(float64(l.failed), float64(l.attempted))
	fmt.Printf("latency samples=%d error_rate=%g\n", len(lat), errRate)
	return []metric{
		{"qps", float64(len(l.samples)) / l.elapsed.Seconds(), "1/s"},
		{"latency_p50_ms", p50, "ms"},
		{"latency_p99_ms", p99, "ms"},
		{"success_rate", 1 - errRate, "ratio"},
		{"setup_s", median(b.setup), "s"},
		{"peak_rss_mb", b.rssMB, "MB"},
	}, nil
}

// perLayer computes the per-layer metrics: response fields and /metrics
// deltas from the end-to-end run, then the traced replay.
func (b *bench) perLayer() ([]metric, error) {
	l := b.load
	handler := make([]float64, len(l.samples))
	transport := make([]float64, len(l.samples))
	for i, s := range l.samples {
		handler[i], transport[i] = s.handlerMS, s.latMS-s.handlerMS
	}
	var errs []error
	pct := func(xs []float64, q float64) float64 {
		v, err := percentile(xs, q)
		errs = append(errs, err)
		return v
	}
	dl := func(name string, labels ...string) float64 { return delta(b.before, b.after, name, labels...) }
	req := float64(l.attempted)
	hit, miss := dl("lpathd_result_cache", `event="hit"`), dl("lpathd_result_cache", `event="miss"`)
	phit, pmiss := dl("lpathd_plan_cache", `event="hit"`), dl("lpathd_plan_cache", `event="miss"`)
	queries := 0.0
	if !b.w.count {
		queries = req
	}
	ms := []metric{
		{"server.handler_ms.p50", pct(handler, 0.50), "ms"},
		{"server.handler_ms.p99", pct(handler, 0.99), "ms"},
		{"server.transport_ms.p50", pct(transport, 0.50), "ms"},
		{"server.result_cache.hit_ratio", ratio(hit, hit+miss), "ratio"},
		{"server.result_cache.evictions_per_req", ratio(dl("lpathd_result_cache", `event="eviction"`), req), "count"},
		{"server.batch.coalesced_share", ratio(dl("lpathd_batch_coalesced_total"), queries), "ratio"},
		{"server.batch.mean_size", ratio(dl("lpathd_batch_size_sum"), dl("lpathd_batch_size_count")), "count"},
		{"server.admission.shed_share", ratio(dl("lpathd_admission_total", `outcome="shed"`), req), "ratio"},
		{"server.query.truncated_share", ratio(dl("lpathd_query_results_total", `limit_hit="true"`), dl("lpathd_query_results_total")), "ratio"},
		{"lpath.plan_cache.lookups_per_req", ratio(phit+pmiss, req), "count"},
		{"lpath.plan_cache.hit_ratio", ratio(phit, phit+pmiss), "ratio"},
	}
	for _, s := range []string{"probe", "merge", "twig", "bitmap"} {
		ms = append(ms, metric{"planner.steps_per_eval." + s, ratio(dl("lpathd_plan_steps_total", `strategy="`+s+`"`), miss), "count"})
	}
	rms, err := b.replayMetrics(pct)
	if err != nil {
		return nil, err
	}
	return append(ms, rms...), errors.Join(errs...)
}

// replayMetrics builds the replay's engine from the same corpus, timing
// each set-up layer, and runs the traced replay. pct reads a percentile and
// records an unsupported one as the caller's error.
func (b *bench) replayMetrics(pct func([]float64, float64) float64) ([]metric, error) {
	text, err := os.ReadFile(b.textPath)
	if err != nil {
		return nil, err
	}
	var parseS, buildS, openS []float64
	var store *relstore.Store
	for k := 0; k < 3; k++ {
		t := time.Now()
		c, err := lpath.LoadCorpus(bytes.NewReader(text))
		if err != nil {
			return nil, err
		}
		parseS = append(parseS, time.Since(t).Seconds())
		tc := &tree.Corpus{Trees: c.Trees()}
		t = time.Now()
		store = relstore.Build(tc, relstore.SchemeInterval)
		buildS = append(buildS, time.Since(t).Seconds())
		t = time.Now()
		snap, err := lpath.OpenStore(b.snapPath)
		if err != nil {
			return nil, err
		}
		openS = append(openS, time.Since(t).Seconds())
		if err := snap.Close(); err != nil {
			return nil, err
		}
	}
	eng, err := engine.New(store)
	if err != nil {
		return nil, err
	}
	rp := &replayer{
		eng:   eng,
		adm:   server.NewAdmission(defaultMaxInFlight, defaultMaxQueue, defaultQueueWait),
		limit: b.limit(),
	}
	// Untimed warm-up over the same texts the end-to-end warm-up sent.
	warm := append(append([]string(nil), b.paper...), b.warm...)
	if _, err := rp.replay(func(i int) (string, bool) {
		if i < len(warm) {
			return warm[i], true
		}
		return "", false
	}, b.w.clients, time.Hour); err != nil {
		return nil, err
	}
	res, err := rp.replay(b.text, b.w.clients, b.dur/2)
	if err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(b.out, b.w.name+".spans.jsonl"), res.tracers); err != nil {
		return nil, err
	}

	var all []span
	for _, t := range res.tracers {
		all = append(all, t.spans...)
	}
	self := selfTimes(all)
	var total time.Duration
	for _, s := range all {
		if s.Parent < 0 {
			total += time.Duration(s.End - s.Start)
		}
	}
	share := func(name string) float64 { return ratio(float64(self[name]), float64(total)) }

	var admit, plan, exec []float64
	var with, withN [4]float64 // exec ms and requests whose plan has the strategy
	matches := 0
	for _, s := range res.stats {
		admit = append(admit, float64(s.admit)/1e6)
		plan = append(plan, float64(s.plan)/1e6)
		e := float64(s.exec) / 1e6
		exec = append(exec, e)
		for k, n := range [4]int{s.probe, s.merge, s.twig, s.bitmap} {
			if n > 0 {
				with[k] += e
				withN[k]++
			}
		}
		matches += s.matches
	}
	fmt.Printf("replay requests=%d spans=%d traced_wall=%v untraced_wall=%v\n", res.requests, len(all), res.wallOn, res.wallOff)
	return []metric{
		{"server.admission.wait_ms.p99", pct(admit, 0.99), "ms"},
		{"lpath.parse.share", share("lpath.parse"), "ratio"},
		{"planner.plan_ms.p50", pct(plan, 0.50), "ms"},
		{"planner.plan.share", share("planner.plan"), "ratio"},
		{"engine.exec_ms.p50", pct(exec, 0.50), "ms"},
		{"engine.exec_ms.p99", pct(exec, 0.99), "ms"},
		{"engine.exec.share", share("engine.exec"), "ratio"},
		{"engine.exec_ms.with_probe", ratio(with[0], withN[0]), "ms"},
		{"engine.exec_ms.with_merge", ratio(with[1], withN[1]), "ms"},
		{"engine.exec_ms.with_twig", ratio(with[2], withN[2]), "ms"},
		{"engine.exec_ms.with_bitmap", ratio(with[3], withN[3]), "ms"},
		{"engine.matches_per_req", ratio(float64(matches), float64(len(res.stats))), "count"},
		{"server.render.share", share("server.render"), "ratio"},
		{"relstore.build_s", median(buildS), "s"},
		{"tree.parse_s", median(parseS), "s"},
		{"relstore.snapshot_open_s", median(openS), "s"},
		{"server.warmup_s", b.warmupS, "s"},
		{"trace.overhead_share", ratio(float64(res.wallOn-res.wallOff), float64(res.wallOff)), "ratio"},
	}, nil
}
