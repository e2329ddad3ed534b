package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lpath/internal/engine"
	ast "lpath/internal/lpath"
	"lpath/internal/server"
)

// These mirror the defaults of cmd/lpathd/main.go's flags: admission
// (-max-inflight, -max-queue, -queue-wait), the per-request deadline
// (-default-timeout) and the plan cache capacity (-plan-cache). Keep them
// in step with that file.
const (
	defaultMaxInFlight = 4
	defaultMaxQueue    = 16
	defaultQueueWait   = 100 * time.Millisecond
	defaultTimeout     = 10 * time.Second
	defaultPlanCache   = 128
)

// replayer re-runs the request sequence in-process, calling each layer's
// public functions the way lpathd's uncached request path does: admission,
// compile through a plan cache, plan, execute with the limit pushed down,
// render. It has no result cache, so every request does the engine's work.
type replayer struct {
	eng   *engine.Engine
	adm   *server.Admission
	limit int // 0: count only, as /v1/count
}

// reqStats is one traced request's per-layer figures; the durations are
// its spans'.
type reqStats struct {
	admit, plan, exec time.Duration
	matches           int
	probe, merge      int
	twig, bitmap      int
}

func compile(text string) (*ast.Path, error) {
	p, err := ast.Parse(text)
	if err != nil {
		return nil, err
	}
	return p, ast.Validate(p)
}

// serve runs one request, recording spans into tr when it is on.
func (rp *replayer) serve(tr *tracer, pc *engine.PlanCache, id int64, text string, buf *bytes.Buffer) (reqStats, error) {
	var st reqStats
	start := time.Now()
	root := tr.begin(id, -1, "request")
	defer tr.end(root)
	ctx, cancel := context.WithTimeout(context.Background(), defaultTimeout)
	defer cancel()

	s := tr.begin(id, root, "server.admission")
	release, err := rp.adm.Acquire(ctx)
	st.admit = tr.end(s)
	if err != nil {
		return st, err
	}
	defer release()

	s = tr.begin(id, root, "lpath.parse")
	path, err := pc.GetOrCompile(text, compile)
	tr.end(s)
	if err != nil {
		return st, err
	}

	s = tr.begin(id, root, "planner.plan")
	plan := rp.eng.Plan(path)
	st.plan = tr.end(s)
	st.probe, st.merge, st.twig, st.bitmap = plan.StrategyCounts()

	s = tr.begin(id, root, "engine.exec")
	var ms []engine.Match
	if rp.limit > 0 {
		ms, err = rp.eng.EvalPlanLimitContext(ctx, path, plan, rp.limit+1)
		st.matches = len(ms)
	} else {
		st.matches, err = rp.eng.CountPlanContext(ctx, path, plan)
	}
	st.exec = tr.end(s)
	if err != nil {
		return st, err
	}

	// Render the fields lpathd's queryResponse carries, encoded as its
	// writeJSON does; elapsed_ms is the time so far.
	s = tr.begin(id, root, "server.render")
	out := struct {
		Corpus    string  `json:"corpus"`
		Query     string  `json:"query"`
		Count     int     `json:"count"`
		Matches   []match `json:"matches,omitempty"`
		Truncated bool    `json:"truncated,omitempty"`
		Cached    bool    `json:"cached"`
		ElapsedMS float64 `json:"elapsed_ms"`
	}{Corpus: corpusProfile, Query: text, Count: st.matches}
	if rp.limit > 0 {
		if len(ms) > rp.limit {
			ms, out.Count, out.Truncated = ms[:rp.limit], -1, true
		}
		out.Matches = make([]match, len(ms))
		for i, m := range ms {
			out.Matches[i] = match{Tree: m.TreeID, Tag: m.Node.Tag, Text: strings.Join(m.Node.Words(), " ")}
		}
	}
	out.ElapsedMS = float64(time.Since(start)) / 1e6
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	err = enc.Encode(&out)
	tr.end(s)
	return st, err
}

// replayResult holds the traced requests and the timing of both modes.
type replayResult struct {
	tracers         []*tracer
	stats           []reqStats
	wallOn, wallOff time.Duration
	requests        int
}

// replay runs texts (by index) in chunks. Each chunk runs twice, once with
// spans and once without, alternating which goes first, until the spans-on
// passes have taken d. Each mode has its own plan cache with lpathd's
// default capacity, so both see the same hits and misses.
func (rp *replayer) replay(texts func(i int) (string, bool), clients int, d time.Duration) (*replayResult, error) {
	const chunk = 32
	res := &replayResult{}
	caches := [2]*engine.PlanCache{engine.NewPlanCache(defaultPlanCache), engine.NewPlanCache(defaultPlanCache)}
	on := make([]*tracer, clients)
	off := make([]*tracer, clients)
	base := time.Now()
	for c := range on {
		on[c] = &tracer{on: true, base: base}
		off[c] = &tracer{base: base}
	}
	res.tracers = on
	var stats = make([][]reqStats, clients)
	for lo := 0; res.wallOn < d; lo += chunk {
		var batch []string
		for i := lo; i < lo+chunk; i++ {
			t, ok := texts(i)
			if !ok {
				break
			}
			batch = append(batch, t)
		}
		if len(batch) == 0 {
			break
		}
		for pass := 0; pass < 2; pass++ {
			traced := (lo/chunk+pass)%2 == 0
			trs, pc := off, caches[0]
			if traced {
				trs, pc = on, caches[1]
			}
			var (
				next    atomic.Int64
				wg      sync.WaitGroup
				errOnce sync.Once
				runErr  error
			)
			t0 := time.Now()
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var buf bytes.Buffer
					for {
						k := int(next.Add(1) - 1)
						if k >= len(batch) {
							return
						}
						st, err := rp.serve(trs[c], pc, int64(lo+k), batch[k], &buf)
						if err != nil {
							errOnce.Do(func() { runErr = err })
							return
						}
						if traced {
							stats[c] = append(stats[c], st)
						}
					}
				}()
			}
			wg.Wait()
			if runErr != nil {
				return nil, runErr
			}
			if traced {
				res.wallOn += time.Since(t0)
				res.requests += len(batch)
			} else {
				res.wallOff += time.Since(t0)
			}
		}
	}
	for _, s := range stats {
		res.stats = append(res.stats, s...)
	}
	return res, nil
}
