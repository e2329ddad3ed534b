package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// request is one prepared HTTP request of the workload.
type request struct {
	text string
	body []byte
}

func newRequest(text string, limit int) request {
	body := map[string]any{"corpus": "wsj", "query": text}
	if limit > 0 {
		body["limit"] = limit
	}
	b, err := json.Marshal(body)
	if err != nil {
		panic(err) // a map of strings and ints always marshals
	}
	return request{text: text, body: b}
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// post sends one request and decodes the response. A non-200 status is
// returned as an error.
func post(client *http.Client, url string, req request, buf *bytes.Buffer) (*response, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(req.body))
	if err != nil {
		return nil, err
	}
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(buf.Bytes()))
	}
	var r response
	if err := json.Unmarshal(buf.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	return &r, nil
}

// keep reports whether request i is in the seeded sample whose answers are
// checked against the oracle after the timed phase: about one in stride.
func keep(seed int64, i, stride int) bool {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x%uint64(stride) == 0
}

// sample is one timed request's client latency and lpathd's own elapsed_ms.
type sample struct {
	latMS, handlerMS float64
}

// loadResult is what the timed phase observed.
type loadResult struct {
	elapsed   time.Duration
	attempted int
	failed    int  // transport errors, non-200 responses and wrong answers
	wrong     int  // wrong answers found by the sampled check
	exhausted bool // the request sequence ran out before the time did
	samples   []sample
	kept      map[int]*response // sampled request index → response
	firstErr  error
}

// runLoad drives the server with clients closed-loop clients for d: each
// client sends its next request as soon as its previous one completes,
// taking request indexes in order from next(i), which returns false when
// the sequence is exhausted. The responses to the requests kept(i) selects
// are kept for the oracle check.
func runLoad(client *http.Client, url string, clients int, d time.Duration, next func(i int) (request, bool), kept func(i int) bool) *loadResult {
	var (
		idx    atomic.Int64
		wg     sync.WaitGroup
		states = make([]*loadResult, clients) // one per client, merged below
	)
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		st := &loadResult{kept: make(map[int]*response)}
		states[c] = st
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				i := int(idx.Add(1) - 1)
				req, ok := next(i)
				if !ok {
					st.exhausted = true
					return
				}
				st.attempted++
				t0 := time.Now()
				r, err := post(client, url, req, &buf)
				lat := time.Since(t0)
				if err != nil {
					st.failed++
					if st.firstErr == nil {
						st.firstErr = fmt.Errorf("request %d %q: %w", i, req.text, err)
					}
					continue
				}
				st.samples = append(st.samples, sample{latMS: float64(lat) / 1e6, handlerMS: r.ElapsedMS})
				if kept(i) {
					r.Matches = bytes.Clone(r.Matches)
					st.kept[i] = r
				}
			}
		}()
	}
	wg.Wait()
	res := &loadResult{elapsed: time.Since(start), kept: make(map[int]*response)}
	for _, st := range states {
		res.attempted += st.attempted
		res.failed += st.failed
		res.exhausted = res.exhausted || st.exhausted
		res.samples = append(res.samples, st.samples...)
		for i, r := range st.kept {
			res.kept[i] = r
		}
		if res.firstErr == nil {
			res.firstErr = st.firstErr
		}
	}
	return res
}

// keptIndexes returns the kept request indexes in order, at most limit of
// them chosen evenly across the run.
func (res *loadResult) keptIndexes(limit int) []int {
	out := make([]int, 0, len(res.kept))
	for i := range res.kept {
		out = append(out, i)
	}
	sort.Ints(out)
	if len(out) <= limit {
		return out
	}
	picked := make([]int, limit)
	for k := range picked {
		picked[k] = out[k*len(out)/limit]
	}
	return picked
}
