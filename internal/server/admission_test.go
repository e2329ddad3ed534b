package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"lpath"
)

func TestAdmissionFastPath(t *testing.T) {
	a := NewAdmission(2, 0, 0)
	r1, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.InFlight != 2 || st.Admitted != 2 {
		t.Fatalf("stats %+v, want 2 in flight, 2 admitted", st)
	}
	// Both tokens held, no queue: the third request sheds immediately.
	if _, err := a.Acquire(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("got %v, want ErrOverloaded", err)
	}
	r1()
	r1() // double release is a no-op, not a token leak
	if st := a.Stats(); st.InFlight != 1 {
		t.Fatalf("in flight %d after release, want 1", st.InFlight)
	}
	r3, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatalf("token not reusable after release: %v", err)
	}
	r2()
	r3()
	if st := a.Stats(); st.InFlight != 0 || st.Shed != 1 {
		t.Fatalf("final stats %+v, want 0 in flight, 1 shed", st)
	}
}

func TestAdmissionQueueWait(t *testing.T) {
	a := NewAdmission(1, 1, 2*time.Second)
	release, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// A queued waiter gets the token as soon as the holder releases it.
	got := make(chan error, 1)
	go func() {
		r, err := a.Acquire(context.Background())
		if err == nil {
			r()
		}
		got <- err
	}()
	for a.Stats().Queued == 0 {
		time.Sleep(time.Millisecond)
	}
	release()
	if err := <-got; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}

	// A queued waiter whose context dies gets the context error, not a shed.
	release, err = a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		_, err := a.Acquire(ctx)
		got <- err
	}()
	for a.Stats().Queued == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-got; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: got %v, want context.Canceled", err)
	}
	release()
}

func TestAdmissionQueueTimeout(t *testing.T) {
	a := NewAdmission(1, 1, 5*time.Millisecond)
	release, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if _, err := a.Acquire(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("got %v, want ErrOverloaded after queue wait", err)
	}
	if st := a.Stats(); st.Timeouts != 1 || st.Shed != 1 {
		t.Fatalf("stats %+v, want 1 timeout, 1 shed", st)
	}
}

// TestOverloadSheds429WhileInFlightCompletes is the admission-control
// contract end to end: with the single evaluation slot occupied, concurrent
// requests are shed fast with 429 (and a Retry-After header), and once the
// slot frees, queries evaluate normally — the overload never corrupts or
// blocks the in-flight work.
func TestOverloadSheds429WhileInFlightCompletes(t *testing.T) {
	s, c := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: -1, CacheSize: -1})
	h := s.Handler()

	want, err := c.Count(lpath.MustCompile(`//NP`))
	if err != nil {
		t.Fatal(err)
	}

	// Occupy the single evaluation slot, deterministically standing in for a
	// long-running in-flight query.
	release, err := s.admission.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	const burst = 8
	codes := make([]int, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := postJSON(t, h, "/v1/count", queryRequest{Query: `//NP`})
			codes[i] = w.Code
			if w.Code == http.StatusTooManyRequests && w.Header().Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusTooManyRequests {
			t.Fatalf("burst request %d: status %d, want 429 while slot occupied", i, code)
		}
	}

	// The in-flight query completes and frees the slot; service resumes.
	release()
	w := postJSON(t, h, "/v1/count", queryRequest{Query: `//NP`})
	if w.Code != http.StatusOK {
		t.Fatalf("post-overload request: status %d: %s", w.Code, w.Body.String())
	}
	if resp := decodeResponse(t, w); resp.Count != want {
		t.Fatalf("post-overload count %d, want %d", resp.Count, want)
	}
	if st := s.admission.Stats(); st.Shed < burst {
		t.Fatalf("shed %d, want >= %d", st.Shed, burst)
	}
}

// TestConcurrentBurstMixesAdmissionAndShedding drives a real concurrent
// burst with one slot and no queue: every request terminates promptly with
// 200 or 429, and at least one is actually served.
func TestConcurrentBurstMixesAdmissionAndShedding(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: -1, CacheSize: -1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const burst = 12
	codes := make(chan int, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/count", "application/json",
				jsonBody(t, queryRequest{Query: `//S[//NP/ADJP]`}))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	wg.Wait()
	close(codes)

	ok, shed := 0, 0
	for code := range codes {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Fatalf("unexpected status %d", code)
		}
	}
	if ok == 0 {
		t.Fatal("no burst request was served")
	}
	if ok+shed != burst {
		t.Fatalf("accounted %d of %d requests", ok+shed, burst)
	}
	t.Logf("burst: %d served, %d shed", ok, shed)
}

func jsonBody(t testing.TB, v any) *bytes.Reader {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}
