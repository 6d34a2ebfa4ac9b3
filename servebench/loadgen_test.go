package main

import (
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestScheduleIsDeterministicPerSeed(t *testing.T) {
	a := schedule(7, 500, 2*time.Second)
	b := schedule(7, 500, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, schedule(8, 500, 2*time.Second)) {
		t.Fatal("two seeds gave the same schedule")
	}
	if n := len(a); n < 850 || n > 1150 {
		t.Fatalf("%d arrivals in 2s at 500/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 2*time.Second {
			t.Fatalf("arrival %d at %v after %v", i, a[i], a[i-1])
		}
	}
}

// countConns serves 200 OK and counts the connections it accepted.
func countConns(t *testing.T, h http.HandlerFunc) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var conns atomic.Int64
	srv := httptest.NewUnstartedServer(h)
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, &conns
}

func TestClientKeepsOnePersistentConnection(t *testing.T) {
	srv, conns := countConns(t, func(w http.ResponseWriter, r *http.Request) { _, _ = w.Write([]byte("ok")) })
	c := newClient(srv.URL)
	defer c.close()
	sched := make([]time.Duration, 200)
	res := openLoop([]*client{c}, sched, func(c *client, i int) bool {
		req, _ := http.NewRequest(http.MethodGet, c.base+"/", nil)
		code, body, err := c.do(req)
		return err == nil && code == http.StatusOK && string(body) == "ok"
	})
	if n := failures(res.lat); n != 0 {
		t.Fatalf("%d requests failed", n)
	}
	if d, n := c.dials.Load(), conns.Load(); d != 1 || n != 1 {
		t.Fatalf("200 requests dialed %d times and opened %d server connections, want 1 and 1", d, n)
	}
}

func TestOpenLoopCountsAStallAgainstLaterRequests(t *testing.T) {
	const stall = 60 * time.Millisecond
	var n atomic.Int64
	srv, _ := countConns(t, func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 5 {
			time.Sleep(stall)
		}
	})
	c := newClient(srv.URL)
	defer c.close()
	sched := make([]time.Duration, 40)
	for i := range sched {
		sched[i] = time.Duration(i) * 2 * time.Millisecond
	}
	res := openLoop([]*client{c}, sched, func(c *client, i int) bool {
		req, _ := http.NewRequest(http.MethodGet, c.base+"/", nil)
		_, _, err := c.do(req)
		return err == nil
	})
	// Request 10 fell due 20ms in, while request 4 (the fifth) held the
	// only connection until at least 8ms+60ms: it waited, and its
	// latency, measured from its due time, shows the wait.
	if got, want := res.lat[10], 68*time.Millisecond-20*time.Millisecond; got < want {
		t.Fatalf("request 10 latency %v, want at least %v behind the stall", got, want)
	}
	if res.lat[2] >= stall {
		t.Fatalf("request 2, before the stall, took %v", res.lat[2])
	}
}

func TestClosedLoopWaitsForEachReply(t *testing.T) {
	var inFlight, peak atomic.Int64
	srv, _ := countConns(t, func(w http.ResponseWriter, r *http.Request) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
	})
	cs := []*client{newClient(srv.URL), newClient(srv.URL)}
	defer closeAll(cs)
	res := closedLoop(cs, 100*time.Millisecond, func(c *client, i int) bool {
		req, _ := http.NewRequest(http.MethodGet, c.base+"/", nil)
		_, _, err := c.do(req)
		return err == nil
	})
	if res.ok == 0 || res.ok != res.attempted {
		t.Fatalf("%d of %d requests succeeded", res.ok, res.attempted)
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("%d requests in flight at once from 2 closed-loop clients", p)
	}
}

func TestPercentileNeedsTenSamplesAbove(t *testing.T) {
	mk := func(n int) []time.Duration {
		xs := make([]time.Duration, n)
		for i := range xs {
			xs[i] = time.Duration(n-i) * time.Microsecond
		}
		return xs
	}
	v, above := quantile(sortedCopy(mk(1000)), 0.99)
	if v != 990*time.Microsecond || above != 10 {
		t.Fatalf("p99 of 1..1000us = %v with %d above, want 990us with 10", v, above)
	}
	m := make(map[string]metric)
	if err := latencyMetrics(m, "q", mk(1000), 0); err != nil {
		t.Fatalf("1000 samples: %v", err)
	}
	if err := latencyMetrics(make(map[string]metric), "q", mk(999), 0); err == nil {
		t.Fatal("999 samples leave 9 above p99, yet p99 was reported")
	}
	if m["q_p99_ms"].Value != 0.99 || m["q_p50_ms"].Value != 0.5 {
		t.Fatalf("reported %v", m)
	}
}

func TestFailuresMissEveryLimit(t *testing.T) {
	xs := make([]time.Duration, 1100)
	for i := range xs {
		xs[i] = time.Millisecond
	}
	for i := 0; i < 20; i++ {
		xs[i] = failedLatency
	}
	s := sortedCopy(xs)
	if v, above := quantile(s, 0.99); v != failedLatency || above < minAbove {
		t.Fatalf("p99 with 20 failures in 1100 = %v with %d above, want the failure mark", v, above)
	}
	if err := latencyMetrics(make(map[string]metric), "q", xs, 0); err == nil {
		t.Fatal("a p99 made of failures was reported as a time")
	}
}

func TestPacedWriterKeepsItsRate(t *testing.T) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var lat []time.Duration
	var calls atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		lat = paced(5*time.Millisecond, stop, func(i int) bool { calls.Add(1); return i != 3 })
	}()
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	if n := calls.Load(); n < 10 || n > 22 {
		t.Fatalf("%d calls in 100ms at one per 5ms", n)
	}
	if failures(lat) != 1 || int64(len(lat)) != calls.Load() {
		t.Fatalf("%d samples, %d failures, for %d calls", len(lat), failures(lat), calls.Load())
	}
}

// failures counts failedLatency samples.
func failures(lat []time.Duration) int {
	n := 0
	for _, l := range lat {
		if l == failedLatency {
			n++
		}
	}
	return n
}
