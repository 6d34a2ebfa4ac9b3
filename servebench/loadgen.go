package main

import (
	"context"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// failedLatency stands for a failed operation in a latency sample set:
// a failure misses every latency limit, so it sorts above any real time.
const failedLatency = time.Duration(math.MaxInt64)

// client is one load-generator connection. Each client owns a transport
// limited to a single persistent connection, so a run holds exactly as
// many connections as it has clients; dials counts how often that
// connection had to be (re)established.
type client struct {
	hc    *http.Client
	base  string
	dials atomic.Int64
}

func newClient(base string) *client {
	c := &client{base: base}
	d := &net.Dialer{}
	c.hc = &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c.dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
	return c
}

// close drops the client's idle connection.
func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends req and reads the whole response body: a latency measured
// around do ends at the last response byte.
func (c *client) do(req *http.Request) (int, []byte, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

// sender issues operation i of a phase on client c and reports whether
// it succeeded with a correct answer.
type sender func(c *client, i int) bool

// schedule returns the arrival offsets of a Poisson process at rate
// arrivals per second over d, deterministic in seed.
func schedule(seed int64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= d {
			return out
		}
		out = append(out, off)
	}
}

// openResult is what an open loop measured.
type openResult struct {
	// lat[i] runs from operation i's due time to its last response byte,
	// so time a request spent waiting behind a stalled one counts;
	// failedLatency marks a failure.
	lat []time.Duration
	// late holds the generator's oversleep past a due time, for the
	// operations whose client was idle when they fell due.
	late []time.Duration
}

// openLoop sends operation i at sched[i] after the start, spreading the
// operations over the clients: each client takes the next operation in
// schedule order once its previous one has completed. When every client
// is busy, an operation starts late and the wait is part of its latency.
func openLoop(clients []*client, sched []time.Duration, send sender) openResult {
	res := openResult{lat: make([]time.Duration, len(sched))}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			var late []time.Duration
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					break
				}
				due := start.Add(sched[i])
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
					late = append(late, time.Since(due))
				}
				if send(c, i) {
					res.lat[i] = time.Since(due)
				} else {
					res.lat[i] = failedLatency
				}
			}
			mu.Lock()
			res.late = append(res.late, late...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return res
}

// closedResult is what a closed loop measured.
type closedResult struct {
	ok, attempted int64
	// done holds each successful operation's completion time after the
	// start, unsorted.
	done []time.Duration
}

// closedLoop runs every client back to back for d: each sends its next
// operation only after the previous reply.
func closedLoop(clients []*client, d time.Duration, send sender) closedResult {
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	var res closedResult
	start := time.Now()
	deadline := start.Add(d)
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			var done []time.Duration
			for time.Now().Before(deadline) {
				if send(c, int(next.Add(1)-1)) {
					done = append(done, time.Since(start))
				}
			}
			mu.Lock()
			res.done = append(res.done, done...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.attempted = next.Load()
	res.ok = int64(len(res.done))
	return res
}

// paced calls op(i) at a fixed period until stop closes, timing each
// call from its due time, so a slow call delays the next ones' clocks
// too.
func paced(period time.Duration, stop <-chan struct{}, op func(i int) bool) []time.Duration {
	var lat []time.Duration
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		t := time.NewTimer(time.Until(due))
		select {
		case <-stop:
			t.Stop()
			return lat
		case <-t.C:
		}
		if op(i) {
			lat = append(lat, time.Since(due))
		} else {
			lat = append(lat, failedLatency)
		}
	}
}

// sortedCopy returns the samples in ascending order.
func sortedCopy(xs []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), xs...)
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// quantile returns the nearest-rank p-quantile of sorted samples and how
// many samples lie above it. A percentile is only worth reporting when
// at least minAbove samples do.
func quantile(sorted []time.Duration, p float64) (v time.Duration, above int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	r := int(math.Ceil(p*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	return sorted[r], n - 1 - r
}

// minAbove is how many samples must lie above a reported percentile.
const minAbove = 10
