package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datagen"
	"repro/internal/segidx"
	"repro/internal/xmlgraph"
)

// workload is one traffic mix over the shared dataset. WORKLOADS.md
// records why each was chosen and which layers it loads.
type workload struct {
	name string
	// rate is the open loop's query arrival rate per second, well below
	// the closed-loop capacity measured when the benchmark was written
	// (WORKLOADS.md gives each rate and why).
	rate float64
	// limit is the latency limit on the open loop's p99.
	limit time.Duration
	// coord serves through a coordinator over shard replica groups.
	coord bool
	// ingest layers a live segidx store over the base index and runs a
	// writer beside the reads.
	ingest bool
}

var workloads = []*workload{
	{name: "pairs", rate: 200, limit: 25 * time.Millisecond},
	{name: "zipf-ingest", rate: 50, limit: 100 * time.Millisecond, ingest: true},
	{name: "coord-pairs", rate: 100, limit: 40 * time.Millisecond, coord: true},
}

func findWorkload(name string) (*workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// The writer of zipf-ingest: one single-document batch per period, and
// a flush request every flushEvery batches, as a checkpointing client
// would send.
const (
	writePeriod = 10 * time.Millisecond
	flushEvery  = 50
)

// probe is the set-up's first query. Its keyword shape (one URL token)
// belongs to no workload, so the warm-up still meets every workload
// shape cold.
var probe = newQuery([]string{"html"})

// runner holds one benchmark run.
type runner struct {
	wl      *workload
	seed    int64
	seconds time.Duration
	tr      *tracer // nil in the untraced run

	data   *xmlgraph.Graph // the generated data graph the set-up loads
	st     *stack
	warm   []query // one query per keyword shape
	stream []query // the queries of the timed phases, in send order
	pool   []query // zipf-ingest's keyword bags, most popular first
	writer *retitler

	sampleEvery int
	saved       sync.Map // stream index -> response body, for the answer checks

	attempted, failed atomic.Int64
	notes             []string // failures, for the report
	notesMu           sync.Mutex
	ingestLat         []time.Duration
	docsWritten       atomic.Int64
}

func (r *runner) note(format string, args ...any) {
	r.notesMu.Lock()
	defer r.notesMu.Unlock()
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// queryClients is how many clients send queries: nproc, less one for
// the writer when the workload has one.
func (r *runner) queryClients() int {
	n := runtime.NumCPU()
	if r.wl.ingest {
		n--
	}
	return max(n, 1)
}

// prepare generates the run's inputs from the seed.
func (r *runner) prepare() error {
	corp, err := newCorpus(datagen.BenchDBLPParams())
	if err != nil {
		return err
	}
	// Only the data graph outlives the input generation, so the heap the
	// run measures is the served system's.
	r.data = corp.ds.Data
	open := r.openSeconds()
	// Enough distinct queries for the open loop plus a closed loop at
	// about twice the measured capacity.
	n := int(r.wl.rate*(open+prerollTime).Seconds()*1.5) + int(2000*(r.seconds-open).Seconds()) + 1000
	if r.wl.ingest {
		classes, err := zipfClasses(corp)
		if err != nil {
			return err
		}
		pool, combos := zipfPool(classes, r.seed, 4000)
		r.pool = pool
		seen := make(map[int]bool)
		for i, cb := range combos {
			if !seen[cb] {
				seen[cb] = true
				r.warm = append(r.warm, pool[i])
			}
		}
		for _, i := range zipfPicks(r.seed+1, len(pool), n) {
			r.stream = append(r.stream, pool[i])
		}
		r.writer = newRetitler(corp, classes[1].tokens, r.seed+2)
	} else {
		all := pairQueries(corp, r.seed, n+1)
		r.warm, r.stream = all[:1], all[1:]
	}
	r.sampleEvery = max(len(r.stream)/400, 1)
	return nil
}

// openSeconds is the open loop's share of the measured time: half.
// The closed loop has the other half, so its rate averages over many
// swings of the host's speed, which last about a second.
func (r *runner) openSeconds() time.Duration { return r.seconds / 2 }

func (r *runner) query(i int) query { return r.stream[i%len(r.stream)] }

// send issues one query and checks the reply's shape; the stream
// indexes picked for the answer checks keep their bodies.
func (r *runner) send(c *client, q query, i int) bool {
	r.attempted.Add(1)
	req, err := http.NewRequest(http.MethodGet, c.base+q.path, nil)
	if err != nil {
		r.failed.Add(1)
		r.note("building %s: %v", q.path, err)
		return false
	}
	traced := r.tr != nil && r.tr.on.Load()
	var sp span
	if traced {
		sp = span{ID: r.tr.newID(), Name: "client.request"}
		sp.Req = sp.ID
		req.Header.Set(reqHeader, strconv.FormatUint(sp.ID, 10))
		sp.Start = r.tr.now()
	}
	code, body, err := c.do(req)
	if traced {
		sp.End, sp.N = r.tr.now(), int64(len(body))
		r.tr.add(sp)
	}
	if err != nil || code != http.StatusOK || !bytes.HasPrefix(body, resultsPrefix) {
		r.failed.Add(1)
		r.note("%s: status %d, error %v, body %.120q", q.path, code, err, body)
		return false
	}
	if i >= 0 && i < len(r.stream) && i%r.sampleEvery == 0 {
		r.saved.Store(i, body)
	}
	return true
}

type ingestRequest struct {
	Add   []segidx.Document `json:"add"`
	Flush bool              `json:"flush"`
}

// ingest sends the writer's i-th batch: one re-titled paper, with a
// flush request on every flushEvery-th batch.
func (r *runner) ingest(c *client, i int) bool {
	r.attempted.Add(1)
	body, err := json.Marshal(ingestRequest{Add: []segidx.Document{r.writer.next()}, Flush: (i+1)%flushEvery == 0})
	if err != nil {
		r.failed.Add(1)
		r.note("encoding batch %d: %v", i, err)
		return false
	}
	req, err := http.NewRequest(http.MethodPost, c.base+"/api/ingest", bytes.NewReader(body))
	if err != nil {
		r.failed.Add(1)
		r.note("building batch %d: %v", i, err)
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	code, resp, err := c.do(req)
	if err != nil || code != http.StatusOK {
		r.failed.Add(1)
		r.note("ingest batch %d: status %d, error %v, body %.120q", i, code, err, resp)
		return false
	}
	r.docsWritten.Add(1)
	return true
}

// startWriter runs the writer on its own client until the returned stop
// function is called; stop waits for it and keeps its latencies.
func (r *runner) startWriter() (stop func()) {
	if !r.wl.ingest {
		return func() {}
	}
	c := newClient(r.st.base)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.ingestLat = paced(writePeriod, done, func(i int) bool { return r.ingest(c, i) })
	}()
	return func() {
		close(done)
		wg.Wait()
		c.close()
	}
}

// clients opens the query clients of a phase.
func (r *runner) clients() []*client {
	cs := make([]*client, r.queryClients())
	for i := range cs {
		cs[i] = newClient(r.st.base)
	}
	return cs
}

func closeAll(cs []*client) {
	for _, c := range cs {
		c.close()
	}
}

// warmupPasses is how many passes warmup_s averages over: the
// cold CN generation happens once per front, so one front gives one
// sample. A pass is a few milliseconds of one core, whose speed on a
// shared host swings by half within a second and drifts over a run, so
// half the passes run before the timed phases and half after them.
const warmupPasses = 50

// warmup sends one query per keyword shape, in sequence, from a fresh
// client to the front of the timed phases, and then to fresh fronts
// over clones of the loaded system, each with an empty CN memo. It
// returns the time of each pass.
func (r *runner) warmup() ([]time.Duration, error) {
	ds, err := r.warmupFresh(warmupPasses/2 - 1)
	return append(ds, r.warmupPass(r.st.front)), err
}

// warmupFresh runs one pass on each of n fresh fronts.
func (r *runner) warmupFresh(n int) ([]time.Duration, error) {
	var ds []time.Duration
	for i := 0; i < n; i++ {
		f, err := r.st.newFront(cloneSystem(r.st.sys), nil, nil)
		if err != nil {
			return nil, fmt.Errorf("starting a fresh front for the warm-up: %w", err)
		}
		ds = append(ds, r.warmupPass(f))
		r.st.closeFront(f)
	}
	return ds, nil
}

func (r *runner) warmupPass(f *front) time.Duration {
	c := newClient(f.base)
	defer c.close()
	runtime.GC() // every pass starts from the same heap state
	start := time.Now()
	for _, q := range r.warm {
		r.send(c, q, -1)
	}
	return time.Since(start)
}

// prerollTime is how long the untimed open loop before the timed
// phases runs. The warm-up's forced collections leave the GC pacer
// tuned for an idle process, so without it the first collection under
// load starts late and stalls the requests behind its assists; the
// pre-roll lets a collection or more under load retune it.
const prerollTime = 5 * time.Second

// preroll runs the open loop at the workload's rate for prerollTime
// over the tail of the stream, which the timed phases leave unused, so
// their queries stay new. Its operations count as attempted; their
// latencies are not kept.
func (r *runner) preroll() {
	cs := r.clients()
	defer closeAll(cs)
	sched := schedule(r.seed+4, r.wl.rate, prerollTime)
	base := len(r.stream) - len(sched)
	runtime.GC()
	openLoop(cs, sched, func(c *client, i int) bool { return r.send(c, r.stream[base+i], -1) })
}

// openPhase runs the open loop at the workload's rate for d over the
// stream from index 0. It follows the pre-roll without a forced
// collection, so the timed loop meets the GC as a serving process does.
func (r *runner) openPhase(d time.Duration, seed int64) openResult {
	cs := r.clients()
	defer closeAll(cs)
	sched := schedule(seed, r.wl.rate, d)
	gc0 := numGC()
	res := openLoop(cs, sched, func(c *client, i int) bool { return r.send(c, r.query(i), i) })
	fmt.Printf("open loop: %d garbage collections\n", numGC()-gc0)
	return res
}

// closedPhase runs the closed loop for d over the stream from index
// base. It returns the rate of correct answers per second over the
// whole phase, and how many queries it sent.
func (r *runner) closedPhase(d time.Duration, base int) (qps float64, sent int64) {
	cs := r.clients()
	defer closeAll(cs)
	res := closedLoop(cs, d, func(c *client, i int) bool { return r.send(c, r.query(base+i), base+i) })
	return float64(res.ok) / d.Seconds(), res.attempted
}

// checkSaved compares the kept answers of the timed phases with the
// engine's direct answers. On coord-pairs the engine is the single node
// over the same data, so equality means the coordinator answered byte
// for byte as one node would, with no degradation note.
func (r *runner) checkSaved() int {
	wrong := 0
	r.saved.Range(func(k, v any) bool {
		q := r.query(k.(int))
		want, err := reference(r.st.sys, q)
		if err != nil || !bytes.Equal(want, v.([]byte)) {
			wrong++
			r.note("answer to %q differs from the engine's (err %v)", q.keywords, err)
		}
		return true
	})
	return wrong
}

// checkFresh asks again, over HTTP and so through the result cache, for
// the most popular keyword bags and a seeded random sample of the rest,
// after the writer has stopped: each answer must equal a fresh engine
// answer over the live store. A stale cached answer is a failure.
func (r *runner) checkFresh() (checked, stale int) {
	idx := make([]int, 0, 200)
	for i := 0; i < 100 && i < len(r.pool); i++ {
		idx = append(idx, i)
	}
	rng := rand.New(rand.NewSource(r.seed + 3))
	for i := 0; i < 100; i++ {
		idx = append(idx, rng.Intn(len(r.pool)))
	}
	c := newClient(r.st.base)
	defer c.close()
	for _, i := range idx {
		q := r.pool[i]
		r.attempted.Add(1)
		req, err := http.NewRequest(http.MethodGet, c.base+q.path, nil)
		if err != nil {
			r.failed.Add(1)
			stale++
			continue
		}
		code, body, err := c.do(req)
		want, rerr := reference(r.st.sys, q)
		checked++
		if err != nil || code != http.StatusOK || rerr != nil || !bytes.Equal(body, want) {
			r.failed.Add(1)
			stale++
			r.note("fresh check %q: served answer differs from the live store's (status %d, err %v, ref err %v)", q.keywords, code, err, rerr)
		}
	}
	return checked, stale
}

// checkProbe compares the set-up's first answer with the engine's.
func (r *runner) checkProbe(body []byte) bool {
	want, err := reference(r.st.sys, probe)
	if err != nil || !bytes.Equal(want, body) {
		r.note("set-up probe answer differs from the engine's (err %v)", err)
		return false
	}
	return true
}

// setup builds the stack and sends the first query; it returns the time
// from handing over the data graph to the first answer, and that answer.
func (r *runner) setup(dir string, st *stepTimer) (time.Duration, []byte, error) {
	start := time.Now()
	s, err := buildStack(r.wl, r.data, dir, r.tr, st)
	if err != nil {
		return 0, nil, err
	}
	r.st = s
	c := newClient(s.base)
	defer c.close()
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, c.base+probe.path, nil)
	if err != nil {
		return 0, nil, err
	}
	code, body, err := c.do(req)
	el := time.Since(start)
	if err != nil || code != http.StatusOK || !bytes.HasPrefix(body, resultsPrefix) {
		return 0, nil, fmt.Errorf("set-up probe: status %d, error %v, body %.200q", code, err, body)
	}
	return el, body, nil
}

// heapMB forces a collection and returns the live Go heap in MiB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// sampleStore watches the live store while the writer runs: the most
// segments it held at once, and WAL bytes appended per document written
// (measured between samples that saw the same log file). The returned
// stop function records both into lr.
func (r *runner) sampleStore(lr *layerReport) (stop func()) {
	if r.st.store == nil {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	var segMax int
	var walBytes, walDocs int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		prev, prevDocs := r.st.store.Stats(), r.docsWritten.Load()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			cur, docs := r.st.store.Stats(), r.docsWritten.Load()
			segMax = max(segMax, len(cur.Segments))
			if cur.WALSeq == prev.WALSeq && cur.WALBytes >= prev.WALBytes {
				walBytes += cur.WALBytes - prev.WALBytes
				walDocs += docs - prevDocs
			}
			prev, prevDocs = cur, docs
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		lr.set("segidx.segments_max", float64(segMax), "count")
		lr.set("segidx.wal_bytes_per_doc", ratio(float64(walBytes), float64(walDocs)), "bytes")
	}
}

// checkTracedIdentity runs the first n stream queries through the traced
// engine path and through core's own, and counts identical answers.
func (r *runner) checkTracedIdentity(n int) (same, total int) {
	eng := &tracedSystem{System: r.st.sys, t: r.tr}
	r.tr.on.Store(true)
	defer r.tr.on.Store(false)
	ctx := context.Background()
	for i := 0; i < n && i < len(r.stream); i++ {
		q := r.stream[i]
		got, _, err1 := eng.QueryScoredContext(ctx, q.keywords, topK, "")
		want, _, err2 := r.st.sys.QueryScoredContext(ctx, q.keywords, topK, "")
		total++
		if err1 == nil && err2 == nil && sameResults(got, want) &&
			bytes.Equal(renderBody(r.st.sys, got), renderBody(r.st.sys, want)) {
			same++
		}
	}
	return same, total
}

// numGC is how many GC cycles the process has completed.
func numGC() uint32 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC
}
