package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/kwindex"
	"repro/internal/pipeline"
	"repro/internal/rank"
	"repro/internal/shard"
)

// The traced run wraps the public entry point of each layer — the
// webdemo handler, the engine qserve calls, the pipeline stages, the
// index source, the shard handlers and the coordinator's transport — in
// spans recorded from this package. Spans stay in memory and are written
// out when the run ends.

// Headers carrying trace identity across HTTP hops.
const (
	reqHeader  = "X-Bench-Req"  // the request a span belongs to
	callHeader = "X-Bench-Call" // the coordinator→shard call span
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the span that caused this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Cover is how much of the span its child index lookups cover.
	Cover int64 `json:"cover_ns,omitempty"`
	// N counts the span's work: bytes, results or networks by layer.
	N int64 `json:"n,omitempty"`
	// Hits and Misses are cache traffic reported inside the span.
	Hits   int64  `json:"hits,omitempty"`
	Misses int64  `json:"misses,omitempty"`
	Note   string `json:"note,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// self is the span's duration less the part its children cover.
func (s span) self() time.Duration { return time.Duration(s.End - s.Start - s.Cover) }

// tracer collects spans and the counters measured at the same
// boundaries. Wrappers record only while on is set, so a traced run can
// measure the same stack with tracing off for the overhead comparison.
type tracer struct {
	t0  time.Time
	on  atomic.Bool
	ids atomic.Uint64

	mu    sync.Mutex
	spans []span

	// engineRefs maps a query's keyword bag to the request span that
	// asked for it: qserve runs the engine on a context detached from the
	// HTTP request, so the request identity cannot ride the context
	// across that hop and is matched by keywords instead.
	engineRefs sync.Map

	lookups     atomic.Int64 // index source calls
	lookupNanos atomic.Int64 // their summed duration
	rtCalls     atomic.Int64 // coordinator→shard round trips
	rtReused    atomic.Int64 // of which rode a reused connection
	rtBytes     atomic.Int64 // request plus response bytes on that wire
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// mark returns how many spans exist, so a phase can read back its own.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// since returns a copy of the spans recorded after mark m.
func (t *tracer) since(m int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[m:]...)
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanRef identifies the span a context or header belongs to.
type spanRef struct{ id, req uint64 }

type spanKey struct{}

func withSpan(ctx context.Context, r spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, r)
}

func spanOf(ctx context.Context) spanRef {
	r, _ := ctx.Value(spanKey{}).(spanRef)
	return r
}

func bagKey(keywords []string) string { return strings.Join(keywords, " ") }

// edge wraps the webdemo handler: one span per request, parented on the
// client's request span named by the request header.
func (t *tracer) edge(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		ref := spanRef{id: t.newID(), req: req}
		if q := r.URL.Query().Get("q"); q != "" {
			t.engineRefs.Store(bagKey(strings.Fields(q)), ref)
		}
		cw := &capturingWriter{ResponseWriter: w}
		start := t.now()
		h.ServeHTTP(cw, r.WithContext(withSpan(r.Context(), ref)))
		t.add(span{ID: ref.id, Parent: req, Req: req, Name: "webdemo.request", Start: start, End: t.now(), N: cw.n, Note: r.URL.Path})
	})
}

// engineSpan opens the engine span for a query and returns the context
// carrying it, or ok=false while tracing is off.
func (t *tracer) engineSpan(ctx context.Context, keywords []string) (context.Context, span, bool) {
	if !t.on.Load() {
		return ctx, span{}, false
	}
	sp := span{ID: t.newID(), Name: "engine", Start: t.now(), Note: "linked by keyword bag: qserve detaches the engine context"}
	if v, ok := t.engineRefs.Load(bagKey(keywords)); ok {
		ref := v.(spanRef)
		sp.Parent, sp.Req = ref.id, ref.req
	} else {
		sp.Note = "unlinked: no request carried this keyword bag"
	}
	return withSpan(ctx, spanRef{id: sp.ID, req: sp.Req}), sp, true
}

// tracedSystem is the single-node engine of the traced run: the loaded
// system, with queries run through core's own pipeline assembly but
// with every stage and the index source wrapped.
type tracedSystem struct {
	*core.System
	t *tracer
}

// QueryContext mirrors core: the default-scorer top-k query.
func (e *tracedSystem) QueryContext(ctx context.Context, keywords []string, k int) ([]exec.Result, error) {
	rs, _, err := e.QueryScoredContext(ctx, keywords, k, "")
	return rs, err
}

// QueryScoredContext builds the same pipeline.Query core does and runs
// it through PipelineWith over a recording source.
func (e *tracedSystem) QueryScoredContext(ctx context.Context, keywords []string, k int, scorer string) ([]exec.Result, *pipeline.Relaxation, error) {
	ctx, sp, ok := e.t.engineSpan(ctx, keywords)
	if !ok {
		return e.System.QueryScoredContext(ctx, keywords, k, scorer)
	}
	rs, rx, err := e.run(ctx, keywords, k, scorer)
	sp.End, sp.N = e.t.now(), int64(len(rs))
	e.t.add(sp)
	return rs, rx, err
}

func (e *tracedSystem) run(ctx context.Context, keywords []string, k int, scorer string) ([]exec.Result, *pipeline.Relaxation, error) {
	if scorer == "" {
		scorer = e.Opts.Scorer
	}
	sc, err := rank.New(scorer)
	if err != nil {
		return nil, nil, err
	}
	q := &pipeline.Query{Keywords: keywords, Mode: pipeline.ModeTopK, K: k, Strategy: exec.NestedLoop, Scorer: sc}
	src := &tracedSource{Source: e.Index, t: e.t, record: true}
	p := e.PipelineWith(src)
	ref := spanOf(ctx)
	for _, st := range []*pipeline.Stage{&p.Discover, &p.Generate, &p.Reduce, &p.Optimize, &p.Execute, &p.Rank} {
		*st = tracedStage{inner: *st, t: e.t, src: src, eng: ref}
	}
	if err := p.Run(ctx, q); err != nil {
		return nil, nil, err
	}
	return q.Results, q.Relaxation, nil
}

// tracedStage records one span per stage run, with the time its index
// lookups cover and the stage's own report.
type tracedStage struct {
	inner pipeline.Stage
	t     *tracer
	src   *tracedSource
	eng   spanRef
}

func (s tracedStage) Name() string { return s.inner.Name() }

func (s tracedStage) Run(ctx context.Context, q *pipeline.Query, rep *pipeline.StageReport) error {
	start := s.t.now()
	err := s.inner.Run(ctx, q, rep)
	end := s.t.now()
	s.t.add(span{
		ID: s.t.newID(), Parent: s.eng.id, Req: s.eng.req, Name: "pipeline." + s.inner.Name(),
		Start: start, End: end, Cover: s.src.cover(start, end),
		N: rep.Out, Hits: rep.CacheHits, Misses: rep.CacheMisses,
	})
	return err
}

// tracedSource counts and times index lookups. With record set it keeps
// each lookup's interval, so a stage's self time can exclude the part of
// it lookups cover. Lookups carry no context: a per-query source is how
// they are attributed to their query.
type tracedSource struct {
	kwindex.Source
	t      *tracer
	record bool

	mu sync.Mutex
	iv [][2]int64
}

func (s *tracedSource) observe(start int64) {
	end := s.t.now()
	s.t.lookups.Add(1)
	s.t.lookupNanos.Add(end - start)
	if s.record {
		s.mu.Lock()
		s.iv = append(s.iv, [2]int64{start, end})
		s.mu.Unlock()
	}
}

func (s *tracedSource) ContainingList(k string) []kwindex.Posting {
	if !s.t.on.Load() {
		return s.Source.ContainingList(k)
	}
	start := s.t.now()
	defer s.observe(start)
	return s.Source.ContainingList(k)
}

func (s *tracedSource) SchemaNodes(k string) []string {
	if !s.t.on.Load() {
		return s.Source.SchemaNodes(k)
	}
	start := s.t.now()
	defer s.observe(start)
	return s.Source.SchemaNodes(k)
}

func (s *tracedSource) TOSet(k, schemaNode string) map[int64]bool {
	if !s.t.on.Load() {
		return s.Source.TOSet(k, schemaNode)
	}
	start := s.t.now()
	defer s.observe(start)
	return s.Source.TOSet(k, schemaNode)
}

// cover returns how much of [from, to] the recorded lookups cover,
// counting overlapping lookups (parallel execute workers) once.
func (s *tracedSource) cover(from, to int64) int64 {
	s.mu.Lock()
	iv := make([][2]int64, 0, len(s.iv))
	for _, x := range s.iv {
		a, b := max(x[0], from), min(x[1], to)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	s.mu.Unlock()
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		switch {
		case i == 0:
			curA, curB = x[0], x[1]
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if len(iv) > 0 {
		total += curB - curA
	}
	return total
}

// tracedCoord is the coordinator engine of the traced run: the same
// coordinator, with an engine span around each query.
type tracedCoord struct {
	*shard.Coordinator
	t *tracer
}

func (e *tracedCoord) QueryContext(ctx context.Context, keywords []string, k int) ([]exec.Result, error) {
	rs, _, err := e.QueryScoredContext(ctx, keywords, k, "")
	return rs, err
}

func (e *tracedCoord) QueryScoredContext(ctx context.Context, keywords []string, k int, scorer string) ([]exec.Result, *pipeline.Relaxation, error) {
	ctx, sp, ok := e.t.engineSpan(ctx, keywords)
	rs, rx, err := e.Coordinator.QueryScoredContext(ctx, keywords, k, scorer)
	if ok {
		sp.End, sp.N = e.t.now(), int64(len(rs))
		e.t.add(sp)
	}
	return rs, rx, err
}

// transport wraps the coordinator's shard transport: one span per round
// trip from the request to the last response byte, with connection
// reuse and wire bytes counted. The span's ID travels to the shard in a
// header so the shard's server span can name it as parent.
type transport struct {
	inner http.RoundTripper
	t     *tracer
}

func (tt *transport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !tt.t.on.Load() {
		return tt.inner.RoundTrip(r)
	}
	ref := spanOf(r.Context())
	sp := span{ID: tt.t.newID(), Parent: ref.id, Req: ref.req, Name: "shard.call", Note: r.URL.Path}
	var reused atomic.Bool
	ctx := httptrace.WithClientTrace(r.Context(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) { reused.Store(info.Reused) },
	})
	r = r.Clone(ctx)
	r.Header.Set(reqHeader, strconv.FormatUint(ref.req, 10))
	r.Header.Set(callHeader, strconv.FormatUint(sp.ID, 10))
	sp.Start = tt.t.now()
	resp, err := tt.inner.RoundTrip(r)
	tt.t.rtCalls.Add(1)
	if reused.Load() {
		tt.t.rtReused.Add(1)
	}
	if err != nil {
		sp.End, sp.Note = tt.t.now(), sp.Note+" error"
		tt.t.add(sp)
		return nil, err
	}
	sp.N = max(r.ContentLength, 0)
	resp.Body = &spanBody{ReadCloser: resp.Body, t: tt.t, sp: sp}
	return resp, nil
}

// spanBody ends its round-trip span when the caller closes the body.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	sp   span
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.sp.N += int64(n)
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.sp.End = b.t.now()
		b.t.rtBytes.Add(b.sp.N)
		b.t.add(b.sp)
	})
	return err
}

// shardHandler wraps one shard replica's handler: one server-side span
// per protocol request, parented on the coordinator's call span.
// Execute responses are decoded to count the results shipped.
func (t *tracer) shardHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || !strings.HasPrefix(r.URL.Path, "/shard/") {
			h.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		call, _ := strconv.ParseUint(r.Header.Get(callHeader), 10, 64)
		name := "shard.lookup"
		if r.URL.Path == "/shard/execute" {
			name = "shard.execute"
		}
		cw := &capturingWriter{ResponseWriter: w, keep: name == "shard.execute"}
		start := t.now()
		h.ServeHTTP(cw, r)
		sp := span{ID: t.newID(), Parent: call, Req: req, Name: name, Start: start, End: t.now()}
		if cw.keep {
			var er shard.ExecResponse
			if json.Unmarshal(cw.buf, &er) == nil {
				sp.N = int64(len(er.Results))
			}
		}
		t.add(sp)
	})
}

// capturingWriter counts the bytes a handler writes and, with keep set,
// keeps them.
type capturingWriter struct {
	http.ResponseWriter
	keep bool
	buf  []byte
	n    int64
}

func (w *capturingWriter) Write(p []byte) (int, error) {
	if w.keep {
		w.buf = append(w.buf, p...)
	}
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}
