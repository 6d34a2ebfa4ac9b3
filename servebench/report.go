package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"repro/internal/pipeline"
	"repro/internal/qserve"
	"repro/internal/relstore"
	"repro/internal/segidx"
	"repro/internal/shard"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counters is a snapshot of every cumulative counter a layer exposes;
// the per-layer metrics are differences of two snapshots.
type counters struct {
	qs    qserve.Snapshot
	pipe  map[string]pipeline.StageSnapshot
	io    relstore.IOStats
	coord shard.CoordSnapshot
	// shard execute-cache traffic summed over every replica
	cacheHits, cacheMisses int64
	seg                    segidx.Stats

	allocBytes, gcCPU, totalCPU float64

	lookups, lookupNanos, rtCalls, rtReused, rtBytes int64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func (r *runner) counters() (counters, error) {
	c := counters{qs: r.st.qs.Stats(), io: r.st.sys.Store.Stats.Snapshot(), pipe: make(map[string]pipeline.StageSnapshot)}
	for _, s := range r.st.sys.PipelineSnapshot().Stages {
		c.pipe[s.Stage] = s
	}
	if r.st.coord != nil {
		c.coord = r.st.coord.Stats()
		for _, base := range r.st.shardBases {
			var cs struct{ Hits, Misses int64 }
			if err := getJSON(base+"/debug/shardcache", &cs); err != nil {
				return c, err
			}
			c.cacheHits += cs.Hits
			c.cacheMisses += cs.Misses
		}
	}
	if r.st.store != nil {
		c.seg = r.st.store.Stats()
	}
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	c.allocBytes = float64(s[0].Value.Uint64())
	c.gcCPU, c.totalCPU = s[1].Value.Float64(), s[2].Value.Float64()
	if t := r.tr; t != nil {
		c.lookups, c.lookupNanos = t.lookups.Load(), t.lookupNanos.Load()
		c.rtCalls, c.rtReused, c.rtBytes = t.rtCalls.Load(), t.rtReused.Load(), t.rtBytes.Load()
	}
	return c, nil
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// stageDelta is one pipeline stage's counters between two snapshots.
func stageDelta(a, b counters, stage string) pipeline.StageSnapshot {
	x, y := a.pipe[stage], b.pipe[stage]
	return pipeline.StageSnapshot{
		Stage: stage, Runs: y.Runs - x.Runs, In: y.In - x.In, Out: y.Out - x.Out,
		CacheHits: y.CacheHits - x.CacheHits, CacheMisses: y.CacheMisses - x.CacheMisses,
		TotalNanos: y.TotalNanos - x.TotalNanos,
	}
}

// byReq groups spans by the request they belong to.
type reqSpans struct {
	client, edge, engine *span
	stages               []span
}

func groupSpans(spans []span) map[uint64]*reqSpans {
	g := make(map[uint64]*reqSpans)
	get := func(req uint64) *reqSpans {
		if g[req] == nil {
			g[req] = &reqSpans{}
		}
		return g[req]
	}
	for i := range spans {
		s := &spans[i]
		if s.Req == 0 {
			continue
		}
		switch {
		case s.Name == "client.request":
			get(s.Req).client = s
		case s.Name == "webdemo.request":
			get(s.Req).edge = s
		case s.Name == "engine":
			get(s.Req).engine = s
		case strings.HasPrefix(s.Name, "pipeline."):
			rs := get(s.Req)
			rs.stages = append(rs.stages, *s)
		}
	}
	return g
}

// p50 returns the median of xs (0 when empty).
func p50(xs []time.Duration) time.Duration {
	v, _ := quantile(sortedCopy(xs), 0.5)
	return v
}

// layerReport is the traced run's per-layer metrics and the outcome of
// its consistency checks.
type layerReport struct {
	m      map[string]metric
	checks []string // failed checks
	lines  []string // human-readable detail
}

func (lr *layerReport) set(name string, v float64, unit string) {
	lr.m[name] = metric{Value: v, Unit: unit}
}

func (lr *layerReport) fail(format string, args ...any) {
	lr.checks = append(lr.checks, fmt.Sprintf(format, args...))
}

func (lr *layerReport) line(format string, args ...any) {
	lr.lines = append(lr.lines, fmt.Sprintf(format, args...))
}

// Tolerances of the traced run's sum checks.
const (
	setupTolerance = 0.05 // load steps vs the whole set-up
	stageTolerance = 0.10 // stage spans vs the engine span, per query
	edgeTolerance  = 0.10 // median edge + median engine vs median latency
)

// setupMetrics reports the load steps and checks they account for the
// set-up time.
func (lr *layerReport) setupMetrics(steps map[string]time.Duration, setup time.Duration) {
	var sum time.Duration
	for _, name := range setupSteps {
		d := steps[name]
		sum += d
		lr.set("setup."+name+"_s", d.Seconds(), "s")
	}
	lr.line("setup: load steps sum to %.3fs of %.3fs set-up (%.1f%%; tolerance %.0f%%)", sum.Seconds(), setup.Seconds(),
		100*ratio(float64(sum), float64(setup)), 100*setupTolerance)
	if float64(sum) < (1-setupTolerance)*float64(setup) || sum > setup {
		lr.fail("set-up steps sum to %v of %v", sum, setup)
	}
}

// setupSteps are the public load steps of the traced set-up, in order.
var setupSteps = []string{"assign", "tss", "kwindex", "stats", "decomp", "materialize", "blobs", "split", "validate", "segidx"}

// requestMetrics reports the edge, engine and pipeline figures from the
// open loop's spans and checks that they add up.
func (lr *layerReport) requestMetrics(spans []span, single bool) (executed int) {
	g := groupSpans(spans)
	var lat, edge, eng, engAll []time.Duration
	var bytes, n int64
	stageSelf := make(map[string][]time.Duration)
	var fracs []float64
	nested, linked := 0, 0
	for _, rs := range g {
		if rs.client == nil {
			continue
		}
		l := rs.client.dur()
		var e time.Duration
		if rs.engine != nil {
			e = rs.engine.dur()
			eng = append(eng, e)
			linked++
			if rs.edge != nil && rs.engine.Start >= rs.edge.Start && rs.engine.End <= rs.edge.End && rs.edge.dur() <= l {
				nested++
			}
			if single {
				var sum time.Duration
				for _, s := range rs.stages {
					sum += s.dur()
					stageSelf[s.Name] = append(stageSelf[s.Name], s.self())
				}
				fracs = append(fracs, ratio(float64(sum), float64(e)))
			}
		}
		lat = append(lat, l)
		engAll = append(engAll, e)
		edge = append(edge, l-e)
		if rs.edge != nil {
			bytes += rs.edge.N
			n++
		}
	}
	executed = len(eng)
	lr.set("webdemo.self_us", us(p50(edge)), "us")
	lr.set("webdemo.resp_bytes", ratio(float64(bytes), float64(n)), "bytes")
	se := sortedCopy(eng)
	e50, _ := quantile(se, 0.5)
	e99, above := quantile(se, 0.99)
	lr.set("qserve.engine_p50_us", us(e50), "us")
	lr.set("qserve.engine_p99_us", us(e99), "us")
	lr.line("engine: %d executed of %d requests; p99 %.0fus with %d samples above", executed, len(lat), us(e99), above)
	if single {
		for _, st := range pipeline.StageNames {
			lr.set("pipeline."+st+"_us", us(p50(stageSelf["pipeline."+st])), "us")
		}
		sort.Float64s(fracs)
		if len(fracs) > 0 {
			med := fracs[len(fracs)/2]
			lr.line("stages: spans sum to %.1f%% of the engine span at the median query (tolerance %.0f%%)", 100*med, 100*stageTolerance)
			if med < 1-stageTolerance || med > 1 {
				lr.fail("stage spans sum to %.3f of the engine span at the median", med)
			}
		}
	}
	sumMed, latMed := p50(edge)+p50(engAll), p50(lat)
	lr.line("edge+engine: median edge %.0fus + median engine %.0fus vs median latency %.0fus (tolerance %.0f%%); %d of %d linked engine spans nest in their request",
		us(p50(edge)), us(p50(engAll)), us(latMed), 100*edgeTolerance, nested, linked)
	if d := float64(sumMed - latMed); d > edgeTolerance*float64(latMed) || -d > edgeTolerance*float64(latMed) {
		lr.fail("median edge + median engine = %v, median latency %v", sumMed, latMed)
	}
	if linked == 0 || nested < linked*99/100 {
		lr.fail("%d of %d engine spans nest in their request span", nested, linked)
	}
	return executed
}

// shardMetrics reports the coordinator→shard hop from its spans.
func (lr *layerReport) shardMetrics(spans []span, a, b counters, executed int) {
	calls := make(map[uint64]*span)
	var look, execd, wait []time.Duration
	var shipped, merged int64
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case "shard.call":
			calls[s.ID] = s
		case "engine":
			merged += s.N
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Name != "shard.lookup" && s.Name != "shard.execute" {
			continue
		}
		if s.Name == "shard.lookup" {
			look = append(look, s.dur())
		} else {
			execd = append(execd, s.dur())
			shipped += s.N
		}
		if c := calls[s.Parent]; c != nil {
			wait = append(wait, c.dur()-s.dur())
		}
	}
	q := float64(executed)
	lr.set("shard.lookup_us", us(p50(look)), "us")
	lr.set("shard.execute_us", us(p50(execd)), "us")
	lr.set("shard.wait_us", us(p50(wait)), "us")
	lr.set("shard.calls_per_query", ratio(float64(b.rtCalls-a.rtCalls), q), "count")
	lr.set("shard.wire_bytes_per_query", ratio(float64(b.rtBytes-a.rtBytes), q), "bytes")
	lr.set("shard.conn_reuse_ratio", ratio(float64(b.rtReused-a.rtReused), float64(b.rtCalls-a.rtCalls)), "ratio")
	hedges := b.coord.Hedges - a.coord.Hedges
	lr.set("shard.hedges", float64(hedges), "count")
	lr.set("shard.hedge_win_ratio", ratio(float64(b.coord.HedgeWins-a.coord.HedgeWins), float64(hedges)), "ratio")
	lr.set("shard.failovers", float64(b.coord.Failovers-a.coord.Failovers), "count")
	hits, misses := b.cacheHits-a.cacheHits, b.cacheMisses-a.cacheMisses
	lr.set("shard.exec_cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")
	lr.set("shard.merge_kept_ratio", ratio(float64(merged), float64(shipped)), "ratio")
	lr.set("exec.results_per_query", ratio(float64(shipped), q), "count")
	lr.line("shard: %d server spans matched to %d of their call spans", len(look)+len(execd), len(wait))
}

// counterMetrics reports what the layers' own counters moved over the
// traced open loop.
func (lr *layerReport) counterMetrics(a, b counters, executed, requests int, single bool) {
	q := float64(executed)
	hits, misses := b.qs.Hits-a.qs.Hits, b.qs.Misses-a.qs.Misses
	lr.set("qserve.hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")
	lr.set("qserve.collapses", float64(b.qs.Collapses-a.qs.Collapses), "count")
	lr.set("qserve.sheds", float64(b.qs.Sheds-a.qs.Sheds), "count")
	lr.set("qserve.invalidations", float64(b.qs.Invalidations-a.qs.Invalidations), "count")

	reduce, optimize := stageDelta(a, b, pipeline.StageReduce), stageDelta(a, b, pipeline.StageOptimize)
	gen, ex := stageDelta(a, b, pipeline.StageGenerate), stageDelta(a, b, pipeline.StageExecute)
	lr.set("pipeline.nets_per_query", ratio(float64(reduce.Out), float64(reduce.Runs)), "count")
	lr.set("pipeline.plans_per_query", ratio(float64(optimize.Out), float64(optimize.Runs)), "count")
	lr.set("pipeline.memo_hit_ratio", ratio(float64(gen.CacheHits), float64(gen.CacheHits+gen.CacheMisses)), "ratio")
	lr.set("exec.lookup_cache_hit_ratio", ratio(float64(ex.CacheHits), float64(ex.CacheHits+ex.CacheMisses)), "ratio")
	if single {
		lr.set("exec.results_per_query", ratio(float64(ex.Out), float64(ex.Runs)), "count")
	} else {
		// The coordinator and every shard run the stages up to optimize
		// inside their own handlers, where they cannot be wrapped from
		// outside; their time per query comes from the pipeline's own
		// counters, summed over the coordinator and the shards.
		for _, st := range pipeline.StageNames {
			lr.set("pipeline."+st+"_us", ratio(float64(stageDelta(a, b, st).TotalNanos)/1e3, q), "us")
		}
	}

	lr.set("index.lookups_per_query", ratio(float64(b.lookups-a.lookups), q), "count")
	lr.set("index.lookup_us", ratio(float64(b.lookupNanos-a.lookupNanos)/1e3, q), "us")

	lookups := b.io.Lookups - a.io.Lookups
	lr.set("relstore.lookups_per_query", ratio(float64(lookups), q), "count")
	lr.set("relstore.rows_per_query", ratio(float64(b.io.RowsRead-a.io.RowsRead), q), "count")
	ph, pr := b.io.PageHits-a.io.PageHits, b.io.PageReads-a.io.PageReads
	lr.set("relstore.page_hit_ratio", ratio(float64(ph), float64(ph+pr)), "ratio")

	lr.set("go.alloc_bytes_per_query", ratio(b.allocBytes-a.allocBytes, float64(requests)), "bytes")
	lr.set("go.gc_cpu_frac", ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU), "ratio")
}
