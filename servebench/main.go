// Command servebench is the served-system benchmark. It builds XKeyword
// from the generated §7 DBLP dataset, serves it through the stack
// xkserve assembles — webdemo over qserve over core, with a live segidx
// store or a shard coordinator where the workload asks for one — on
// loopback TCP with xkserve's flag defaults, drives it from this
// process, checks the answers, and prints one JSON result line.
//
// Usage, from the repository root:
//
//	bash servebench/run.sh --workload pairs --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
// variant and reports the per-layer metrics. WORKLOADS.md describes the
// workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// endToEnd are the metrics of an untraced run, in report order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"warmup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_qps", "1/s"},
	{"heap_mb", "MiB"},
}

// perLayer are the metrics of a traced run. A metric a workload does not
// exercise (the shard hop on a single node, say) reads 0.
var perLayer = []struct{ name, unit string }{
	{"setup.assign_s", "s"}, {"setup.tss_s", "s"}, {"setup.kwindex_s", "s"}, {"setup.stats_s", "s"},
	{"setup.decomp_s", "s"}, {"setup.materialize_s", "s"}, {"setup.blobs_s", "s"},
	{"setup.split_s", "s"}, {"setup.validate_s", "s"},
	{"webdemo.self_us", "us"}, {"webdemo.resp_bytes", "bytes"},
	{"qserve.hit_ratio", "ratio"}, {"qserve.collapses", "count"}, {"qserve.sheds", "count"},
	{"qserve.invalidations", "count"}, {"qserve.engine_p50_us", "us"}, {"qserve.engine_p99_us", "us"},
	{"pipeline.discover_us", "us"}, {"pipeline.generate_us", "us"}, {"pipeline.reduce_us", "us"},
	{"pipeline.optimize_us", "us"}, {"pipeline.execute_us", "us"}, {"pipeline.rank_us", "us"},
	{"pipeline.nets_per_query", "count"}, {"pipeline.plans_per_query", "count"}, {"pipeline.memo_hit_ratio", "ratio"},
	{"cn.generate_cold_ms", "ms"},
	{"index.lookups_per_query", "count"}, {"index.lookup_us", "us"},
	{"exec.lookup_cache_hit_ratio", "ratio"}, {"exec.results_per_query", "count"},
	{"relstore.lookups_per_query", "count"}, {"relstore.rows_per_query", "count"}, {"relstore.page_hit_ratio", "ratio"},
	{"shard.lookup_us", "us"}, {"shard.execute_us", "us"}, {"shard.wait_us", "us"},
	{"shard.calls_per_query", "count"}, {"shard.wire_bytes_per_query", "bytes"}, {"shard.conn_reuse_ratio", "ratio"},
	{"shard.hedges", "count"}, {"shard.hedge_win_ratio", "ratio"}, {"shard.failovers", "count"},
	{"shard.exec_cache_hit_ratio", "ratio"}, {"shard.merge_kept_ratio", "ratio"},
	{"go.alloc_bytes_per_query", "bytes"}, {"go.gc_cpu_frac", "ratio"},
	{"loadgen.late_p99_ms", "ms"}, {"trace.overhead_pct", "%"},
}

// ingestPerLayer are the per-layer metrics only zipf-ingest has (its
// writer and live store); that workload reports them beside perLayer,
// and ingest_p50_ms and ingest_p99_ms beside endToEnd.
var ingestPerLayer = []struct{ name, unit string }{
	{"setup.segidx_s", "s"}, {"segidx.flushes", "count"}, {"segidx.compactions", "count"},
	{"segidx.segments_max", "count"}, {"segidx.wal_bytes_per_doc", "bytes"},
	{"ingest_p50_ms", "ms"}, {"ingest_p99_ms", "ms"},
}

func main() {
	var (
		wlName  = flag.String("workload", "", "workload: pairs, zipf-ingest or coord-pairs")
		seed    = flag.Int64("seed", 1, "workload seed: drives queries, writes and arrival times")
		seconds = flag.Float64("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	)
	flag.Parse()
	res, err := run(*wlName, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// scratch holds a run's files (segments, shard splits, spans), relative
// to the repository root the benchmark runs from.
const scratch = ".bench_build"

func run(wlName string, seed int64, seconds time.Duration, traced bool) (*result, error) {
	wl, err := findWorkload(wlName)
	if err != nil {
		return nil, err
	}
	if seconds < time.Second {
		return nil, errors.New("--seconds must be at least 1")
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &runner{wl: wl, seed: seed, seconds: seconds}
	if err := r.prepare(); err != nil {
		return nil, err
	}
	fmt.Printf("workload %s, seed %d, %v measured, GOMAXPROCS %d, %s\n", wl.name, seed, seconds, runtime.GOMAXPROCS(0), runtime.Version())
	var res *result
	if traced {
		r.tr = newTracer()
		res, err = r.traced(dir)
		if err == nil {
			path := filepath.Join(scratch, fmt.Sprintf("trace-%s-seed%d.jsonl", wl.name, seed))
			if err = r.tr.write(path); err == nil {
				fmt.Printf("spans written to %s\n", path)
			}
		}
	} else {
		res, err = r.untraced(dir)
	}
	if r.st != nil {
		r.st.close()
	}
	if err != nil {
		return nil, err
	}
	for _, n := range r.notes {
		fmt.Println("failure:", n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-30s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return res, nil
}

// latencyMetrics reports p50 and p99 of an open loop's samples, which
// are in schedule order. p99 needs minAbove samples above it. With at
// least three parts of 1,000 samples, p99 is the median of the parts'
// p99s, so a burst of noise on the host inside one part moves one part.
func latencyMetrics(m map[string]metric, prefix string, lat []time.Duration, limit time.Duration) error {
	s := sortedCopy(lat)
	v50, _ := quantile(s, 0.50)
	v99, above := quantile(s, 0.99)
	if above < minAbove {
		return fmt.Errorf("%s_p99_ms: %d samples leave %d above p99, need %d", prefix, len(s), above, minAbove)
	}
	parts := len(lat) / 1000
	if parts%2 == 0 {
		parts-- // an odd count has a middle part
	}
	if parts >= 3 {
		size := len(lat) / parts
		p99s := make([]time.Duration, parts)
		for i := range p99s {
			p99s[i], above = quantile(sortedCopy(lat[i*size:(i+1)*size]), 0.99)
		}
		v99 = p50(p99s)
		fmt.Printf("%s p99 per part of %d samples (%d above each): %v\n", prefix, size, above, p99s)
	}
	over := 0
	for _, l := range s {
		if limit > 0 && l > limit {
			over++
		}
	}
	if v50 == failedLatency || v99 == failedLatency {
		return fmt.Errorf("%s: failures reach the reported percentiles", prefix)
	}
	m[prefix+"_p50_ms"] = metric{ms(v50), "ms"}
	m[prefix+"_p99_ms"] = metric{ms(v99), "ms"}
	fmt.Printf("%s latency: n=%d, %d over the %v limit (failures included)\n", prefix, len(s), over, limit)
	return nil
}

// untraced is the measured run: set-up, warm-up, open loop, closed loop,
// answer checks and heap.
func (r *runner) untraced(dir string) (*result, error) {
	setup, probeBody, err := r.setup(dir, nil)
	if err != nil {
		return nil, err
	}
	correct := r.checkProbe(probeBody)
	m := map[string]metric{"setup_s": {setup.Seconds(), "s"}}
	warm, err := r.warmup()
	if err != nil {
		return nil, err
	}

	stopWriter := r.startWriter()
	r.preroll()
	open := r.openPhase(r.openSeconds(), r.seed)
	qps, _ := r.closedPhase(r.seconds-r.openSeconds(), len(open.lat))
	stopWriter()
	more, err := r.warmupFresh(warmupPasses / 2)
	if err != nil {
		return nil, err
	}
	warm = sortedCopy(append(warm, more...))
	// The passes cluster around two speeds of the host, and the share in
	// each varies from run to run, so a median jumps between the two; a
	// mean of the middle 80% moves with the share.
	trim := len(warm) / 10
	mid := warm[trim : len(warm)-trim]
	var sum time.Duration
	for _, d := range mid {
		sum += d
	}
	fmt.Printf("warm-up: %d passes, median %v, range %v to %v\n", len(warm), p50(warm), warm[0], warm[len(warm)-1])
	m["warmup_s"] = metric{(sum / time.Duration(len(mid))).Seconds(), "s"}

	if err := latencyMetrics(m, "query", open.lat, r.wl.limit); err != nil {
		return nil, err
	}
	// query_p99_ms is printed but not reported: from run to run it
	// spread past any bound BENCHMARK.json may set (WORKLOADS.md).
	fmt.Printf("query_p99_ms %.4f ms (printed, not a reported metric)\n", m["query_p99_ms"].Value)
	delete(m, "query_p99_ms")
	m["query_qps"] = metric{qps, "1/s"}
	if r.wl.ingest {
		if err := latencyMetrics(m, "ingest", r.ingestLat, 0); err != nil {
			return nil, err
		}
		checked, stale := r.checkFresh()
		fmt.Printf("freshness: %d of %d served answers differ from the live store after the writer stopped\n", stale, checked)
		correct = correct && stale == 0
	} else {
		wrong := r.checkSaved()
		fmt.Printf("answers: %d of %d sampled answers differ from the engine's\n", wrong, r.savedCount())
		r.failed.Add(int64(wrong))
		correct = correct && wrong == 0
	}
	m["heap_mb"] = metric{heapMB(), "MiB"}
	return &result{Correct: correct && r.failed.Load() == 0, Attempted: r.attempted.Load(), Failed: r.failed.Load(), Metrics: m}, nil
}

func (r *runner) savedCount() int {
	n := 0
	r.saved.Range(func(any, any) bool { n++; return true })
	return n
}

// traced is the traced run: the set-up step by step, then a warm-up and
// an open loop with every layer wrapped, then a closed loop with tracing
// off and on to price the tracing itself.
func (r *runner) traced(dir string) (*result, error) {
	lr := &layerReport{m: make(map[string]metric)}
	for _, pm := range perLayer {
		lr.set(pm.name, 0, pm.unit)
	}
	if r.wl.ingest {
		for _, pm := range ingestPerLayer {
			lr.set(pm.name, 0, pm.unit)
		}
	}
	steps := &stepTimer{d: make(map[string]time.Duration)}
	setup, probeBody, err := r.setup(dir, steps)
	if err != nil {
		return nil, err
	}
	lr.setupMetrics(steps.d, setup)
	if !r.wl.ingest {
		delete(lr.m, "setup.segidx_s")
	}
	correct := r.checkProbe(probeBody)
	single := r.st.coord == nil

	// Warm-up: the cold CN generation per shape.
	r.tr.on.Store(true)
	w0 := r.tr.mark()
	c0, err := r.counters()
	if err != nil {
		return nil, err
	}
	r.warmupPass(r.st.front)
	c1, err := r.counters()
	if err != nil {
		return nil, err
	}
	if single {
		var cold []time.Duration
		for _, s := range r.tr.since(w0) {
			if s.Name == "pipeline.generate" && s.Misses > 0 {
				cold = append(cold, s.dur())
			}
		}
		lr.set("cn.generate_cold_ms", ms(p50(cold)), "ms")
	} else {
		g := stageDelta(c0, c1, "generate")
		lr.set("cn.generate_cold_ms", ratio(float64(g.TotalNanos)/1e6, float64(g.CacheMisses)), "ms")
	}

	stopWriter := r.startWriter()
	stopSampler := r.sampleStore(lr)
	r.preroll()
	m1 := r.tr.mark()
	a, err := r.counters()
	if err != nil {
		return nil, err
	}
	open := r.openPhase(r.openSeconds(), r.seed)
	b, err := r.counters()
	if err != nil {
		return nil, err
	}
	spans := r.tr.since(m1)
	executed := lr.requestMetrics(spans, single)
	if !single {
		lr.shardMetrics(spans, a, b, executed)
	}
	lr.counterMetrics(a, b, executed, len(open.lat), single)
	late := sortedCopy(open.late)
	l99, above := quantile(late, 0.99)
	lr.set("loadgen.late_p99_ms", ms(l99), "ms")
	lr.line("loadgen: %d of %d sends waited for their due time; late p99 has %d samples above it", len(late), len(open.lat), above)

	// Tracing overhead: the same closed loop untraced and traced.
	// Slices alternate between the two, so drift on the host touches both.
	const slices = 6
	slice := (r.seconds - r.openSeconds()) / slices
	base := len(open.lat)
	var qOff, qOn float64
	for i := 0; i < slices; i++ {
		r.tr.on.Store(i%2 == 1)
		q, n := r.closedPhase(slice, base)
		base += int(n)
		if i%2 == 1 {
			qOn += q / (slices / 2)
		} else {
			qOff += q / (slices / 2)
		}
	}
	r.tr.on.Store(false)
	lr.set("trace.overhead_pct", 100*(ratio(qOff, qOn)-1), "%")
	lr.line("tracing overhead: %.0f qps untraced, %.0f qps traced", qOff, qOn)
	stopSampler()
	stopWriter()
	if r.wl.ingest {
		d0, d1 := a.seg, b.seg
		lr.set("segidx.flushes", float64(d1.Flushes-d0.Flushes), "count")
		lr.set("segidx.compactions", float64(d1.Compacts-d0.Compacts), "count")
		if len(r.ingestLat) > 0 {
			lat := sortedCopy(r.ingestLat)
			v50, _ := quantile(lat, 0.5)
			v99, _ := quantile(lat, 0.99)
			lr.set("ingest_p50_ms", ms(v50), "ms")
			lr.set("ingest_p99_ms", ms(v99), "ms")
		}
	}

	// The traced engine path must answer exactly as core's own path.
	if single {
		same, total := r.checkTracedIdentity(50)
		lr.line("traced engine: %d of %d answers identical to core's untraced path", same, total)
		if same != total {
			lr.fail("traced engine differs from core on %d of %d queries", total-same, total)
		}
	}
	if r.wl.ingest {
		checked, stale := r.checkFresh()
		lr.line("freshness: %d of %d served answers differ from the live store after the writer stopped", stale, checked)
		correct = correct && stale == 0
	} else {
		wrong := r.checkSaved()
		lr.line("answers: %d of %d sampled answers differ from the engine's", wrong, r.savedCount())
		r.failed.Add(int64(wrong))
		correct = correct && wrong == 0
	}
	for _, l := range lr.lines {
		fmt.Println(l)
	}
	for _, c := range lr.checks {
		fmt.Println("check failed:", c)
	}
	correct = correct && len(lr.checks) == 0 && r.failed.Load() == 0
	return &result{Correct: correct, Attempted: r.attempted.Load(), Failed: r.failed.Load(), Metrics: lr.m}, nil
}
