package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/decomp"
	"repro/internal/diskindex"
	"repro/internal/kwindex"
	"repro/internal/qserve"
	"repro/internal/relstore"
	"repro/internal/segidx"
	"repro/internal/shard"
	"repro/internal/tss"
	"repro/internal/webdemo"
	"repro/internal/xmlgraph"
)

// The serving configuration is xkserve's flag defaults.
const (
	serveZ            = 8 // -z
	shardCacheEntries = 1024
	shards, replicas  = 2, 2
)

func serveOptions() qserve.Options {
	return qserve.Options{
		MaxEntries:    4096,
		MaxBytes:      64 << 20,
		TTL:           5 * time.Minute,
		MaxConcurrent: 0,
		QueueWait:     100 * time.Millisecond,
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "servebench: "+format+"\n", args...)
}

// stack is the served system: the loaded engine, the live store or the
// shard split some workloads add, and the serving front of the timed
// phases.
type stack struct {
	sys      *core.System
	store    *segidx.Store
	man      *shard.Manifest // the shard split (coord-pairs)
	splitDir string
	*front
	fronts []*front // every front started, to stop at close

	wg sync.WaitGroup
}

// front is one serving stack over a loaded system: the shard replicas and
// coordinator where the workload has them, qserve, and the webdemo
// handler on loopback TCP.
type front struct {
	base       string // the webdemo server's URL
	qs         *qserve.Server
	coord      *shard.Coordinator
	shardBases []string
	servers    []*http.Server
	readers    []*diskindex.Reader // the shard replicas' partitions
}

// serve starts an HTTP server for h on a loopback port with xkserve's
// timeouts and returns its base URL.
func (s *stack) serve(f *front, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listening on loopback: %w", err)
	}
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	f.servers = append(f.servers, hs)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logf("server on %s: %v", ln.Addr(), err)
		}
	}()
	return "http://" + ln.Addr().String(), nil
}

// closeFront stops a front's servers and forgets the front, so the
// engine, caches and coordinator of a closed warm-up front do not count
// toward heap_mb; close waits for the servers.
func (s *stack) closeFront(f *front) {
	for _, hs := range f.servers {
		_ = hs.Close() // the front is done; open connections are dropped
	}
	for _, rd := range f.readers {
		_ = rd.Close() // read-only partition files
	}
	s.fronts = slices.DeleteFunc(s.fronts, func(g *front) bool { return g == f })
}

// close stops every server, waits for them, and releases the stores.
func (s *stack) close() {
	for len(s.fronts) > 0 {
		s.closeFront(s.fronts[0])
	}
	s.wg.Wait()
	if s.store != nil {
		if err := s.store.Close(); err != nil {
			logf("closing the segmented index: %v", err)
		}
	}
}

// stepTimer times the public load steps of a traced set-up. A nil timer
// runs the steps untimed.
type stepTimer struct {
	d map[string]time.Duration
}

func (st *stepTimer) do(name string, f func() error) error {
	if st == nil {
		return f()
	}
	t := time.Now()
	err := f()
	st.d[name] += time.Since(t)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// load builds the system from the generated data graph: through
// core.Load untraced, or step by step when traced.
func load(data *xmlgraph.Graph, st *stepTimer) (*core.System, error) {
	if st == nil {
		return core.Load(datagen.DBLPSchema(), datagen.DBLPSpec(), data, core.Options{Z: serveZ})
	}
	// The options core.Load resolves for {Z: 8}.
	opts := core.Options{
		Z: serveZ, B: 2, MaxKeywords: 2, Decomposition: core.PresetXKeyword,
		PoolPages: relstore.DefaultPoolPages, Workers: 4,
	}
	sg := datagen.DBLPSchema()
	var tg *tss.Graph
	var og *tss.ObjectGraph
	if err := st.do("assign", func() error { return sg.Assign(data) }); err != nil {
		return nil, err
	}
	if err := st.do("tss", func() error {
		var err error
		if tg, err = tss.Derive(sg, datagen.DBLPSpec()); err != nil {
			return err
		}
		og, err = tg.Decompose(data)
		return err
	}); err != nil {
		return nil, err
	}
	sys := &core.System{Schema: sg, TSS: tg, Data: data, Obj: og, Store: relstore.NewStore(opts.PoolPages), Opts: opts}
	_ = st.do("kwindex", func() error { sys.Index = kwindex.Build(og); return nil })
	_ = st.do("stats", func() error { sys.Stats = og.CollectStats(); return nil })
	if err := st.do("decomp", func() error {
		sys.M = core.SizeBound(tg, data, opts.Z, opts.MaxKeywords)
		var err error
		sys.Decomp, err = decomp.XKeyword(tg, sys.M, opts.B)
		return err
	}); err != nil {
		return nil, err
	}
	if err := st.do("materialize", func() error { return decomp.Materialize(sys.Store, og, sys.Decomp) }); err != nil {
		return nil, err
	}
	if err := st.do("blobs", func() error {
		for _, id := range og.Objects() {
			blob, err := og.BlobXML(id)
			if err != nil {
				return err
			}
			sys.Store.PutBlob(id, blob)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return sys, nil
}

// buildStack performs the workload's set-up: the load, the live store or
// the shard split, and the serving front. With a tracer, every layer's
// entry point is wrapped.
func buildStack(wl *workload, data *xmlgraph.Graph, dir string, tr *tracer, st *stepTimer) (*stack, error) {
	sys, err := load(data, st)
	if err != nil {
		return nil, err
	}
	s := &stack{sys: sys}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	switch {
	case wl.ingest:
		if err := st.do("segidx", func() error {
			var err error
			s.store, err = segidx.Open(filepath.Join(dir, "segidx"), segidx.Options{
				Base:            sys.Index,
				IndexCacheBytes: diskindex.DefaultCacheBytes,
				AutoCompact:     true,
				Logf:            logf,
			})
			return err
		}); err != nil {
			return nil, err
		}
		sys.Index = s.store
	case wl.coord:
		ix, isMem := sys.Index.(*kwindex.Index)
		if !isMem {
			return nil, fmt.Errorf("shard split needs the in-memory master index, have %T", sys.Index)
		}
		s.splitDir = filepath.Join(dir, "shards")
		if err := st.do("split", func() error {
			var err error
			s.man, err = shard.Split(ix, s.splitDir, shards, shard.SplitOptions{})
			return err
		}); err != nil {
			return nil, err
		}
	}
	if s.front, err = s.newFront(sys, tr, st); err != nil {
		return nil, err
	}
	ok = true
	return s, nil
}

// cloneSystem returns a system over the same loaded data whose CN memo
// and pipeline counters start empty: the state a restarted server meets
// its first queries with.
func cloneSystem(sys *core.System) *core.System {
	return &core.System{
		Schema: sys.Schema, TSS: sys.TSS, Data: sys.Data, Obj: sys.Obj, Store: sys.Store,
		Index: sys.Index, Stats: sys.Stats, Decomp: sys.Decomp, M: sys.M, Opts: sys.Opts,
	}
}

// newFront starts a serving front over sys: on coord-pairs the shard
// replicas and a validated coordinator over the split, then qserve and
// the webdemo server.
func (s *stack) newFront(sys *core.System, tr *tracer, st *stepTimer) (*front, error) {
	f := &front{}
	s.fronts = append(s.fronts, f)
	var eng qserve.Engine = sys
	if tr != nil {
		eng = &tracedSystem{System: sys, t: tr}
	}
	if s.man != nil {
		coord, err := s.startShards(f, sys, tr, st)
		if err != nil {
			return f, err
		}
		f.coord = coord
		eng = coord
		if tr != nil {
			eng = &tracedCoord{Coordinator: coord, t: tr}
		}
	}
	f.qs = qserve.New(eng, serveOptions())
	wd := webdemo.NewServerWith(sys, f.qs)
	if s.store != nil {
		wd.EnableIngest(s.store)
	}
	h := wd.Handler()
	if tr != nil {
		h = tr.edge(h)
	}
	var err error
	f.base, err = s.serve(f, h)
	return f, err
}

// startShards serves each partition of the split from replicas that read
// it through diskindex as `xkserve -shard-of` does, and validates a
// coordinator over them. The replicas share this process and the loaded
// system's structural data.
func (s *stack) startShards(f *front, sys *core.System, tr *tracer, st *stepTimer) (*shard.Coordinator, error) {
	man := s.man
	groups := make([][]string, man.N)
	for i, si := range man.Shards {
		for r := 0; r < replicas; r++ {
			rd, err := diskindex.Open(filepath.Join(s.splitDir, si.Dir, si.Index), diskindex.Options{CacheBytes: diskindex.DefaultCacheBytes})
			if err != nil {
				return nil, fmt.Errorf("opening shard %d: %w", i, err)
			}
			f.readers = append(f.readers, rd)
			srv := &shard.Server{Sys: sys, ID: i, N: man.N, CRC: si.CRC,
				Cache: qserve.NewResultCache(0, shardCacheEntries, 32<<20, 5*time.Minute)}
			id := i
			rebuild := func() (kwindex.Source, error) {
				return shard.PartitionIndex(kwindex.Build(sys.Obj), id, man.N), nil
			}
			local := kwindex.NewFailover(rd, rebuild, func(cause error) {
				logf("shard %d DEGRADED: %v", id, cause)
				srv.InvalidateCache()
			})
			srv.Local = local
			h := srv.Handler()
			if tr != nil {
				srv.Local = &tracedSource{Source: local, t: tr}
				h = tr.shardHandler(h)
			}
			base, err := s.serve(f, h)
			if err != nil {
				return nil, err
			}
			groups[i] = append(groups[i], base)
			f.shardBases = append(f.shardBases, base)
		}
	}
	opts := shard.CoordinatorOptions{
		HedgeMaxDelay:  100 * time.Millisecond,
		HedgeBudgetPct: 10,
		Manifest:       man,
		Logf:           logf,
	}
	if tr != nil {
		opts.HTTPClient = &http.Client{Transport: &transport{inner: http.DefaultTransport, t: tr}}
	}
	coord := shard.NewCoordinatorGroups(sys, groups, opts)
	if err := st.do("validate", func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return coord.Validate(ctx)
	}); err != nil {
		return nil, err
	}
	return coord, nil
}
