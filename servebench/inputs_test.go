package main

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/pipeline"
)

var (
	smallOnce sync.Once
	small     *corpus
	smallErr  error
)

// smallCorpus is the unit-test DBLP dataset: the same generator and
// schema as the benchmark's, small enough to load in a test.
func smallCorpus(t *testing.T) *corpus {
	t.Helper()
	smallOnce.Do(func() { small, smallErr = newCorpus(datagen.DefaultDBLPParams()) })
	if smallErr != nil {
		t.Fatal(smallErr)
	}
	return small
}

func TestPairQueriesAreDistinctAndDeterministic(t *testing.T) {
	c := smallCorpus(t)
	a, b := pairQueries(c, 3, 500), pairQueries(c, 3, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two query streams")
	}
	if reflect.DeepEqual(a, pairQueries(c, 4, 500)) {
		t.Fatal("two seeds drew the same query stream")
	}
	co := make(map[[2]string]bool)
	for _, p := range c.coPairs {
		co[p] = true
	}
	seen := make(map[[2]string]bool)
	coauthors := 0
	for _, q := range a {
		if len(q.keywords) != 2 {
			t.Fatalf("query %q is not a pair", q.keywords)
		}
		p := sortedPair(strings.ReplaceAll(q.keywords[0], ",", " "), strings.ReplaceAll(q.keywords[1], ",", " "))
		if seen[p] {
			t.Fatalf("pair %v repeats", p)
		}
		seen[p] = true
		if co[p] {
			coauthors++
		}
	}
	if coauthors < len(a)/2 {
		t.Fatalf("%d of %d pairs are co-authors, want at least half", coauthors, len(a))
	}
}

func TestZipfPoolHasBoundedShapes(t *testing.T) {
	c := smallCorpus(t)
	classes, err := zipfClasses(c)
	if err != nil {
		t.Fatal(err)
	}
	pool, combos := zipfPool(classes, 5, 2000)
	sys := loadSmall(t, c)
	shapes := make(map[string]bool)
	sizes := make(map[int]int)
	for i, q := range pool {
		lists := make([][]string, len(q.keywords))
		for j, k := range q.keywords {
			lists[j] = sys.Index.SchemaNodes(k)
			if len(lists[j]) == 0 {
				t.Fatalf("keyword %q of bag %d matches nothing", k, i)
			}
		}
		shapes[pipeline.ShapeSignature(serveZ, lists)] = true
		sizes[len(q.keywords)]++
		if len(zipfCombos[combos[i]]) != len(q.keywords) {
			t.Fatalf("bag %q recorded as combination %v", q.keywords, zipfCombos[combos[i]])
		}
	}
	if len(shapes) > len(zipfCombos) {
		t.Fatalf("%d keyword shapes from %d class combinations", len(shapes), len(zipfCombos))
	}
	if sizes[2] < len(pool)/2 {
		t.Fatalf("bag sizes %v: want mostly two keywords", sizes)
	}
	p1, _ := zipfPool(classes, 5, 2000)
	if !reflect.DeepEqual(pool, p1) {
		t.Fatal("the same seed drew two pools")
	}
}

func TestZipfPicksFavourThePoolHead(t *testing.T) {
	picks := zipfPicks(1, 1000, 5000)
	head := 0
	for _, p := range picks {
		if p < 0 || p >= 1000 {
			t.Fatalf("pick %d outside the pool", p)
		}
		if p < 10 {
			head++
		}
	}
	if head < len(picks)/2 {
		t.Fatalf("%d of %d picks in the 10 most popular bags", head, len(picks))
	}
}

func TestRetitlerKeepsPaperFields(t *testing.T) {
	c := smallCorpus(t)
	classes, err := zipfClasses(c)
	if err != nil {
		t.Fatal(err)
	}
	r := newRetitler(c, classes[1].tokens, 9)
	for i := 0; i < 20; i++ {
		d := r.next()
		var title string
		for _, f := range d.Fields {
			if f.SchemaNode == "title" {
				title = f.Value
			}
		}
		if n := len(strings.Fields(title)); n < 3 || n > 6 {
			t.Fatalf("new title %q", title)
		}
		if c.ds.Obj.TO(d.TO).Segment != "paper" {
			t.Fatalf("document %d is not a paper", d.TO)
		}
	}
}

var (
	sysOnce sync.Once
	sysVal  *core.System
	sysErr  error
)

func loadSmall(t *testing.T, c *corpus) *core.System {
	t.Helper()
	sysOnce.Do(func() {
		sysVal, sysErr = core.Load(datagen.DBLPSchema(), datagen.DBLPSpec(), c.ds.Data, core.Options{Z: 6})
	})
	if sysErr != nil {
		t.Fatal(sysErr)
	}
	return sysVal
}

func TestTracedEngineAnswersAsCore(t *testing.T) {
	c := smallCorpus(t)
	sys := loadSmall(t, c)
	tr := newTracer()
	tr.on.Store(true)
	eng := &tracedSystem{System: sys, t: tr}
	ctx := context.Background()
	for _, q := range pairQueries(c, 1, 40) {
		got, _, err := eng.QueryScoredContext(ctx, q.keywords, topK, "")
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := sys.QueryScoredContext(ctx, q.keywords, topK, "")
		if err != nil {
			t.Fatal(err)
		}
		if !sameResults(got, want) || string(renderBody(sys, got)) != string(renderBody(sys, want)) {
			t.Fatalf("%q: traced path answered differently", q.keywords)
		}
	}
	stages := make(map[string]int)
	for _, s := range tr.spans {
		stages[s.Name]++
		if s.Name != "engine" && s.Parent == 0 {
			t.Fatalf("span %s has no parent", s.Name)
		}
		if s.self() < 0 {
			t.Fatalf("span %s self time %v", s.Name, s.self())
		}
	}
	for _, st := range pipeline.StageNames {
		if stages["pipeline."+st] != 40 {
			t.Fatalf("stage %s: %d spans for 40 queries", st, stages["pipeline."+st])
		}
	}
	if tr.lookups.Load() == 0 {
		t.Fatal("no index lookups recorded")
	}
}

func TestCoverCountsOverlappingLookupsOnce(t *testing.T) {
	s := &tracedSource{t: newTracer(), record: true}
	s.iv = [][2]int64{{10, 20}, {15, 30}, {40, 50}, {45, 48}, {90, 120}}
	if got := s.cover(0, 100); got != 20+10+10 {
		t.Fatalf("cover = %d, want 40", got)
	}
	if got := s.cover(25, 45); got != 5+5 {
		t.Fatalf("clipped cover = %d, want 10", got)
	}
}
