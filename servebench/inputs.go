package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strings"

	"repro/internal/datagen"
	"repro/internal/kwindex"
	"repro/internal/pipeline"
	"repro/internal/segidx"
	"repro/internal/tss"
)

// corpus is the fixed dataset of the paper's §7 (synthetic DBLP, 2,000
// papers, 600 authors, 20 citations per paper on average) and what the
// query and write generators draw from. The dataset never depends on
// the workload seed; the seed only drives queries, writes and arrivals.
type corpus struct {
	ds      *datagen.Dataset
	authors []string    // author names, in target-object order
	coPairs [][2]string // distinct co-author pairs, each sorted
}

func newCorpus(p datagen.DBLPParams) (*corpus, error) {
	ds, err := datagen.DBLP(p)
	if err != nil {
		return nil, fmt.Errorf("generating the dataset: %w", err)
	}
	c := &corpus{ds: ds}
	name := make(map[int64]string)
	for _, to := range ds.Obj.BySegment("author") {
		n := authorName(ds.Obj, to)
		name[to] = n
		c.authors = append(c.authors, n)
	}
	seen := make(map[[2]string]bool)
	for _, pa := range ds.Obj.BySegment("paper") {
		var names []string
		for _, e := range ds.Obj.Out(pa) {
			if n, ok := name[e.To]; ok {
				names = append(names, n)
			}
		}
		for i := range names {
			for j := i + 1; j < len(names); j++ {
				p := sortedPair(names[i], names[j])
				if !seen[p] {
					seen[p] = true
					c.coPairs = append(c.coPairs, p)
				}
			}
		}
	}
	if len(c.authors) < 2 || len(c.coPairs) == 0 {
		return nil, fmt.Errorf("dataset has %d authors and %d co-author pairs", len(c.authors), len(c.coPairs))
	}
	return c, nil
}

// authorName reads an author target object's name from its summary,
// "author[name=Alice Smith0]".
func authorName(og *tss.ObjectGraph, to int64) string {
	s := og.Summary(to)
	if i := strings.Index(s, "name="); i >= 0 {
		s = s[i+len("name="):]
	}
	return strings.TrimSuffix(s, "]")
}

func sortedPair(a, b string) [2]string {
	if b < a {
		a, b = b, a
	}
	return [2]string{a, b}
}

// query is one keyword query: its keywords exactly as the engine
// receives them, and the /api/query path that sends them.
type query struct {
	keywords []string
	path     string
}

// topK is the result bound of every benchmark query (§7's top-10).
const topK = 10

func newQuery(keywords []string) query {
	v := url.Values{"q": {strings.Join(keywords, " ")}, "k": {fmt.Sprint(topK)}}
	return query{keywords: keywords, path: "/api/query?" + v.Encode()}
}

// phrase turns a multi-word name into one keyword: the HTTP API splits q
// on spaces, and a comma keeps the words one phrase keyword.
func phrase(name string) string { return strings.ReplaceAll(name, " ", ",") }

// pairQueries draws n distinct author-pair queries the way §7 does:
// alternately a co-author pair and a random pair, until the co-author
// pairs run out. Every query has the same keyword shape (two author
// names), and no pair repeats, so the result cache never answers one.
func pairQueries(c *corpus, seed int64, n int) []query {
	rng := rand.New(rand.NewSource(seed))
	co := append([][2]string(nil), c.coPairs...)
	rng.Shuffle(len(co), func(i, j int) { co[i], co[j] = co[j], co[i] })
	used := make(map[[2]string]bool, n)
	out := make([]query, 0, n)
	for len(out) < n && len(used) < len(c.authors)*(len(c.authors)-1)/2 {
		var p [2]string
		if len(out)%2 == 0 && len(co) > 0 {
			p, co = co[0], co[1:]
		} else {
			i, j := rng.Intn(len(c.authors)), rng.Intn(len(c.authors))
			if i == j {
				continue
			}
			p = sortedPair(c.authors[i], c.authors[j])
		}
		if used[p] {
			continue
		}
		used[p] = true
		if rng.Intn(2) == 0 {
			p[0], p[1] = p[1], p[0]
		}
		out = append(out, newQuery([]string{phrase(p[0]), phrase(p[1])}))
	}
	return out
}

// keywordClass is one of the four DBLP keyword classes zipf-ingest draws
// from. Only tokens with the class's most common one-keyword shape (the
// schema nodes holding the token) are kept, so every class contributes
// one keyword shape.
type keywordClass struct {
	name   string
	schema string // the schema node whose values supply the tokens
	tokens []string
}

// zipfClasses are the keyword classes, in the order keywords appear in
// a query (a fixed order keeps the shape set bounded).
func zipfClasses(c *corpus) ([]keywordClass, error) {
	classes := []keywordClass{
		{name: "author", schema: "aname"},
		{name: "title", schema: "title"},
		{name: "conf", schema: "cname"},
		{name: "year", schema: "year"},
	}
	ix := kwindex.Build(c.ds.Obj)
	for ci := range classes {
		cl := &classes[ci]
		seen := make(map[string]bool)
		var toks []string
		for _, id := range c.ds.Data.Nodes() {
			n := c.ds.Data.Node(id)
			if n.Type != cl.schema {
				continue
			}
			for _, t := range kwindex.Tokenize(n.Value) {
				if !seen[t] {
					seen[t] = true
					toks = append(toks, t)
				}
			}
		}
		sort.Strings(toks)
		shape := func(tok string) string { return pipeline.ShapeSignature(serveZ, [][]string{ix.SchemaNodes(tok)}) }
		shapes := make(map[string]int)
		for _, t := range toks {
			shapes[shape(t)]++
		}
		best, bestN := "", 0
		for sh, n := range shapes {
			if n > bestN || (n == bestN && sh < best) {
				best, bestN = sh, n
			}
		}
		for _, t := range toks {
			if shape(t) == best {
				cl.tokens = append(cl.tokens, t)
			}
		}
		if len(cl.tokens) == 0 {
			return nil, fmt.Errorf("keyword class %s has no tokens", cl.name)
		}
	}
	return classes, nil
}

// zipfCombos are the class combinations zipf-ingest queries use, as
// indexes into zipfClasses: every single class, every pair, and a few
// three-keyword combinations whose cold CN generation stays cheap.
var zipfCombos = [][]int{
	{0}, {1}, {2}, {3},
	{0, 0}, {0, 1}, {0, 2}, {0, 3}, {1, 1}, {1, 2}, {1, 3}, {2, 3},
	{0, 0, 1}, {0, 1, 1}, {0, 1, 3},
}

// zipfPool draws n distinct keyword bags: mostly two keywords, some one
// or three, each from one of zipfCombos. Queries then pick pool entries
// with Zipf popularity, so a few bags dominate and the result cache
// answers most reads. combos[i] names the zipfCombos entry, and so the
// keyword shape, of bag i.
func zipfPool(classes []keywordClass, seed int64, n int) (pool []query, combos []int) {
	rng := rand.New(rand.NewSource(seed))
	var bySize [4][]int
	for ci, cb := range zipfCombos {
		bySize[len(cb)] = append(bySize[len(cb)], ci)
	}
	seen := make(map[string]bool, n)
	for len(pool) < n {
		size := 2
		switch r := rng.Intn(20); {
		case r < 3:
			size = 1
		case r < 17:
			size = 2
		default:
			size = 3
		}
		combo := bySize[size][rng.Intn(len(bySize[size]))]
		kws := make([]string, 0, size)
		for _, ci := range zipfCombos[combo] {
			toks := classes[ci].tokens
			kws = append(kws, toks[rng.Intn(len(toks))])
		}
		key := strings.Join(kws, " ")
		if seen[key] || hasDup(kws) {
			continue
		}
		seen[key] = true
		pool = append(pool, newQuery(kws))
		combos = append(combos, combo)
	}
	return pool, combos
}

func hasDup(xs []string) bool {
	for i := range xs {
		for j := i + 1; j < len(xs); j++ {
			if xs[i] == xs[j] {
				return true
			}
		}
	}
	return false
}

// zipfPicks returns n pool indexes drawn with Zipf popularity.
func zipfPicks(seed int64, pool, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.2, 1, uint64(pool-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// retitler produces the writer's documents: existing papers with a new
// title drawn from the dataset's title words.
type retitler struct {
	rng    *rand.Rand
	papers []segidx.Document
	words  []string
}

func newRetitler(c *corpus, titleWords []string, seed int64) *retitler {
	r := &retitler{rng: rand.New(rand.NewSource(seed)), words: titleWords}
	for _, d := range segidx.DocumentsFromObjectGraph(c.ds.Obj) {
		for _, f := range d.Fields {
			if f.SchemaNode == "title" {
				r.papers = append(r.papers, d)
				break
			}
		}
	}
	return r
}

// next returns a copy of a random paper whose title is replaced by three
// to six random title words.
func (r *retitler) next() segidx.Document {
	d := r.papers[r.rng.Intn(len(r.papers))]
	fields := append([]segidx.Field(nil), d.Fields...)
	words := make([]string, 3+r.rng.Intn(4))
	for i := range words {
		words[i] = r.words[r.rng.Intn(len(r.words))]
	}
	for i := range fields {
		if fields[i].SchemaNode == "title" {
			fields[i].Value = strings.Join(words, " ")
		}
	}
	return segidx.Document{TO: d.TO, Fields: fields}
}
