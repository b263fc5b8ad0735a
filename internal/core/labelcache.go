package core

import (
	"strings"
	"sync"

	"repro/internal/xmltree"
)

// memoShards is the fixed shard count of the core memo tables; it only
// tunes lock contention (concurrent CV folds, parallel match workers,
// concurrent serve requests all consult one table) and never affects
// which value is returned.
const memoShards = 8

// maxMemoEntries bounds each memo table across all shards and both
// generations.
const maxMemoEntries = 8192

// perMemoGen bounds each shard's current generation.
const perMemoGen = maxMemoEntries / memoShards / 2

// memo is a bounded, sharded, two-generation memo table keyed by
// instance key. It backs both the ensemble labeler's label cache and
// the system's combined-prediction cache. The labeler's predecessor
// was keyed by node pointer, which meant every serve request's freshly
// parsed nodes missed — and the entries for those dead nodes
// accumulated without bound across requests. Keying by the textual
// instance key (tag, path, content — exactly the features the
// learners read) makes entries shareable across requests and
// listings, and two-generation rotation bounds the footprint. Values
// are pure functions of the trained system, so racing workers that
// both miss compute the same value and determinism is preserved.
type memo[V any] struct {
	shards [memoShards]memoShard[V]
}

// memoShard is one lock domain of a memo table, with two-generation
// eviction: inserts fill cur, a full cur rotates into old,
// old-generation hits are promoted back.
type memoShard[V any] struct {
	mu sync.Mutex
	// cur is the current generation, filled by inserts and promotions.
	cur map[string]V // guarded by mu
	// old is the previous generation, read-only until dropped by the
	// next rotation.
	old map[string]V // guarded by mu
}

// get looks key up; a nil table misses everything, so an uninitialized
// cache degrades to recomputation rather than a panic.
func (m *memo[V]) get(key string) (V, bool) {
	if m == nil {
		var zero V
		return zero, false
	}
	return m.shards[cacheHash(key)%memoShards].get(key)
}

// put records key's value; a nil table drops it.
func (m *memo[V]) put(key string, v V) {
	if m == nil {
		return
	}
	m.shards[cacheHash(key)%memoShards].put(key, v)
}

// cacheHash is 32-bit FNV-1a.
func cacheHash(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// get looks key up in both generations, promoting an old-generation
// hit so hot entries survive rotation.
func (sh *memoShard[V]) get(key string) (V, bool) {
	sh.mu.Lock()
	v, ok := sh.cur[key]
	if !ok {
		if v, ok = sh.old[key]; ok {
			if len(sh.cur) >= perMemoGen {
				sh.old = sh.cur
				sh.cur = make(map[string]V, 64)
			}
			if sh.cur == nil {
				sh.cur = make(map[string]V, 64)
			}
			sh.cur[key] = v
		}
	}
	sh.mu.Unlock()
	return v, ok
}

// put records v in the current generation, rotating when full.
func (sh *memoShard[V]) put(key string, v V) {
	sh.mu.Lock()
	if sh.cur == nil {
		sh.cur = make(map[string]V, 64)
	}
	if _, exists := sh.cur[key]; !exists && len(sh.cur) >= perMemoGen {
		sh.old = sh.cur
		sh.cur = make(map[string]V, 64)
	}
	sh.cur[key] = v
	sh.mu.Unlock()
}

// instanceKey is the textual identity of an instance for caching and
// batch deduplication: tag name, root path, and content, separated by
// a byte that cannot occur in XML tag names. For leaf and text-only
// instances this covers every feature any learner reads (the name
// matcher's expanded name is tag + path + synonyms, and synonyms are
// a pure function of the tag; all other learners read only the
// content), so equal keys imply bit-identical predictions.
func instanceKey(tag string, path []string, content string) string {
	n := len(tag) + len(content) + len(path) + 2
	for _, p := range path {
		n += len(p)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(tag)
	b.WriteByte(0x1f)
	for _, p := range path {
		b.WriteString(p)
		b.WriteByte(0x1e)
	}
	b.WriteByte(0x1f)
	b.WriteString(content)
	return b.String()
}

// interiorKey is the textual identity of an interior-node instance:
// root path plus a lossless serialization of the whole subtree. Every
// feature any learner reads from an interior instance derives from the
// subtree and the path — the tag is the subtree root's, synonyms are a
// pure function of the tag, Content() concatenates the subtree's text,
// and the XML learner's structural tokens (including the child labels
// its match labeler assigns from each child's tag, path, and content)
// walk the same tree — so equal keys imply bit-identical predictions.
// The 0x1c prefix byte, impossible in a tag name, keeps the interior
// keyspace disjoint from instanceKey's.
func interiorKey(path []string, n *xmltree.Node) string {
	var b strings.Builder
	b.Grow(64 + n.Size()*16)
	b.WriteByte(0x1c)
	for _, p := range path {
		b.WriteString(p)
		b.WriteByte(0x1e)
	}
	b.WriteByte(0x1f)
	writeSubtree(&b, n)
	return b.String()
}

// writeSubtree appends an unambiguous serialization of n: tag and text
// separated by 0x1d, each child wrapped in 0x1c…0x1e. XML character
// data cannot contain these control bytes, so distinct trees always
// serialize distinctly.
func writeSubtree(b *strings.Builder, n *xmltree.Node) {
	b.WriteString(n.Tag)
	b.WriteByte(0x1d)
	b.WriteString(n.Text)
	for _, c := range n.Children {
		b.WriteByte(0x1c)
		writeSubtree(b, c)
		b.WriteByte(0x1e)
	}
}
