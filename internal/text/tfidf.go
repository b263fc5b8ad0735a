package text

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Bag is a multiset of tokens represented as token -> count. It is the
// construction-side representation: learners build bags incrementally
// while walking instances, then project them onto an interned
// vocabulary (Corpus.Vectorize, Vocab.SparseBag) before any hot-path
// arithmetic. Nothing on a predict path iterates a Bag's map.
type Bag map[string]int

// NewBag builds a Bag from a token slice.
func NewBag(tokens []string) Bag {
	//lint:ignore hotalloc Bag is the construction-side map representation; batched predicts build one per distinct text (repeats are deduplicated per batch and memoized per instance in core) and nothing iterates a Bag in scoring
	b := make(Bag, len(tokens))
	for _, t := range tokens {
		b[t]++
	}
	return b
}

// Add merges the tokens of other into b.
func (b Bag) Add(other Bag) {
	for t, n := range other {
		b[t] += n
	}
}

// Size returns the total number of token occurrences in b.
func (b Bag) Size() int {
	n := 0
	for _, c := range b {
		n += c
	}
	return n
}

// Tokens returns the distinct tokens of b in sorted order.
func (b Bag) Tokens() []string {
	out := make([]string, 0, len(b))
	for t := range b {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Term is one component of a sparse Vector: an interned token id and
// its weight.
type Term struct {
	ID ID
	W  float64
}

// OOVTerm is a weighted token outside the corpus vocabulary. Such
// tokens cannot carry a dense id (the vocabulary is frozen at training
// time, and assigning overlay ids at predict time would be
// run-dependent), so they ride alongside the interned terms keyed by
// the token itself.
type OOVTerm struct {
	Token string
	W     float64
}

// Vector is a sparse TF/IDF-weighted document vector over an interned
// vocabulary, normalized to unit length so that the dot product of two
// vectors is their cosine similarity.
//
// Terms is sorted by ascending id and OOV by ascending token — the
// canonical order every consumer iterates in, which is what makes the
// substrate deterministic by construction: float summation happens in
// the same order on every run without any per-call sorting.
//
// Vectors are only comparable when produced by the same Corpus: ids
// from different vocabularies name different tokens.
type Vector struct {
	Terms []Term
	OOV   []OOVTerm
}

// Len returns the number of non-zero components.
func (v Vector) Len() int { return len(v.Terms) + len(v.OOV) }

// Dot returns the dot product (cosine similarity for unit vectors) of
// v and u as a branch-predictable merge-join over the sorted term
// slices, with zero allocations. Both inputs are iterated in canonical
// (ascending id, then ascending OOV token) order, so the float
// summation order — and therefore the exact result — is independent of
// call site and run. Out-of-vocabulary terms match only each other:
// by construction they are exactly the tokens no vocabulary id names.
//
// lint:hot
func (v Vector) Dot(u Vector) float64 {
	s := 0.0
	a, b := v.Terms, u.Terms
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i].ID < b[j].ID:
			i++
		case a[i].ID > b[j].ID:
			j++
		default:
			s += a[i].W * b[j].W
			i++
			j++
		}
	}
	x, y := v.OOV, u.OOV
	for i, j := 0, 0; i < len(x) && j < len(y); {
		switch {
		case x[i].Token < y[j].Token:
			i++
		case x[i].Token > y[j].Token:
			j++
		default:
			s += x[i].W * y[j].W
			i++
			j++
		}
	}
	return s
}

// Corpus is a TF/IDF vector space over a set of documents. Documents
// are added during indexing, interning every token into the corpus
// vocabulary; after Freeze, Vectorize maps any token bag to a
// unit-length TF/IDF vector using the corpus document frequencies.
type Corpus struct {
	vocab   *Vocab
	docFreq []int // indexed by token id
	numDocs int
	frozen  bool
	idf     []float64 // indexed by token id
	// oovIDF is the IDF of tokens outside the vocabulary, as if they
	// appeared in a single document.
	oovIDF float64
}

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus {
	return &Corpus{vocab: NewVocab()}
}

// Vocab exposes the corpus vocabulary so consumers can build
// id-indexed side tables (e.g. posting lists) in the same coordinate
// system. Callers must not Intern through it; AddDocument owns
// vocabulary growth.
func (c *Corpus) Vocab() *Vocab { return c.vocab }

// AddDocument records the document-frequency contribution of the bag,
// interning its tokens in sorted order (sorted, not map, order: id
// assignment must be deterministic — see Vocab). It panics if the
// corpus has been frozen.
func (c *Corpus) AddDocument(b Bag) {
	if c.frozen {
		panic("text: AddDocument after Freeze")
	}
	c.numDocs++
	for _, t := range b.Tokens() {
		id := c.vocab.Intern(t)
		if int(id) >= len(c.docFreq) {
			c.docFreq = append(c.docFreq, 0)
		}
		c.docFreq[id]++
	}
}

// NumDocs returns the number of indexed documents.
func (c *Corpus) NumDocs() int { return c.numDocs }

// Freeze finalizes the IDF table and freezes the vocabulary. Further
// AddDocument calls panic.
func (c *Corpus) Freeze() {
	if c.frozen {
		return
	}
	c.frozen = true
	c.vocab.Freeze()
	c.idf = make([]float64, len(c.docFreq))
	n := float64(c.numDocs)
	for id, df := range c.docFreq {
		// Smoothed IDF; strictly positive so indexed tokens are never
		// silently dropped.
		c.idf[id] = math.Log(1 + n/float64(df))
	}
	c.oovIDF = math.Log(1 + n)
}

// CorpusState is the serializable view of a frozen Corpus: the interned
// tokens in id order, the per-token document frequencies, and the
// document count. The IDF table is deliberately absent — it is a pure
// function of these fields, and RestoreCorpus recomputes it with the
// same math.Log calls Freeze runs, so a restored corpus vectorizes
// bit-identically to the one that was saved.
type CorpusState struct {
	Tokens  []string
	DocFreq []int64
	NumDocs int64
}

// State snapshots the corpus for serialization. It freezes the corpus
// first: only frozen corpora have a stable coordinate system.
func (c *Corpus) State() CorpusState {
	if !c.frozen {
		c.Freeze()
	}
	df := make([]int64, len(c.docFreq))
	for i, n := range c.docFreq {
		df[i] = int64(n)
	}
	return CorpusState{Tokens: c.vocab.Tokens(), DocFreq: df, NumDocs: int64(c.numDocs)}
}

// RestoreCorpus rebuilds a frozen corpus from a snapshot. Document
// frequencies must align one-to-one with the tokens and be positive:
// every interned token was seen in at least one document, and a zero
// frequency would divide by zero in the IDF computation.
func RestoreCorpus(st CorpusState) (*Corpus, error) {
	if len(st.DocFreq) != len(st.Tokens) {
		return nil, fmt.Errorf("text: %d document frequencies for %d tokens", len(st.DocFreq), len(st.Tokens))
	}
	if st.NumDocs < 0 {
		return nil, fmt.Errorf("text: negative document count %d", st.NumDocs)
	}
	vocab, err := RestoreVocab(st.Tokens)
	if err != nil {
		return nil, err
	}
	c := &Corpus{vocab: vocab, numDocs: int(st.NumDocs)}
	c.docFreq = make([]int, len(st.DocFreq))
	for i, n := range st.DocFreq {
		if n <= 0 || n > st.NumDocs {
			return nil, fmt.Errorf("text: document frequency %d of token %q outside [1, %d]", n, st.Tokens[i], st.NumDocs)
		}
		c.docFreq[i] = int(n)
	}
	c.Freeze()
	return c, nil
}

// IDF returns the inverse document frequency of token t. Unknown
// tokens get a default IDF as if they appeared in a single document.
func (c *Corpus) IDF(t string) float64 {
	if !c.frozen {
		c.Freeze()
	}
	if id, ok := c.vocab.Lookup(t); ok {
		return c.idf[id]
	}
	return c.oovIDF
}

// Vectorize maps a token bag to a unit-length TF/IDF vector. TF is
// log-damped (1+ln(count)), the standard Whirl/IR weighting. The zero
// bag maps to the zero vector. The squared weights are summed in the
// vector's canonical order, so the norm — and every component — is
// independent of map iteration order.
func (c *Corpus) Vectorize(b Bag) Vector {
	if !c.frozen {
		c.Freeze()
	}
	var v Vector
	if len(b) == 0 {
		return v
	}
	v.Terms = make([]Term, 0, len(b))
	for t, cnt := range b {
		w := 1 + math.Log(float64(cnt))
		if id, ok := c.vocab.Lookup(t); ok {
			v.Terms = append(v.Terms, Term{ID: id, W: w * c.idf[id]})
		} else {
			v.OOV = append(v.OOV, OOVTerm{Token: t, W: w * c.oovIDF})
		}
	}
	slices.SortFunc(v.Terms, func(a, b Term) int {
		switch {
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
		return 0
	})
	slices.SortFunc(v.OOV, func(a, b OOVTerm) int {
		return strings.Compare(a.Token, b.Token)
	})
	norm := 0.0
	for _, t := range v.Terms {
		norm += t.W * t.W
	}
	for _, t := range v.OOV {
		norm += t.W * t.W
	}
	if norm == 0 {
		return v
	}
	norm = math.Sqrt(norm)
	for i := range v.Terms {
		v.Terms[i].W /= norm
	}
	for i := range v.OOV {
		v.OOV[i].W /= norm
	}
	return v
}
