// Package xmllearner implements the XML learner of §5, the paper's
// novel classifier for nested elements. Like Naive Bayes it represents
// an instance as a bag of tokens and multiplies token probabilities,
// but the bag contains structure tokens in addition to text tokens:
//
//   - text tokens: the stemmed words in leaf content;
//   - node tokens: one per non-root sub-element, carrying its label;
//   - edge tokens: one per parent-child pair, from the generic root or
//     a sub-element label to a child label or leaf word.
//
// During training the sub-element labels are the true labels given by
// the user's 1-1 mappings; during matching they are predicted by the
// rest of LSD (the other base learners combined by the meta-learner),
// exactly as Table 2 of the paper prescribes.
package xmllearner

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/learn"
	"repro/internal/learners/naivebayes"
	"repro/internal/text"
	"repro/internal/xmltree"
)

// genericRoot is tR of Table 2: every instance tree's own tag is
// replaced with this placeholder so the learner never keys on the
// source-specific root tag.
const genericRoot = "d"

// maxTokMemo bounds each structural-token memo below. Real corpora
// draw from a few hundred labels and a few thousand words; the bound
// only caps memory on adversarial input, after which tokens are built
// directly.
const maxTokMemo = 1 << 15

// The structural-token memos cache the prefixed map keys the walk
// emits ("w:"+word, "n:"+label, "e:"+parent+">"+child): building them
// with string concatenation on every occurrence was the single largest
// allocation site of the matching phase. The token strings are pure
// functions of their parts, so the memos never affect results — a lost
// or skipped insert only costs the concatenation — and sync.Map makes
// them safe to share between concurrent predict workers.
var (
	wordTokMemo    sync.Map // word -> "w:"+word
	wordTokMemoLen atomic.Int64
	nodeTokMemo    sync.Map // label -> "n:"+label
	nodeTokMemoLen atomic.Int64
	edgeTokMemos   sync.Map // parent label -> *edgeTokMemo
)

// edgeTokMemo caches the edge tokens under one parent label.
type edgeTokMemo struct {
	m   sync.Map // child (label or word) -> "e:"+parent+">"+child
	len atomic.Int64
}

func memoTok(m *sync.Map, n *atomic.Int64, key, prefix, suffix string) string {
	if v, ok := m.Load(key); ok {
		return v.(string)
	}
	s := prefix + key + suffix
	if n.Load() < maxTokMemo {
		if _, loaded := m.LoadOrStore(key, s); !loaded {
			n.Add(1)
		}
	}
	return s
}

func wordTok(w string) string { return memoTok(&wordTokMemo, &wordTokMemoLen, w, "w:", "") }

func nodeTok(label string) string { return memoTok(&nodeTokMemo, &nodeTokMemoLen, label, "n:", "") }

// edgeTok returns "e:"+parent+">"+child through the two-level memo, so
// the steady state allocates nothing per occurrence.
func edgeTok(parent, child string) string {
	v, ok := edgeTokMemos.Load(parent)
	if !ok {
		v, _ = edgeTokMemos.LoadOrStore(parent, &edgeTokMemo{})
	}
	em := v.(*edgeTokMemo)
	if s, ok := em.m.Load(child); ok {
		return s.(string)
	}
	s := "e:" + parent + ">" + child
	if em.len.Load() < maxTokMemo {
		if _, loaded := em.m.LoadOrStore(child, s); !loaded {
			em.len.Add(1)
		}
	}
	return s
}

// NodeLabeler assigns a label to a sub-element of an instance. The
// training phase uses the true mappings; the matching phase uses the
// predictions of the other base learners combined by the meta-learner.
type NodeLabeler interface {
	// LabelNode returns the label for the element node whose
	// root-to-node tag path is path. path is only valid for the
	// duration of the call: the walk reuses one path buffer, so an
	// implementation that retains it must copy it first.
	LabelNode(node *xmltree.Node, path []string) string
}

// NodeLabelerFunc adapts a function to the NodeLabeler interface.
type NodeLabelerFunc func(node *xmltree.Node, path []string) string

// LabelNode implements NodeLabeler.
func (f NodeLabelerFunc) LabelNode(node *xmltree.Node, path []string) string {
	return f(node, path)
}

// Learner is the XML learner. It must be constructed with the labeler
// used at matching time; the labeler used at training time is passed to
// Train through the examples' true labels via SetTrainLabeler.
type Learner struct {
	nb           *naivebayes.Learner
	trainLabeler NodeLabeler
	matchLabeler NodeLabeler
}

// New returns an untrained XML learner. trainLabeler labels
// sub-elements during training (from the user's 1-1 mappings);
// matchLabeler labels them during matching (from the rest of LSD).
// Either may be nil, in which case sub-element tags are kept verbatim —
// useful in isolation tests but not the paper's configuration.
func New(trainLabeler, matchLabeler NodeLabeler) *Learner {
	return &Learner{
		nb:           naivebayes.New(),
		trainLabeler: trainLabeler,
		matchLabeler: matchLabeler,
	}
}

// SetMatchLabeler replaces the matching-phase labeler. The LSD pipeline
// calls this after the meta-learner is trained, resolving the circular
// dependency between the XML learner and the ensemble it consults.
func (l *Learner) SetMatchLabeler(nl NodeLabeler) { l.matchLabeler = nl }

// State snapshots the trained learner's Naive Bayes model for
// serialization; nil if untrained. The labelers are code, not data:
// the training labeler is only needed during Train, and the matching
// labeler is rebuilt by the pipeline from the restored base learners
// and the serialized interim stacker, and re-attached with
// SetMatchLabeler.
func (l *Learner) State() *naivebayes.State { return l.nb.State() }

// Restore rebuilds a trained XML learner from its serialized Naive
// Bayes state. The caller re-attaches the matching-phase labeler with
// SetMatchLabeler; until then sub-element tags pass through verbatim.
func Restore(st *naivebayes.State) (*Learner, error) {
	nb, err := naivebayes.Restore(st)
	if err != nil {
		return nil, fmt.Errorf("xmllearner: %w", err)
	}
	return &Learner{nb: nb}, nil
}

// Name implements learn.Learner.
func (l *Learner) Name() string { return "XMLLearner" }

// Train builds the structural token bags of every example (Table 2,
// training phase) and fits the underlying Naive Bayes model on them.
func (l *Learner) Train(labels []string, examples []learn.Example) error {
	if len(labels) == 0 {
		return fmt.Errorf("xmllearner: no labels")
	}
	bags := make([]text.Bag, 0, len(examples))
	bagLabels := make([]string, 0, len(examples))
	for _, ex := range examples {
		bags = append(bags, l.TokenBag(ex.Instance, l.trainLabeler))
		bagLabels = append(bagLabels, ex.Label)
	}
	return l.nb.TrainBags(labels, bags, bagLabels)
}

// Predict builds the instance's structural token bag, labelling
// sub-elements with the matching-phase labeler, and returns the Naive
// Bayes posterior over the bag.
func (l *Learner) Predict(in learn.Instance) learn.Prediction {
	return l.nb.PredictBag(l.TokenBag(in, l.matchLabeler))
}

// TokenBag generates the bag of text, node, and edge tokens for an
// instance (Table 2 step 3 / Figure 7.f). Exposed for tests and for
// the ablation benches.
func (l *Learner) TokenBag(in learn.Instance, labeler NodeLabeler) text.Bag {
	bag := text.Bag{}
	if in.Node == nil {
		// Fall back to plain text tokens: a flat instance has no
		// structure, so the learner degrades to Naive Bayes.
		for _, w := range naivebayes.Tokens(in.Content) {
			bag[wordTok(w)]++
		}
		return bag
	}
	// Copy the instance path into a private buffer with headroom:
	// collect extends it in place while walking (one allocation per
	// bag, not one per visited child), which is safe because labelers
	// must not retain the path slice they are handed.
	path := make([]string, len(in.Path), len(in.Path)+8)
	copy(path, in.Path)
	l.collect(in.Node, genericRoot, path, labeler, bag)
	return bag
}

// collect walks the children of node, whose resolved label is
// parentLabel, adding tokens to bag. path is the tag path from the
// document root to node.
func (l *Learner) collect(node *xmltree.Node, parentLabel string, path []string, labeler NodeLabeler, bag text.Bag) {
	// Words directly under this node.
	for _, w := range naivebayes.Tokens(node.Text) {
		bag[wordTok(w)]++
		bag[edgeTok(parentLabel, w)]++
	}
	for _, child := range node.Children {
		// Extend the shared path buffer in place; truncation on the next
		// iteration reuses the same backing array. LabelNode must not
		// retain the slice (see NodeLabeler), and NewInstance copies it.
		childPath := append(path, child.Tag)
		label := child.Tag
		if labeler != nil {
			label = labeler.LabelNode(child, childPath)
		}
		if child.IsLeaf() {
			// Leaf sub-elements contribute their words under the
			// parent's label plus, when labelled, a node token.
			if labeler != nil {
				bag[nodeTok(label)]++
				bag[edgeTok(parentLabel, label)]++
			}
			for _, w := range naivebayes.Tokens(child.Text) {
				bag[wordTok(w)]++
				bag[edgeTok(label, w)]++
			}
			continue
		}
		bag[nodeTok(label)]++
		bag[edgeTok(parentLabel, label)]++
		l.collect(child, label, childPath, labeler, bag)
	}
}
