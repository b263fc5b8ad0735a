package learn

// BatchPredictor is the optional batched companion to Learner: a
// learner that can score a whole batch of instances in one pass over
// its trained model — WHIRL scores every query document of a batch in
// a single traversal of the shared postings table, Naive Bayes sweeps
// its log-probability tables once per label instead of once per
// instance. The serve path groups a source's tag instances into such
// batches (core.Match), so implementing this interface turns per-call
// model walks into amortized whole-source scoring.
//
// The contract mirrors Predict exactly: PredictBatch(ins)[i] must be
// bit-identical to Predict(ins[i]) for every instance, at every batch
// size and order — batching is a pure evaluation-strategy change, and
// determinism_test.go enforces it across domains and worker counts.
type BatchPredictor interface {
	Learner
	// PredictBatch returns one prediction per instance, aligned with
	// ins. Returned predictions are read-only and may be shared — with
	// any internal cache, between callers, and between duplicate
	// instances of the same batch — exactly like Predict's.
	//
	// lint:shared
	PredictBatch(ins []Instance) []Prediction
}

// PredictAll scores every instance with l, through PredictBatch when
// the learner implements BatchPredictor and per-instance Predict
// otherwise. The result is aligned with ins.
func PredictAll(l Learner, ins []Instance) []Prediction {
	if bp, ok := l.(BatchPredictor); ok {
		return bp.PredictBatch(ins)
	}
	out := make([]Prediction, len(ins))
	for i, in := range ins {
		out[i] = l.Predict(in)
	}
	return out
}
