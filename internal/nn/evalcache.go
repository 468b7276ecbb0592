package nn

import (
	"fedomd/internal/ad"
	"fedomd/internal/mat"
)

// EvalCache serves every dropout-off forward pass a client makes at one set
// of weights from a single recorded pass. In a federated round the client
// scores the broadcast model (validation and test accuracy) and computes its
// hidden-layer means and central moments at those same weights; without the
// cache each of those calls would run its own identical forward.
//
// The key is a bitwise snapshot of the live parameters (Params.Equal) taken
// when the cache was filled, plus an optional flag for model state outside
// the parameters (OrthoGCN's spectral bound). A version counter would not
// do: Params hands out live matrices that callers may mutate in place, and
// the snapshot compare costs O(#params), negligible next to a forward.
//
// The forward values stay on the cache's own tape, in mat pool buffers, so
// holding them costs no copy. Release returns them to the pool; a client
// calls it before its training step so the step reuses that storage, and a
// key miss calls it before recording the new pass. Not safe for concurrent
// use: one goroutine drives a client at a time (the fed.Client contract).
type EvalCache struct {
	ps    *Params
	flag  func() bool
	infer func(*ad.Tape) *Forward

	tape     *ad.Tape
	snap     *Params
	snapFlag bool
	fwd      *Forward
	pred     []int // argmax of fwd's logits; empty until first needed
}

// NewEvalCache builds a cache over the live parameter set ps. infer records
// the model's dropout-off forward pass on the given tape. flag, when
// non-nil, reports model state outside ps that the pass depends on; it is
// part of the key.
func NewEvalCache(ps *Params, flag func() bool, infer func(*ad.Tape) *Forward) *EvalCache {
	return &EvalCache{ps: ps, flag: flag, infer: infer, tape: ad.NewTape()}
}

// Forward returns the inference pass at the current parameters, recording it
// only when the key changed since the last pass. The result, and every value
// derived from its nodes, is valid until the next miss or Release; callers
// copy out what they hand on.
func (e *EvalCache) Forward() *Forward {
	flag := e.flag != nil && e.flag()
	if e.fwd != nil && e.snapFlag == flag && e.ps.Equal(e.snap) {
		return e.fwd
	}
	e.Release()
	if e.snap == nil || e.snap.CopyFrom(e.ps) != nil {
		e.snap = e.ps.Clone()
	}
	e.snapFlag = flag
	e.fwd = e.infer(e.tape)
	return e.fwd
}

// Accuracy counts the mask nodes whose argmax prediction under the cached
// pass matches labels. The predictions are computed once per pass.
func (e *EvalCache) Accuracy(labels, mask []int) (correct, total int) {
	if len(mask) == 0 {
		return 0, 0
	}
	f := e.Forward()
	if len(e.pred) == 0 {
		e.pred = mat.ArgmaxRowsInto(e.pred, f.Logits.Value)
	}
	for _, i := range mask {
		if e.pred[i] == labels[i] {
			correct++
		}
	}
	return correct, len(mask)
}

// Release returns the cached pass's buffers to the mat pool; the next
// Forward records afresh.
func (e *EvalCache) Release() {
	e.fwd = nil
	e.pred = e.pred[:0]
	e.tape.Release()
}
