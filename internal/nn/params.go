// Package nn builds the neural models the paper evaluates — MLP, GCN, and
// the OrthoGCN of Table 1 — on top of the ad autodiff engine, together with
// the SGD/Adam optimisers and the parameter-set plumbing federated
// aggregation needs (cloning, averaging, byte-level size accounting).
package nn

import (
	"fmt"
	"math"

	"fedomd/internal/mat"
)

// Params is an ordered, named collection of weight matrices. Order is the
// insertion order, which all models keep deterministic so that federated
// averaging can zip parameter sets from different clients.
type Params struct {
	names []string
	vals  map[string]*mat.Dense
}

// NewParams returns an empty parameter set.
func NewParams() *Params {
	return &Params{vals: make(map[string]*mat.Dense)}
}

// Add registers a named matrix. It panics on duplicate names (models are
// static; a duplicate is a bug).
func (p *Params) Add(name string, w *mat.Dense) {
	if _, dup := p.vals[name]; dup {
		panic(fmt.Sprintf("nn: duplicate parameter %q", name))
	}
	p.names = append(p.names, name)
	p.vals[name] = w
}

// Get returns the named matrix, or nil if absent.
func (p *Params) Get(name string) *mat.Dense { return p.vals[name] }

// Names returns the parameter names in registration order.
func (p *Params) Names() []string { return append([]string(nil), p.names...) }

// Len returns the number of parameter matrices.
func (p *Params) Len() int { return len(p.names) }

// At returns the i-th matrix in registration order.
func (p *Params) At(i int) *mat.Dense { return p.vals[p.names[i]] }

// Clone deep-copies the parameter set.
func (p *Params) Clone() *Params {
	out := NewParams()
	for _, n := range p.names {
		out.Add(n, p.vals[n].Clone())
	}
	return out
}

// CopyFrom overwrites p's matrices with src's values. The sets must have the
// same names in the same order.
func (p *Params) CopyFrom(src *Params) error {
	if err := p.compatible(src); err != nil {
		return err
	}
	for _, n := range p.names {
		p.vals[n].CopyFrom(src.vals[n])
	}
	return nil
}

// Zero zeroes every matrix in place.
func (p *Params) Zero() {
	for _, n := range p.names {
		p.vals[n].Zero()
	}
}

// AXPY computes p += alpha·src element-wise across all matrices — the
// primitive federated averaging is built from.
func (p *Params) AXPY(alpha float64, src *Params) error {
	if err := p.compatible(src); err != nil {
		return err
	}
	for _, n := range p.names {
		p.vals[n].AXPY(alpha, src.vals[n])
	}
	return nil
}

// Scale multiplies every matrix by s in place.
func (p *Params) Scale(s float64) {
	for _, n := range p.names {
		p.vals[n].ScaleInPlace(s)
	}
}

// NumFloats returns the total number of scalar parameters, used for the
// communication-cost accounting of Table 3.
func (p *Params) NumFloats() int {
	total := 0
	for _, n := range p.names {
		w := p.vals[n]
		total += w.Rows() * w.Cols()
	}
	return total
}

// Bytes returns the wire size of the parameter set at 8 bytes per float.
func (p *Params) Bytes() int { return 8 * p.NumFloats() }

// L2Distance returns the Euclidean distance between two compatible parameter
// sets (used by FedProx's proximal term diagnostics and tests).
func (p *Params) L2Distance(q *Params) (float64, error) {
	if err := p.compatible(q); err != nil {
		return 0, err
	}
	var s float64
	for _, n := range p.names {
		d := mat.Sub(p.vals[n], q.vals[n])
		s += mat.FrobNormSq(d)
	}
	return math.Sqrt(s), nil
}

// Equal reports whether q holds the same names, order and shapes as p and
// bit-identical values (math.Float64bits), so a NaN equals the same NaN and
// 0 differs from -0. It is the key check of EvalCache.
func (p *Params) Equal(q *Params) bool {
	if p.compatible(q) != nil {
		return false
	}
	for _, n := range p.names {
		a, b := p.vals[n].Data(), q.vals[n].Data()
		for i, v := range a {
			if math.Float64bits(v) != math.Float64bits(b[i]) {
				return false
			}
		}
	}
	return true
}

// Compatible reports whether q has the same parameter names, order, and
// shapes as p (nil when it does) — the precondition for CopyFrom, AXPY, and
// Average. The federated runtime uses it to screen a client's upload before
// aggregation so one malformed parameter set fails that client, not the
// whole round.
func (p *Params) Compatible(q *Params) error { return p.compatible(q) }

func (p *Params) compatible(q *Params) error {
	if len(p.names) != len(q.names) {
		return fmt.Errorf("nn: parameter sets differ in length %d vs %d", len(p.names), len(q.names))
	}
	for i, n := range p.names {
		if q.names[i] != n {
			return fmt.Errorf("nn: parameter name mismatch at %d: %q vs %q", i, n, q.names[i])
		}
		a, b := p.vals[n], q.vals[n]
		if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
			return fmt.Errorf("nn: parameter %q shape mismatch %dx%d vs %dx%d", n, a.Rows(), a.Cols(), b.Rows(), b.Cols())
		}
	}
	return nil
}

// Average computes the FedAvg aggregate Σ λ_i·sets[i] with weights λ
// normalised to sum to 1 (eq. 2 / Algorithm 1 line 27). Weights are
// typically client sample counts. It returns a fresh parameter set.
func Average(sets []*Params, weights []float64) (*Params, error) {
	if len(sets) == 0 {
		return nil, fmt.Errorf("nn: Average of no parameter sets")
	}
	if len(weights) != len(sets) {
		return nil, fmt.Errorf("nn: %d weights for %d sets", len(weights), len(sets))
	}
	var total float64
	for _, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("nn: negative aggregation weight %v", w)
		}
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("nn: aggregation weights sum to zero")
	}
	out := sets[0].Clone()
	out.Scale(weights[0] / total)
	for i := 1; i < len(sets); i++ {
		if err := out.AXPY(weights[i]/total, sets[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}
