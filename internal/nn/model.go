package nn

import (
	"fmt"
	"math/rand"

	"fedomd/internal/ad"
	"fedomd/internal/mat"
	"fedomd/internal/sparse"
)

// Input bundles what a model's forward pass consumes: the node features and,
// for graph models, the normalised propagation operator S̃.
type Input struct {
	// S is the GCN-normalised adjacency D^{-1/2}(A+I)D^{-1/2}; nil for
	// structure-free models (MLP).
	S *sparse.CSR
	// X is the n×f feature matrix.
	X *mat.Dense
}

// Forward is the result of one model forward pass on a tape.
type Forward struct {
	// Logits is the pre-softmax n×classes output node.
	Logits *ad.Node
	// Hidden holds the post-activation hidden representations Z^1..Z^{L-1}
	// in layer order — the quantities the CMD constraint operates on.
	Hidden []*ad.Node
	// ParamNodes are the tape nodes of the model parameters, aligned with
	// Params registration order, so callers can read gradients after
	// Backward.
	ParamNodes []*ad.Node
	// OrthoNodes are the subset of ParamNodes subject to the orthogonality
	// penalty of eq. 6 (the square OrthoConv weights).
	OrthoNodes []*ad.Node
}

// Model is a trainable classifier over graph-structured (or plain) features.
type Model interface {
	// Params returns the live parameter set; optimisers mutate it in place.
	Params() *Params
	// Forward records the forward pass on tp. train toggles dropout.
	Forward(tp *ad.Tape, in Input, rng *rand.Rand, train bool) *Forward
	// NeedsGraph reports whether the model requires Input.S.
	NeedsGraph() bool
}

// paramNodes binds every matrix of ps onto the tape in order.
func paramNodes(tp *ad.Tape, ps *Params) []*ad.Node {
	nodes := make([]*ad.Node, ps.Len())
	for i := range nodes {
		nodes[i] = tp.Param(ps.At(i))
	}
	return nodes
}

// propCache memoises the constant left operand of a model's first layer:
// the propagated features S̃·X for graph models, the raw features X for the
// MLP. Both S̃ and X are constants of the client — S̃ is fixed by the local
// topology and X by the local features — so by associativity the GCN first
// layer S̃·(X·W⁰) can be computed as (S̃X)·W⁰ with S̃X built once: every
// forward after the first saves one SpMM, and every backward saves the
// matching Sᵀ·G, because the gradient stops at the constant.
//
// The cache keys on operand identity, so swapping in a different graph or
// feature matrix recomputes. It is not safe for concurrent use; models are
// driven by one goroutine at a time (the fed.Client contract).
type propCache struct {
	s  *sparse.CSR
	x  *mat.Dense
	op *constOperand
}

// propagated returns the cached first-layer operand S̃·X (X when s is nil),
// computing it on first use or when the operands change.
func (c *propCache) propagated(s *sparse.CSR, x *mat.Dense) *constOperand {
	if c.op == nil || c.s != s || c.x != x {
		c.op = newConstOperand(s, x)
		c.s, c.x = s, x
	}
	return c.op
}

// sparseOperandDensity is the inverse of the largest fraction of nonzeros
// at which a constant first-layer operand is held in CSR form: nnz ≤
// rows·cols/4. Bag-of-words features (Cora's X is 1.3% nonzero, its S̃X about
// 5%) fall far below it; dense features (a 200k-node SBM's S̃X is 68%
// nonzero) stay on the dense kernel.
const sparseOperandDensity = 4

// constOperand is the constant left operand A = S̃·X of a first-layer
// product A·W, held dense or — when sparse enough — as CSR plus its
// transpose. Both forms give bit-identical products and weight gradients
// (ad.SparseMatMul); the CSR form costs in proportion to A's nonzeros and
// draws no gradient buffer.
type constOperand struct {
	dense     *mat.Dense  // nil in CSR form
	csr, csrT *sparse.CSR // A and Aᵀ (built on the first tape product); nil in dense form
}

// newConstOperand builds S̃·X (X itself when s is nil) in the form the
// density rule picks. For S̃X the rule tests the number of products the
// sparse propagation forms, which bounds S̃X's nonzeros and is known from a
// counting pass over X, so dense S̃X is never attempted sparse; in CSR form
// the dense S̃X is never materialised. Its entries equal the dense
// propagation's nonzeros (sparse.CSR.MulDenseCSR).
func newConstOperand(s *sparse.CSR, x *mat.Dense) *constOperand {
	var a *sparse.CSR
	if s == nil {
		a = sparse.FromDense(x, x.Rows()*x.Cols()/sparseOperandDensity)
	} else {
		a = s.MulDenseCSR(x, s.Rows()*x.Cols()/sparseOperandDensity)
	}
	switch {
	case a != nil:
		return &constOperand{csr: a}
	case s == nil:
		return &constOperand{dense: x}
	default:
		return &constOperand{dense: s.MulDense(x)}
	}
}

// mul records A·w on tp.
func (o *constOperand) mul(tp *ad.Tape, w *ad.Node) *ad.Node {
	if o.csr != nil {
		if o.csrT == nil {
			o.csrT = o.csr.Transpose()
		}
		return tp.SparseMatMul(o.csr, o.csrT, w)
	}
	return tp.MatMul(tp.Const(o.dense), w)
}

// matMul returns A·w off the tape, bit-identical to mul's value.
func (o *constOperand) matMul(w *mat.Dense) *mat.Dense {
	if o.csr == nil {
		return mat.MatMul(o.dense, w)
	}
	out := mat.New(o.csr.Rows(), w.Cols())
	o.csr.MatMulInto(out, w)
	return out
}

// MLP is the FedMLP base model: Dense→ReLU→(dropout)→Dense, no structure.
type MLP struct {
	params  *Params
	dims    []int
	dropout float64
	feat    propCache // X as the first layer's operand
}

// NewMLP builds an MLP with the given layer dimensions (at least in/out) and
// dropout probability applied after every hidden activation.
func NewMLP(rng *rand.Rand, dims []int, dropout float64) (*MLP, error) {
	if len(dims) < 2 {
		return nil, fmt.Errorf("nn: MLP needs at least [in, out] dims, got %v", dims)
	}
	ps := NewParams()
	for l := 0; l+1 < len(dims); l++ {
		ps.Add(fmt.Sprintf("w%d", l), mat.Xavier(rng, dims[l], dims[l+1]))
		ps.Add(fmt.Sprintf("b%d", l), mat.New(1, dims[l+1]))
	}
	return &MLP{params: ps, dims: append([]int(nil), dims...), dropout: dropout}, nil
}

// Params implements Model.
func (m *MLP) Params() *Params { return m.params }

// NeedsGraph implements Model.
func (m *MLP) NeedsGraph() bool { return false }

// Forward implements Model.
func (m *MLP) Forward(tp *ad.Tape, in Input, rng *rand.Rand, train bool) *Forward {
	nodes := paramNodes(tp, m.params)
	var z *ad.Node
	var hidden []*ad.Node
	layers := len(m.dims) - 1
	for l := 0; l < layers; l++ {
		w := nodes[2*l]
		b := nodes[2*l+1]
		if l == 0 {
			z = m.feat.propagated(nil, in.X).mul(tp, w)
		} else {
			z = tp.MatMul(z, w)
		}
		z = tp.AddRowVec(z, b)
		if l+1 < layers {
			z = tp.ReLU(z)
			hidden = append(hidden, z)
			z = tp.Dropout(z, m.dropout, rng, train)
		}
	}
	return &Forward{Logits: z, Hidden: hidden, ParamNodes: nodes}
}

// GCN is the Kipf & Welling graph convolutional network used by LocGCN and
// FedGCN: Z^{l+1} = σ(S̃ Z^l W^l).
type GCN struct {
	params  *Params
	dims    []int
	dropout float64
	prop    propCache
}

// NewGCN builds a GCN with the given layer dimensions.
func NewGCN(rng *rand.Rand, dims []int, dropout float64) (*GCN, error) {
	if len(dims) < 2 {
		return nil, fmt.Errorf("nn: GCN needs at least [in, out] dims, got %v", dims)
	}
	ps := NewParams()
	for l := 0; l+1 < len(dims); l++ {
		ps.Add(fmt.Sprintf("w%d", l), mat.Xavier(rng, dims[l], dims[l+1]))
	}
	return &GCN{params: ps, dims: append([]int(nil), dims...), dropout: dropout}, nil
}

// Params implements Model.
func (m *GCN) Params() *Params { return m.params }

// NeedsGraph implements Model.
func (m *GCN) NeedsGraph() bool { return true }

// Forward implements Model.
func (m *GCN) Forward(tp *ad.Tape, in Input, rng *rand.Rand, train bool) *Forward {
	if in.S == nil {
		panic("nn: GCN forward without propagation operator")
	}
	nodes := paramNodes(tp, m.params)
	var hidden []*ad.Node
	layers := len(m.dims) - 1
	var z *ad.Node
	for l := 0; l < layers; l++ {
		if l == 0 {
			// Layer 1 uses the cached propagated features:
			// S̃·(X·W⁰) = (S̃X)·W⁰ with S̃X constant per client.
			z = m.prop.propagated(in.S, in.X).mul(tp, nodes[0])
		} else {
			z = tp.SpMM(in.S, tp.MatMul(z, nodes[l]))
		}
		if l+1 < layers {
			z = tp.ReLU(z)
			hidden = append(hidden, z)
			z = tp.Dropout(z, m.dropout, rng, train)
		}
	}
	return &Forward{Logits: z, Hidden: hidden, ParamNodes: nodes}
}

// OrthoGCN is the paper's local model (Table 1): a GCNConv from input to
// hidden width, (hiddenLayers−1) square OrthoConv layers whose weights carry
// the orthogonality penalty of eq. 6 and are spectrally normalised in the
// forward pass (Q̃ = Q/‖Q‖_F, eq. 8), and a closing GCNConv to the output
// classes.
type OrthoGCN struct {
	params        *Params
	hiddenLayers  int
	dims          [3]int // in, hidden, out
	dropout       float64
	spectralBound bool
	prop          propCache
}

// SetSpectralBound toggles the Q̃ = Q/‖Q‖ bounding of the OrthoConv weights
// in the forward pass (on by default). Exposed for the design ablation.
func (m *OrthoGCN) SetSpectralBound(on bool) { m.spectralBound = on }

// SpectralBound reports whether the forward pass bounds the OrthoConv
// weights by their spectral norm.
func (m *OrthoGCN) SpectralBound() bool { return m.spectralBound }

// NewOrthoGCN builds the Table 1 model. hiddenLayers is the number of hidden
// representations (the paper's "2-hidden" default means hiddenLayers = 2:
// one GCNConv plus one OrthoConv before the output GCNConv).
func NewOrthoGCN(rng *rand.Rand, in, hidden, out, hiddenLayers int, dropout float64) (*OrthoGCN, error) {
	if hiddenLayers < 1 {
		return nil, fmt.Errorf("nn: OrthoGCN needs at least one hidden layer, got %d", hiddenLayers)
	}
	if in <= 0 || hidden <= 0 || out <= 0 {
		return nil, fmt.Errorf("nn: OrthoGCN dims must be positive: %d %d %d", in, hidden, out)
	}
	ps := NewParams()
	ps.Add("w_in", mat.Xavier(rng, in, hidden))
	for l := 1; l < hiddenLayers; l++ {
		// OrthoConv weights start on the orthogonal manifold (Newton–Schulz
		// projection of a Xavier draw): an orthogonal middle layer is
		// initially an isometry, so depth neither contracts nor distorts the
		// signal, and the orthogonality penalty only has to keep the weight
		// near the manifold rather than find it.
		w := mat.Xavier(rng, hidden, hidden)
		if q, err := mat.NewtonSchulz(w, 40); err == nil {
			w = q
		}
		ps.Add(fmt.Sprintf("w_ortho%d", l), w)
	}
	ps.Add("w_out", mat.Xavier(rng, hidden, out))
	return &OrthoGCN{
		params:        ps,
		hiddenLayers:  hiddenLayers,
		dims:          [3]int{in, hidden, out},
		dropout:       dropout,
		spectralBound: true,
	}, nil
}

// Params implements Model.
func (m *OrthoGCN) Params() *Params { return m.params }

// NeedsGraph implements Model.
func (m *OrthoGCN) NeedsGraph() bool { return true }

// HiddenLayers returns the number of hidden representations the model emits.
func (m *OrthoGCN) HiddenLayers() int { return m.hiddenLayers }

// Forward implements Model. Hidden gets exactly hiddenLayers entries:
// Z^1 (after the input GCNConv) and one per OrthoConv.
func (m *OrthoGCN) Forward(tp *ad.Tape, in Input, rng *rand.Rand, train bool) *Forward {
	if in.S == nil {
		panic("nn: OrthoGCN forward without propagation operator")
	}
	nodes := paramNodes(tp, m.params)
	// Layer 1: Z¹ = σ(S̃ X W⁰) = σ((S̃X) W⁰)  (eq. 7) — S̃X is constant per
	// client, so it is propagated once and cached; the rewrite drops one
	// SpMM from every forward and one Sᵀ·G from every backward.
	z := tp.ReLU(m.prop.propagated(in.S, in.X).mul(tp, nodes[0]))
	hidden := []*ad.Node{z}
	var orthoNodes []*ad.Node
	z = tp.Dropout(z, m.dropout, rng, train)
	// Middle layers: Z^l = σ(S̃ Z^{l-1} W̃^l) with spectrally bounded square
	// weights (eq. 8 with the learnable Q realised as a d_h×d_h weight; see
	// Table 1's OrthoConv rows). The bound divides by the spectral norm when
	// it exceeds 1; as the orthogonality penalty drives W Wᵀ → I the largest
	// singular value approaches 1 and the bound becomes the identity, so the
	// layer neither explodes nor contracts activations.
	for l := 1; l < m.hiddenLayers; l++ {
		w := nodes[l]
		wn := w
		if m.spectralBound {
			if norm := mat.SpectralNorm(w.Value); norm > 1 {
				wn = tp.Scale(1/norm, w)
			}
		}
		// The orthogonality penalty acts on the matrix the forward pass
		// actually uses, so the loss cannot be dodged by rescaling W.
		orthoNodes = append(orthoNodes, wn)
		z = tp.ReLU(tp.SpMM(in.S, tp.MatMul(z, wn)))
		hidden = append(hidden, z)
		z = tp.Dropout(z, m.dropout, rng, train)
	}
	// Output layer: logits = S̃ Z^{L-1} W^{L} (softmax fused into the loss,
	// eq. 9).
	logits := tp.SpMM(in.S, tp.MatMul(z, nodes[len(nodes)-1]))
	return &Forward{Logits: logits, Hidden: hidden, ParamNodes: nodes, OrthoNodes: orthoNodes}
}

// HardOrthogonalize projects every OrthoConv weight onto the orthogonal
// manifold with the Newton–Schulz iteration — the alternative to the soft
// penalty, exposed for the design-choice ablation bench.
func (m *OrthoGCN) HardOrthogonalize() error {
	for _, name := range m.params.Names() {
		if len(name) < 7 || name[:7] != "w_ortho" {
			continue
		}
		w := m.params.Get(name)
		q, err := mat.NewtonSchulz(w, 30)
		if err != nil {
			return fmt.Errorf("nn: orthogonalising %s: %w", name, err)
		}
		w.CopyFrom(q)
	}
	return nil
}
