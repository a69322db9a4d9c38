// Package treecnn implements the smart router: a lightweight tree-CNN
// classifier over execution-plan pairs that predicts which engine (TP or
// AP) will run a query faster, in the style of learned optimizers such as
// Bao (tree convolution + dynamic pooling). Per the paper (§III-A), the
// router doubles as the plan embedder for RAG retrieval: its penultimate
// activations yield an 8-dim embedding per plan, concatenated into the
// 16-dim plan-pair encoding the knowledge base keys on. The model is tiny
// (well under 1 MB) and inference is sub-millisecond.
//
// Two passes compute the one network. Inference (embed, behind Embed,
// EmbedPair and Predict) walks the plan once, keeps a node's features and
// activations on the stack only until its parent has used them, folds the
// max pool into the walk and allocates nothing per node. Training
// (forwardPlan) does the same arithmetic over the flattened tree and keeps
// every activation, because backwardPlan needs them. Both skip the kernels
// of a child that is absent, and they agree to the last bit
// (TestInferenceMatchesTrainingForward). The classifier head works on the
// pair encoding alone: Classify applies it to an encoding the caller
// already holds, Predict is EmbedPair then Classify.
package treecnn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"

	"htapxplain/internal/nn"
	"htapxplain/internal/plan"
)

// Architecture dimensions.
const (
	// FeatDim is the per-node feature width: one-hot operator type plus
	// scalar features (log rows, log cost, uses-index, is-leaf, fanout).
	FeatDim = plan.NumOps + 5
	h1Dim   = 32
	h2Dim   = 16
	// EmbedDim is the per-plan embedding width.
	EmbedDim = 8
	// PairDim is the plan-pair encoding width (paper: "the plan pair
	// encoding is a 16-dim vector").
	PairDim = 2 * EmbedDim
)

// Router is the tree-CNN smart router.
type Router struct {
	// tree-conv layer 1 (parent / left-child / right-child kernels)
	w1t, w1l, w1r *nn.Matrix
	b1            []float64
	// tree-conv layer 2
	w2t, w2l, w2r *nn.Matrix
	b2            []float64
	// embedding head (per plan)
	we *nn.Matrix
	be []float64
	// classifier head (per pair)
	wc *nn.Matrix
	bc []float64

	// gradients (same shapes)
	gw1t, gw1l, gw1r *nn.Matrix
	gb1              []float64
	gw2t, gw2l, gw2r *nn.Matrix
	gb2              []float64
	gwe              *nn.Matrix
	gbe              []float64
	gwc              *nn.Matrix
	gbc              []float64

	adam *nn.Adam
}

// New returns a router with deterministic Glorot initialization.
func New(seed int64) *Router {
	rng := rand.New(rand.NewSource(seed))
	r := &Router{
		w1t: nn.NewMatrix(h1Dim, FeatDim), w1l: nn.NewMatrix(h1Dim, FeatDim), w1r: nn.NewMatrix(h1Dim, FeatDim),
		b1:  make([]float64, h1Dim),
		w2t: nn.NewMatrix(h2Dim, h1Dim), w2l: nn.NewMatrix(h2Dim, h1Dim), w2r: nn.NewMatrix(h2Dim, h1Dim),
		b2: make([]float64, h2Dim),
		we: nn.NewMatrix(EmbedDim, h2Dim), be: make([]float64, EmbedDim),
		wc: nn.NewMatrix(2, PairDim), bc: make([]float64, 2),
	}
	for _, m := range []*nn.Matrix{r.w1t, r.w1l, r.w1r, r.w2t, r.w2l, r.w2r, r.we, r.wc} {
		m.GlorotInit(rng)
	}
	r.gw1t, r.gw1l, r.gw1r = nn.NewMatrix(h1Dim, FeatDim), nn.NewMatrix(h1Dim, FeatDim), nn.NewMatrix(h1Dim, FeatDim)
	r.gb1 = make([]float64, h1Dim)
	r.gw2t, r.gw2l, r.gw2r = nn.NewMatrix(h2Dim, h1Dim), nn.NewMatrix(h2Dim, h1Dim), nn.NewMatrix(h2Dim, h1Dim)
	r.gb2 = make([]float64, h2Dim)
	r.gwe, r.gbe = nn.NewMatrix(EmbedDim, h2Dim), make([]float64, EmbedDim)
	r.gwc, r.gbc = nn.NewMatrix(2, PairDim), make([]float64, 2)

	r.adam = nn.NewAdam(0.003)
	r.adam.Register(r.w1t.Data, r.gw1t.Data)
	r.adam.Register(r.w1l.Data, r.gw1l.Data)
	r.adam.Register(r.w1r.Data, r.gw1r.Data)
	r.adam.Register(r.b1, r.gb1)
	r.adam.Register(r.w2t.Data, r.gw2t.Data)
	r.adam.Register(r.w2l.Data, r.gw2l.Data)
	r.adam.Register(r.w2r.Data, r.gw2r.Data)
	r.adam.Register(r.b2, r.gb2)
	r.adam.Register(r.we.Data, r.gwe.Data)
	r.adam.Register(r.be, r.gbe)
	r.adam.Register(r.wc.Data, r.gwc.Data)
	r.adam.Register(r.bc, r.gbc)
	return r
}

// NumParams returns the total parameter count.
func (r *Router) NumParams() int {
	n := len(r.b1) + len(r.b2) + len(r.be) + len(r.bc)
	for _, m := range []*nn.Matrix{r.w1t, r.w1l, r.w1r, r.w2t, r.w2l, r.w2r, r.we, r.wc} {
		n += len(m.Data)
	}
	return n
}

// ModelBytes returns the serialized model size in bytes (float64 params).
// The paper claims "< 1 MB"; this model is a few tens of KB.
func (r *Router) ModelBytes() int { return r.NumParams() * 8 }

// -------------------------------------------------------- featurization

// flatNode is one node of a binarized, flattened plan tree.
type flatNode struct {
	feat        []float64
	left, right int // indices into the flat slice; -1 when absent
}

// Featurize converts a plan node into its feature vector.
func Featurize(n *plan.Node) []float64 {
	x := make([]float64, FeatDim)
	featurize(x, n)
	return x
}

// featurize fills x, zero and FeatDim long, with n's features.
func featurize(x []float64, n *plan.Node) {
	x[int(n.Op)] = 1
	base := plan.NumOps
	x[base+0] = math.Log1p(n.Rows) / 25.0
	x[base+1] = math.Log1p(n.Cost) / 25.0
	if n.UsesIndex {
		x[base+2] = 1
	}
	if len(n.Children) == 0 {
		x[base+3] = 1
	}
	x[base+4] = float64(len(n.Children)) / 2.0
}

// flatten binarizes the tree into a post-ordered slice (children precede
// parents) so forward passes can iterate linearly.
func flatten(n *plan.Node) []flatNode {
	var out []flatNode
	var rec func(x *plan.Node) int
	rec = func(x *plan.Node) int {
		left, right := -1, -1
		if len(x.Children) >= 1 {
			left = rec(x.Children[0])
		}
		if len(x.Children) >= 2 {
			right = rec(x.Children[1])
		}
		out = append(out, flatNode{feat: Featurize(x), left: left, right: right})
		return len(out) - 1
	}
	rec(n)
	return out
}

// -------------------------------------------------------- forward

// planActs stores per-plan forward activations for backprop.
type planActs struct {
	nodes  []flatNode
	h1, h2 [][]float64
	pool   []float64
	argmax []int // node index per pooled dim
	preEmb []float64
	emb    []float64
}

// forwardPlan is the training pass: embed's arithmetic over the flattened
// tree, with every activation kept for backwardPlan.
func (r *Router) forwardPlan(n *plan.Node) *planActs {
	nodes := flatten(n)
	a := &planActs{nodes: nodes,
		h1: make([][]float64, len(nodes)), h2: make([][]float64, len(nodes))}
	for i, nd := range nodes {
		pre := r.w1t.MulVec(nd.feat)
		if nd.left >= 0 {
			r.w1l.MulVecAdd(pre, nodes[nd.left].feat)
		}
		if nd.right >= 0 {
			r.w1r.MulVecAdd(pre, nodes[nd.right].feat)
		}
		nn.VecAdd(pre, r.b1)
		a.h1[i] = nn.ReLU(pre)
	}
	for i, nd := range nodes {
		pre := r.w2t.MulVec(a.h1[i])
		if nd.left >= 0 {
			r.w2l.MulVecAdd(pre, a.h1[nd.left])
		}
		if nd.right >= 0 {
			r.w2r.MulVecAdd(pre, a.h1[nd.right])
		}
		nn.VecAdd(pre, r.b2)
		a.h2[i] = nn.ReLU(pre)
	}
	// dynamic max pooling
	a.pool = make([]float64, h2Dim)
	a.argmax = make([]int, h2Dim)
	for d := 0; d < h2Dim; d++ {
		best, bestI := a.h2[0][d], 0
		for i := 1; i < len(nodes); i++ {
			if a.h2[i][d] > best {
				best, bestI = a.h2[i][d], i
			}
		}
		a.pool[d], a.argmax[d] = best, bestI
	}
	a.preEmb = r.we.MulVec(a.pool)
	nn.VecAdd(a.preEmb, r.be)
	a.emb = nn.Tanh(a.preEmb)
	return a
}

// -------------------------------------------------------- inference

// embed is the inference pass: it writes n's embedding into dst (EmbedDim
// long) and allocates nothing. It visits the nodes in the order flatten
// lays them out and does forwardPlan's arithmetic operation for operation,
// so the two agree to the last bit — but a node's features and first-layer
// activation live on the stack only until its parent has used them, the
// second layer is folded into the running max pool (activations are never
// negative, so the pool may start at zero), and an absent child's kernel
// is skipped where the training pass of old multiplied it by zeros.
func (r *Router) embed(dst []float64, n *plan.Node) {
	var pool [h2Dim]float64
	r.convolve(n, &pool)
	var pre [EmbedDim]float64
	r.we.MulVecAdd(pre[:], pool[:])
	for i, v := range pre {
		dst[i] = math.Tanh(v + r.be[i])
	}
}

// convolve runs both tree-convolution layers over the subtree under n,
// pooling the second into pool, and returns n's features and first-layer
// activation for its parent.
func (r *Router) convolve(n *plan.Node, pool *[h2Dim]float64) (feat [FeatDim]float64, h1 [h1Dim]float64) {
	var lFeat, rFeat [FeatDim]float64
	var lH1, rH1 [h1Dim]float64
	left, right := len(n.Children) >= 1, len(n.Children) >= 2
	if left {
		lFeat, lH1 = r.convolve(n.Children[0], pool)
	}
	if right {
		rFeat, rH1 = r.convolve(n.Children[1], pool)
	}
	featurize(feat[:], n)
	r.w1t.MulVecAdd(h1[:], feat[:])
	if left {
		r.w1l.MulVecAdd(h1[:], lFeat[:])
	}
	if right {
		r.w1r.MulVecAdd(h1[:], rFeat[:])
	}
	for i, v := range h1 {
		h1[i] = max(v+r.b1[i], 0)
	}
	var h2 [h2Dim]float64
	r.w2t.MulVecAdd(h2[:], h1[:])
	if left {
		r.w2l.MulVecAdd(h2[:], lH1[:])
	}
	if right {
		r.w2r.MulVecAdd(h2[:], rH1[:])
	}
	for d, v := range h2 {
		pool[d] = max(pool[d], v+r.b2[d])
	}
	return feat, h1
}

// Embed returns the 8-dim embedding of a single plan.
func (r *Router) Embed(n *plan.Node) []float64 {
	out := make([]float64, EmbedDim)
	r.embed(out, n)
	return out
}

// EmbedPair returns the 16-dim plan-pair encoding: concat(TP embedding,
// AP embedding). This is the knowledge-base key.
func (r *Router) EmbedPair(p *plan.Pair) []float64 {
	out := make([]float64, PairDim)
	r.embed(out[:EmbedDim], p.TP)
	r.embed(out[EmbedDim:], p.AP)
	return out
}

// Predict classifies the pair, returning the predicted faster engine and
// the class probabilities [P(TP), P(AP)].
func (r *Router) Predict(p *plan.Pair) (plan.Engine, [2]float64) {
	return r.Classify(r.EmbedPair(p))
}

// Classify applies the classifier head to a plan-pair encoding (what
// EmbedPair returns): Predict for a caller that already holds the encoding.
func (r *Router) Classify(encoding []float64) (plan.Engine, [2]float64) {
	probs := r.classProbs(encoding)
	eng := plan.TP
	if probs[1] > probs[0] {
		eng = plan.AP
	}
	return eng, [2]float64{probs[0], probs[1]}
}

// classProbs is the classifier head: softmax(wc · encoding + bc).
func (r *Router) classProbs(encoding []float64) []float64 {
	z := r.wc.MulVec(encoding)
	nn.VecAdd(z, r.bc)
	return nn.Softmax(z)
}

// -------------------------------------------------------- training

// Sample is one labelled training example.
type Sample struct {
	Pair  *plan.Pair
	Label plan.Engine // the engine that actually ran faster
}

// TrainReport summarizes a training run.
type TrainReport struct {
	Epochs    int
	FinalLoss float64
	TrainAcc  float64
}

// Train runs minibatch Adam for the given number of epochs over the
// samples (shuffled deterministically by seed).
func (r *Router) Train(samples []Sample, epochs int, seed int64) TrainReport {
	if len(samples) == 0 {
		return TrainReport{}
	}
	rng := rand.New(rand.NewSource(seed))
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	const batch = 8
	var lastLoss float64
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		inBatch := 0
		for _, idx := range order {
			s := samples[idx]
			epochLoss += r.backward(s)
			inBatch++
			if inBatch == batch {
				r.adam.Step()
				inBatch = 0
			}
		}
		if inBatch > 0 {
			r.adam.Step()
		}
		lastLoss = epochLoss / float64(len(samples))
	}
	correct := 0
	for _, s := range samples {
		if got, _ := r.Predict(s.Pair); got == s.Label {
			correct++
		}
	}
	return TrainReport{Epochs: epochs, FinalLoss: lastLoss,
		TrainAcc: float64(correct) / float64(len(samples))}
}

// backward accumulates gradients for one sample and returns its loss.
func (r *Router) backward(s Sample) float64 {
	tp := r.forwardPlan(s.Pair.TP)
	ap := r.forwardPlan(s.Pair.AP)
	pair := append(append([]float64{}, tp.emb...), ap.emb...)
	probs := r.classProbs(pair)
	y := 0
	if s.Label == plan.AP {
		y = 1
	}
	loss := -math.Log(math.Max(probs[y], 1e-12))

	dz := []float64{probs[0], probs[1]}
	dz[y] -= 1
	r.gwc.AddOuter(dz, pair)
	nn.VecAdd(r.gbc, dz)
	dpair := r.wc.MulVecT(dz)
	r.backwardPlan(tp, dpair[:EmbedDim])
	r.backwardPlan(ap, dpair[EmbedDim:])
	return loss
}

// backwardPlan backpropagates an embedding gradient through one plan's
// forward activations.
func (r *Router) backwardPlan(a *planActs, demb []float64) {
	dpre := nn.TanhGrad(demb, a.emb)
	r.gwe.AddOuter(dpre, a.pool)
	nn.VecAdd(r.gbe, dpre)
	dpool := r.we.MulVecT(dpre)

	// route pooled gradient to argmax nodes
	dh2 := make([][]float64, len(a.nodes))
	for d := 0; d < h2Dim; d++ {
		i := a.argmax[d]
		if dh2[i] == nil {
			dh2[i] = make([]float64, h2Dim)
		}
		dh2[i][d] += dpool[d]
	}
	dh1 := make([][]float64, len(a.nodes))
	addH1 := func(idx int, g []float64) {
		if dh1[idx] == nil {
			dh1[idx] = make([]float64, h1Dim)
		}
		nn.VecAdd(dh1[idx], g)
	}
	// an absent child contributed nothing forward and gets no gradient
	for i := len(a.nodes) - 1; i >= 0; i-- {
		if dh2[i] == nil {
			continue
		}
		g := nn.ReLUGrad(dh2[i], a.h2[i])
		nd := a.nodes[i]
		r.gw2t.AddOuter(g, a.h1[i])
		nn.VecAdd(r.gb2, g)
		addH1(i, r.w2t.MulVecT(g))
		if nd.left >= 0 {
			r.gw2l.AddOuter(g, a.h1[nd.left])
			addH1(nd.left, r.w2l.MulVecT(g))
		}
		if nd.right >= 0 {
			r.gw2r.AddOuter(g, a.h1[nd.right])
			addH1(nd.right, r.w2r.MulVecT(g))
		}
	}
	for i := len(a.nodes) - 1; i >= 0; i-- {
		if dh1[i] == nil {
			continue
		}
		g := nn.ReLUGrad(dh1[i], a.h1[i])
		nd := a.nodes[i]
		r.gw1t.AddOuter(g, nd.feat)
		nn.VecAdd(r.gb1, g)
		if nd.left >= 0 {
			r.gw1l.AddOuter(g, a.nodes[nd.left].feat)
		}
		if nd.right >= 0 {
			r.gw1r.AddOuter(g, a.nodes[nd.right].feat)
		}
	}
}

// -------------------------------------------------------- persistence

// snapshot is the gob-serialized form of the model parameters.
type snapshot struct {
	W1t, W1l, W1r []float64
	B1            []float64
	W2t, W2l, W2r []float64
	B2            []float64
	We, Be        []float64
	Wc, Bc        []float64
}

// Save writes the model parameters to w.
func (r *Router) Save(w io.Writer) error {
	s := snapshot{
		W1t: r.w1t.Data, W1l: r.w1l.Data, W1r: r.w1r.Data, B1: r.b1,
		W2t: r.w2t.Data, W2l: r.w2l.Data, W2r: r.w2r.Data, B2: r.b2,
		We: r.we.Data, Be: r.be, Wc: r.wc.Data, Bc: r.bc,
	}
	return gob.NewEncoder(w).Encode(s)
}

// Load reads model parameters previously written by Save.
func (r *Router) Load(rd io.Reader) error {
	var s snapshot
	if err := gob.NewDecoder(rd).Decode(&s); err != nil {
		return fmt.Errorf("treecnn: decoding model: %w", err)
	}
	assign := func(dst, src []float64, name string) error {
		if len(dst) != len(src) {
			return fmt.Errorf("treecnn: %s size mismatch: have %d, want %d", name, len(src), len(dst))
		}
		copy(dst, src)
		return nil
	}
	for _, p := range []struct {
		dst, src []float64
		name     string
	}{
		{r.w1t.Data, s.W1t, "w1t"}, {r.w1l.Data, s.W1l, "w1l"}, {r.w1r.Data, s.W1r, "w1r"}, {r.b1, s.B1, "b1"},
		{r.w2t.Data, s.W2t, "w2t"}, {r.w2l.Data, s.W2l, "w2l"}, {r.w2r.Data, s.W2r, "w2r"}, {r.b2, s.B2, "b2"},
		{r.we.Data, s.We, "we"}, {r.be, s.Be, "be"}, {r.wc.Data, s.Wc, "wc"}, {r.bc, s.Bc, "bc"},
	} {
		if err := assign(p.dst, p.src, p.name); err != nil {
			return err
		}
	}
	return nil
}
