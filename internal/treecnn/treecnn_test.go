package treecnn

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"htapxplain/internal/htap"
	"htapxplain/internal/nn"
	"htapxplain/internal/plan"
	"htapxplain/internal/workload"
)

func buildSamples(t testing.TB, n int) []Sample {
	t.Helper()
	sys, err := htap.New(htap.DefaultConfig())
	if err != nil {
		t.Fatalf("htap.New: %v", err)
	}
	gen := workload.NewGenerator(7)
	var out []Sample
	for _, q := range gen.Batch(n) {
		res, err := sys.Run(q.SQL)
		if err != nil {
			t.Fatalf("Run(%q): %v", q.SQL, err)
		}
		out = append(out, Sample{Pair: &res.Pair, Label: res.Winner})
	}
	return out
}

func TestRouterLearnsToRoute(t *testing.T) {
	samples := buildSamples(t, 120)
	// both classes must be represented, or the task is trivial
	var tpCount, apCount int
	for _, s := range samples {
		if s.Label == plan.TP {
			tpCount++
		} else {
			apCount++
		}
	}
	if tpCount == 0 || apCount == 0 {
		t.Fatalf("degenerate workload: TP=%d AP=%d", tpCount, apCount)
	}
	train, test := samples[:90], samples[90:]
	r := New(1)
	rep := r.Train(train, 60, 2)
	if rep.TrainAcc < 0.9 {
		t.Errorf("train accuracy %.2f, want >= 0.9 (loss %.3f)", rep.TrainAcc, rep.FinalLoss)
	}
	correct := 0
	for _, s := range test {
		if got, _ := r.Predict(s.Pair); got == s.Label {
			correct++
		}
	}
	acc := float64(correct) / float64(len(test))
	if acc < 0.8 {
		t.Errorf("test accuracy %.2f, want >= 0.8 (paper: router has high accuracy)", acc)
	}
}

func TestEmbeddingProperties(t *testing.T) {
	samples := buildSamples(t, 20)
	r := New(1)
	r.Train(samples, 30, 2)
	for _, s := range samples {
		e := r.EmbedPair(s.Pair)
		if len(e) != PairDim {
			t.Fatalf("pair embedding dim = %d, want %d", len(e), PairDim)
		}
		for _, v := range e {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("embedding contains non-finite value: %v", e)
			}
			if v < -1 || v > 1 {
				t.Fatalf("tanh embedding out of range: %v", v)
			}
		}
	}
	// determinism: same pair, same embedding
	a := r.EmbedPair(samples[0].Pair)
	b := r.EmbedPair(samples[0].Pair)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("embedding is not deterministic")
		}
	}
}

func TestModelSizeUnder1MB(t *testing.T) {
	r := New(1)
	if r.ModelBytes() >= 1<<20 {
		t.Errorf("model is %d bytes, paper requires < 1 MB", r.ModelBytes())
	}
	if r.NumParams() == 0 {
		t.Error("model has no parameters")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	samples := buildSamples(t, 20)
	r := New(1)
	r.Train(samples, 10, 2)
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	r2 := New(99) // different init
	if err := r2.Load(&buf); err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, s := range samples {
		e1, e2 := r.EmbedPair(s.Pair), r2.EmbedPair(s.Pair)
		for i := range e1 {
			if e1[i] != e2[i] {
				t.Fatal("loaded model produces different embeddings")
			}
		}
		p1, _ := r.Predict(s.Pair)
		p2, _ := r2.Predict(s.Pair)
		if p1 != p2 {
			t.Fatal("loaded model predicts differently")
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	r := New(1)
	if err := r.Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Error("Load should fail on garbage input")
	}
}

func TestGradientCheck(t *testing.T) {
	// numeric gradient check of the classifier head on a tiny sample
	samples := buildSamples(t, 2)
	r := New(3)
	s := samples[0]

	loss := func() float64 {
		tp := r.forwardPlan(s.Pair.TP)
		ap := r.forwardPlan(s.Pair.AP)
		pair := append(append([]float64{}, tp.emb...), ap.emb...)
		z := r.wc.MulVec(pair)
		for i := range z {
			z[i] += r.bc[i]
		}
		y := 0
		if s.Label == plan.AP {
			y = 1
		}
		probs := softmaxCopy(z)
		return -math.Log(math.Max(probs[y], 1e-12))
	}

	r.backward(s)
	analytic := make([]float64, len(r.gwc.Data))
	copy(analytic, r.gwc.Data)
	r.gwc.Zero() // keep optimizer state clean

	const eps = 1e-5
	for _, idx := range []int{0, 3, 7, 15, 20, 31} {
		orig := r.wc.Data[idx]
		r.wc.Data[idx] = orig + eps
		lp := loss()
		r.wc.Data[idx] = orig - eps
		lm := loss()
		r.wc.Data[idx] = orig
		numeric := (lp - lm) / (2 * eps)
		if diff := math.Abs(numeric - analytic[idx]); diff > 1e-4*(1+math.Abs(numeric)) {
			t.Errorf("gradient mismatch at wc[%d]: analytic %g, numeric %g", idx, analytic[idx], numeric)
		}
	}
}

func softmaxCopy(z []float64) []float64 {
	max := z[0]
	for _, v := range z[1:] {
		if v > max {
			max = v
		}
	}
	var sum float64
	out := make([]float64, len(z))
	for i, v := range z {
		out[i] = math.Exp(v - max)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// TestInferenceMatchesTrainingForward: the allocation-free inference pass
// and the training pass are one function computed two ways. On a trained
// router they must agree with == over the plan pair of every workload
// template, the rare ones included.
func TestInferenceMatchesTrainingForward(t *testing.T) {
	sys, err := htap.New(htap.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	var samples []Sample
	seen := map[string]bool{}
	// the test generator's cycle is 24 long and holds every template
	for _, q := range workload.NewTestGenerator(5).Batch(48) {
		res, err := sys.Run(q.SQL)
		if err != nil {
			t.Fatalf("Run(%q): %v", q.SQL, err)
		}
		samples = append(samples, Sample{Pair: &res.Pair, Label: res.Winner})
		seen[q.Template] = true
	}
	if len(seen) != 14 {
		t.Fatalf("covered %d templates, want all 14", len(seen))
	}
	r := New(1)
	r.Train(samples, 20, 2)
	for i, s := range samples {
		got := r.EmbedPair(s.Pair)
		want := append(append([]float64{}, r.forwardPlan(s.Pair.TP).emb...), r.forwardPlan(s.Pair.AP).emb...)
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("sample %d dim %d: inference %v, training forward %v", i, d, got[d], want[d])
			}
		}
		if single := r.Embed(s.Pair.AP); !slices.Equal(single, want[EmbedDim:]) {
			t.Fatalf("sample %d: Embed(AP) = %v, want %v", i, single, want[EmbedDim:])
		}
		eng, probs := r.Predict(s.Pair)
		if e2, p2 := r.Classify(got); e2 != eng || p2 != probs {
			t.Fatalf("sample %d: Classify(EmbedPair) = %v %v, Predict = %v %v", i, e2, p2, eng, probs)
		}
	}
}

// TestTrainMatchesOldForward: skipping an absent child's kernel, forward
// and backward, adds and removes exact zeros only, so training on a fixed
// seed must yield the very bytes the old passes yield — which keeps the
// curated knowledge base and every retrieval what they were.
func TestTrainMatchesOldForward(t *testing.T) {
	samples := buildSamples(t, 40)
	const epochs, seed = 8, 2
	r := New(1)
	r.Train(samples, epochs, seed)
	ref := New(1)
	ref.refTrain(samples, epochs, seed)
	var got, want bytes.Buffer
	if err := r.Save(&got); err != nil {
		t.Fatal(err)
	}
	if err := ref.Save(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("Train and the reference Train over the old forward pass produced different models")
	}
}

func TestEmbedPairAllocs(t *testing.T) {
	samples := buildSamples(t, 10)
	r := New(1)
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		r.EmbedPair(samples[i%len(samples)].Pair)
		i++
	})
	if allocs > 4 {
		t.Errorf("EmbedPair allocates %.1f times per call, want <= 4", allocs)
	}
}

func BenchmarkEmbedPair(b *testing.B) {
	samples := buildSamples(b, 10)
	r := New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.EmbedPair(samples[i%len(samples)].Pair)
	}
}

func BenchmarkTrainEpoch(b *testing.B) {
	samples := buildSamples(b, 40)
	r := New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Train(samples, 1, 2)
	}
}

// ---- the reference: the training passes as they were before absent
// children were skipped. Every node multiplies all three kernels of both
// layers, an absent child standing as a fresh zero vector, and the
// backward pass accumulates the matching zero outer products.

func refMulVec(m *nn.Matrix, x []float64) []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var s float64
		for j, v := range m.Data[i*m.Cols : (i+1)*m.Cols] {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

func (r *Router) refForwardPlan(n *plan.Node) *planActs {
	nodes := flatten(n)
	a := &planActs{nodes: nodes,
		h1: make([][]float64, len(nodes)), h2: make([][]float64, len(nodes))}
	child := func(idx, dim int, of func(int) []float64) []float64 {
		if idx < 0 {
			return make([]float64, dim)
		}
		return of(idx)
	}
	feat := func(i int) []float64 { return nodes[i].feat }
	h1 := func(i int) []float64 { return a.h1[i] }
	for i, nd := range nodes {
		pre := refMulVec(r.w1t, nd.feat)
		nn.VecAdd(pre, refMulVec(r.w1l, child(nd.left, FeatDim, feat)))
		nn.VecAdd(pre, refMulVec(r.w1r, child(nd.right, FeatDim, feat)))
		nn.VecAdd(pre, r.b1)
		a.h1[i] = nn.ReLU(pre)
	}
	for i, nd := range nodes {
		pre := refMulVec(r.w2t, a.h1[i])
		nn.VecAdd(pre, refMulVec(r.w2l, child(nd.left, h1Dim, h1)))
		nn.VecAdd(pre, refMulVec(r.w2r, child(nd.right, h1Dim, h1)))
		nn.VecAdd(pre, r.b2)
		a.h2[i] = nn.ReLU(pre)
	}
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
	a.preEmb = refMulVec(r.we, a.pool)
	nn.VecAdd(a.preEmb, r.be)
	a.emb = nn.Tanh(a.preEmb)
	return a
}

func (r *Router) refBackwardPlan(a *planActs, demb []float64) {
	dpre := nn.TanhGrad(demb, a.emb)
	r.gwe.AddOuter(dpre, a.pool)
	nn.VecAdd(r.gbe, dpre)
	dpool := r.we.MulVecT(dpre)
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
		if idx < 0 {
			return
		}
		if dh1[idx] == nil {
			dh1[idx] = make([]float64, h1Dim)
		}
		nn.VecAdd(dh1[idx], g)
	}
	zeroH1 := make([]float64, h1Dim)
	for i := len(a.nodes) - 1; i >= 0; i-- {
		if dh2[i] == nil {
			continue
		}
		g := nn.ReLUGrad(dh2[i], a.h2[i])
		nd := a.nodes[i]
		left, right := zeroH1, zeroH1
		if nd.left >= 0 {
			left = a.h1[nd.left]
		}
		if nd.right >= 0 {
			right = a.h1[nd.right]
		}
		r.gw2t.AddOuter(g, a.h1[i])
		r.gw2l.AddOuter(g, left)
		r.gw2r.AddOuter(g, right)
		nn.VecAdd(r.gb2, g)
		addH1(i, r.w2t.MulVecT(g))
		addH1(nd.left, r.w2l.MulVecT(g))
		addH1(nd.right, r.w2r.MulVecT(g))
	}
	zeroF := make([]float64, FeatDim)
	for i := len(a.nodes) - 1; i >= 0; i-- {
		if dh1[i] == nil {
			continue
		}
		g := nn.ReLUGrad(dh1[i], a.h1[i])
		nd := a.nodes[i]
		left, right := zeroF, zeroF
		if nd.left >= 0 {
			left = a.nodes[nd.left].feat
		}
		if nd.right >= 0 {
			right = a.nodes[nd.right].feat
		}
		r.gw1t.AddOuter(g, nd.feat)
		r.gw1l.AddOuter(g, left)
		r.gw1r.AddOuter(g, right)
		nn.VecAdd(r.gb1, g)
	}
}

// refTrain is Train's schedule over the reference passes.
func (r *Router) refTrain(samples []Sample, epochs int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	const batch = 8
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		inBatch := 0
		for _, idx := range order {
			s := samples[idx]
			tp := r.refForwardPlan(s.Pair.TP)
			ap := r.refForwardPlan(s.Pair.AP)
			pair := append(append([]float64{}, tp.emb...), ap.emb...)
			z := refMulVec(r.wc, pair)
			nn.VecAdd(z, r.bc)
			probs := nn.Softmax(z)
			dz := []float64{probs[0], probs[1]}
			if s.Label == plan.AP {
				dz[1]--
			} else {
				dz[0]--
			}
			r.gwc.AddOuter(dz, pair)
			nn.VecAdd(r.gbc, dz)
			dpair := r.wc.MulVecT(dz)
			r.refBackwardPlan(tp, dpair[:EmbedDim])
			r.refBackwardPlan(ap, dpair[EmbedDim:])
			if inBatch++; inBatch == batch {
				r.adam.Step()
				inBatch = 0
			}
		}
		if inBatch > 0 {
			r.adam.Step()
		}
	}
}
