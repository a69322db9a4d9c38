package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(0, 2, 2)
	m.Set(1, 1, 3)
	if m.At(0, 0) != 1 || m.At(0, 2) != 2 || m.At(1, 1) != 3 {
		t.Error("Set/At broken")
	}
	out := m.MulVec([]float64{1, 1, 1})
	if out[0] != 3 || out[1] != 3 {
		t.Errorf("MulVec = %v", out)
	}
	m.Zero()
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("Zero did not clear")
		}
	}
}

func TestMulVecDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MulVec with wrong dimension should panic")
		}
	}()
	NewMatrix(2, 3).MulVec([]float64{1})
}

// TestTransposeAdjointProperty: ⟨A·x, g⟩ = ⟨x, Aᵀ·g⟩ — validates that
// MulVecT really is the adjoint of MulVec (the identity backprop relies
// on).
func TestTransposeAdjointProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(6), 1+rng.Intn(6)
		m := NewMatrix(rows, cols)
		m.GlorotInit(rng)
		x := make([]float64, cols)
		g := make([]float64, rows)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range g {
			g[i] = rng.NormFloat64()
		}
		ax := m.MulVec(x)
		atg := m.MulVecT(g)
		var lhs, rhs float64
		for i := range g {
			lhs += ax[i] * g[i]
		}
		for i := range x {
			rhs += x[i] * atg[i]
		}
		return math.Abs(lhs-rhs) < 1e-9*(1+math.Abs(lhs))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAddOuter(t *testing.T) {
	m := NewMatrix(2, 2)
	m.AddOuter([]float64{1, 2}, []float64{3, 4})
	want := []float64{3, 4, 6, 8}
	for i, v := range m.Data {
		if v != want[i] {
			t.Fatalf("AddOuter = %v, want %v", m.Data, want)
		}
	}
}

func TestReLUAndGrad(t *testing.T) {
	out := ReLU([]float64{-1, 0, 2})
	if out[0] != 0 || out[1] != 0 || out[2] != 2 {
		t.Errorf("ReLU = %v", out)
	}
	g := ReLUGrad([]float64{5, 5, 5}, out)
	if g[0] != 0 || g[1] != 0 || g[2] != 5 {
		t.Errorf("ReLUGrad = %v", g)
	}
}

func TestTanhAndGrad(t *testing.T) {
	y := Tanh([]float64{0, 1000, -1000})
	if y[0] != 0 || y[1] < 0.999 || y[2] > -0.999 {
		t.Errorf("Tanh = %v", y)
	}
	g := TanhGrad([]float64{1, 1, 1}, y)
	if g[0] != 1 { // tanh'(0) = 1
		t.Errorf("TanhGrad at 0 = %v", g[0])
	}
	if g[1] > 0.01 {
		t.Errorf("TanhGrad at saturation = %v", g[1])
	}
}

// TestSoftmaxProperties: probabilities sum to 1, are positive, and are
// shift-invariant.
func TestSoftmaxProperties(t *testing.T) {
	prop := func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) ||
			math.Abs(a) > 500 || math.Abs(b) > 500 || math.Abs(c) > 500 {
			return true
		}
		p := Softmax([]float64{a, b, c})
		sum := p[0] + p[1] + p[2]
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		for _, v := range p {
			if v < 0 || v > 1 {
				return false
			}
		}
		// shift invariance
		q := Softmax([]float64{a + 7, b + 7, c + 7})
		for i := range p {
			if math.Abs(p[i]-q[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestAdamMinimizesQuadratic(t *testing.T) {
	// minimize f(x) = (x-3)², gradient 2(x-3)
	param := []float64{10}
	grad := []float64{0}
	opt := NewAdam(0.1)
	opt.Register(param, grad)
	for i := 0; i < 500; i++ {
		grad[0] = 2 * (param[0] - 3)
		opt.Step()
	}
	if math.Abs(param[0]-3) > 0.01 {
		t.Errorf("Adam converged to %v, want 3", param[0])
	}
}

func TestAdamZeroesGradients(t *testing.T) {
	param := []float64{1}
	grad := []float64{5}
	opt := NewAdam(0.01)
	opt.Register(param, grad)
	opt.Step()
	if grad[0] != 0 {
		t.Error("Step must zero the gradient buffer")
	}
}

func TestAdamRegisterMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched register should panic")
		}
	}()
	NewAdam(0.1).Register([]float64{1, 2}, []float64{1})
}

func TestVecAdd(t *testing.T) {
	a := []float64{1, 2}
	VecAdd(a, []float64{10, 20})
	if a[0] != 11 || a[1] != 22 {
		t.Errorf("VecAdd = %v", a)
	}
}

func TestL2(t *testing.T) {
	if got := L2([]float64{3, 4}); got != 5 {
		t.Errorf("L2 = %v", got)
	}
}

func TestCosine(t *testing.T) {
	if got := Cosine([]float64{1, 0}, []float64{1, 0}); math.Abs(got-1) > 1e-12 {
		t.Errorf("cos(same) = %v", got)
	}
	if got := Cosine([]float64{1, 0}, []float64{0, 1}); math.Abs(got) > 1e-12 {
		t.Errorf("cos(orthogonal) = %v", got)
	}
	if got := Cosine([]float64{1, 0}, []float64{-1, 0}); math.Abs(got+1) > 1e-12 {
		t.Errorf("cos(opposite) = %v", got)
	}
	if got := Cosine([]float64{0, 0}, []float64{1, 0}); got != 0 {
		t.Errorf("cos(zero vector) = %v, want 0", got)
	}
}

func TestGlorotInitBounded(t *testing.T) {
	m := NewMatrix(10, 10)
	m.GlorotInit(rand.New(rand.NewSource(1)))
	limit := math.Sqrt(6.0 / 20)
	nonzero := false
	for _, v := range m.Data {
		if math.Abs(v) > limit {
			t.Fatalf("init value %v exceeds Glorot limit %v", v, limit)
		}
		if v != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Error("init left matrix at zero")
	}
}

// TestMulVecAddMatchesPlainLoop: the unrolled MulVecAdd adds each row's
// products in the same order as a plain loop, so the sums are the same
// bits — at column counts below, at and past the unroll width, and at a
// hidden-layer width.
func TestMulVecAddMatchesPlainLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, cols := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 64} {
		for trial := 0; trial < 20; trial++ {
			m := NewMatrix(5, cols)
			for i := range m.Data {
				m.Data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
			}
			x := make([]float64, cols)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			got := make([]float64, m.Rows)
			want := make([]float64, m.Rows)
			for i := range got {
				got[i] = rng.NormFloat64()
				want[i] = got[i]
			}
			m.MulVecAdd(got, x)
			for i := range want {
				var s float64
				for j := 0; j < cols; j++ {
					s += m.At(i, j) * x[j]
				}
				want[i] += s
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("cols=%d trial %d row %d: %v (%#x), plain loop %v (%#x)",
						cols, trial, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	}
}
