// Package nn is a minimal neural-network substrate (stdlib only) used by
// the tree-CNN smart router: dense matrices, deterministic initialization,
// and an Adam optimizer over flat parameter buffers. Backpropagation is
// implemented manually by the router for its fixed architecture; this
// package supplies the linear algebra and the parameter update rule.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i,j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i,j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// MulVec computes m · x.
func (m *Matrix) MulVec(x []float64) []float64 {
	out := make([]float64, m.Rows)
	m.MulVecAdd(out, x)
	return out
}

// MulVecAdd accumulates m · x into dst, allocating nothing. Each row's
// product is summed on its own and then added, so a MulVecAdd into a zero
// dst equals MulVec, and a chain of them equals MulVec plus VecAdd.
func (m *Matrix) MulVecAdd(dst, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("nn: MulVecAdd dimension mismatch: %dx%d matrix, %d vec, %d dst", m.Rows, m.Cols, len(x), len(dst)))
	}
	for i := range dst {
		row, xs := m.Data[i*m.Cols:(i+1)*m.Cols], x[:m.Cols]
		// one accumulator, added left to right like a plain loop, so the
		// sum is bit-identical to one; unrolled 4-way for fewer branches
		// and bounds checks
		var s float64
		j := 0
		for ; j+4 <= len(row); j += 4 {
			r, v := row[j:j+4:j+4], xs[j:j+4:j+4]
			s += r[0] * v[0]
			s += r[1] * v[1]
			s += r[2] * v[2]
			s += r[3] * v[3]
		}
		for ; j < len(row); j++ {
			s += row[j] * xs[j]
		}
		dst[i] += s
	}
}

// MulVecT computes mᵀ · g (used for gradient backflow).
func (m *Matrix) MulVecT(g []float64) []float64 {
	if len(g) != m.Rows {
		panic(fmt.Sprintf("nn: MulVecT dimension mismatch: %d rows vs %d vec", m.Rows, len(g)))
	}
	out := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		gi := g[i]
		if gi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			out[j] += v * gi
		}
	}
	return out
}

// AddOuter accumulates g ⊗ x into m (gradient of a linear layer).
func (m *Matrix) AddOuter(g, x []float64) {
	if len(g) != m.Rows || len(x) != m.Cols {
		panic("nn: AddOuter dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		gi := g[i]
		if gi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j := range row {
			row[j] += gi * x[j]
		}
	}
}

// GlorotInit fills the matrix with Glorot-uniform values from rng.
func (m *Matrix) GlorotInit(rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(m.Rows+m.Cols))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}

// Zero clears the matrix in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// VecAdd adds b into a in place.
func VecAdd(a, b []float64) {
	for i := range a {
		a[i] += b[i]
	}
}

// ReLU applies max(0,·) element-wise, returning a new slice.
func ReLU(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		if v > 0 {
			out[i] = v
		}
	}
	return out
}

// ReLUGrad masks gradient g by the activation's positivity.
func ReLUGrad(g, activated []float64) []float64 {
	out := make([]float64, len(g))
	for i := range g {
		if activated[i] > 0 {
			out[i] = g[i]
		}
	}
	return out
}

// Tanh applies tanh element-wise, returning a new slice.
func Tanh(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = math.Tanh(v)
	}
	return out
}

// TanhGrad computes g * (1 - y²) where y is the tanh output.
func TanhGrad(g, y []float64) []float64 {
	out := make([]float64, len(g))
	for i := range g {
		out[i] = g[i] * (1 - y[i]*y[i])
	}
	return out
}

// Softmax returns the softmax of logits (numerically stable).
func Softmax(z []float64) []float64 {
	max := z[0]
	for _, v := range z[1:] {
		if v > max {
			max = v
		}
	}
	out := make([]float64, len(z))
	var sum float64
	for i, v := range z {
		e := math.Exp(v - max)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// Adam is the Adam optimizer over a set of parameter/gradient buffer
// pairs registered with Register.
type Adam struct {
	LR     float64
	Beta1  float64
	Beta2  float64
	Eps    float64
	step   int
	params [][]float64
	grads  [][]float64
	m, v   [][]float64
}

// NewAdam returns an Adam optimizer with standard defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Register adds a parameter buffer and its gradient buffer (same length).
func (a *Adam) Register(param, grad []float64) {
	if len(param) != len(grad) {
		panic("nn: Adam.Register length mismatch")
	}
	a.params = append(a.params, param)
	a.grads = append(a.grads, grad)
	a.m = append(a.m, make([]float64, len(param)))
	a.v = append(a.v, make([]float64, len(param)))
}

// Step applies one Adam update from the accumulated gradients and zeroes
// them.
func (a *Adam) Step() {
	a.step++
	b1c := 1 - math.Pow(a.Beta1, float64(a.step))
	b2c := 1 - math.Pow(a.Beta2, float64(a.step))
	for k, p := range a.params {
		g := a.grads[k]
		m, v := a.m[k], a.v[k]
		for i := range p {
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g[i]
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g[i]*g[i]
			mh := m[i] / b1c
			vh := v[i] / b2c
			p[i] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
			g[i] = 0
		}
	}
}

// L2 returns the Euclidean norm of a vector.
func L2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// Cosine returns the cosine similarity of two vectors (0 when either is
// the zero vector).
func Cosine(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("nn: Cosine dimension mismatch")
	}
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}
