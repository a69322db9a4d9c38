package exec

import (
	"htapxplain/internal/value"
)

// ---------------------------------------------------------------- filter / project

// FilterOp applies a predicate to its child's output by narrowing the
// selection vector in place — no values are copied.
type FilterOp struct {
	Child Operator
	Pred  Evaluator

	scratch value.Row
	selBuf  []int32
	closed  bool
}

func (f *FilterOp) Schema() Schema { return f.Child.Schema() }

func (f *FilterOp) Clone() BatchOperator {
	return &FilterOp{Child: f.Child.Clone(), Pred: f.Pred}
}

func (f *FilterOp) Open(ctx *Context) error {
	f.closed = false
	if f.scratch == nil {
		f.scratch = make(value.Row, len(f.Schema()))
	}
	return f.Child.Open(ctx)
}

func (f *FilterOp) Next(ctx *Context) (*Batch, error) {
	for {
		b, err := f.Child.Next(ctx)
		if err != nil || b == nil {
			return nil, err
		}
		sel := f.selBuf[:0]
		n := b.NumActive()
		for i := 0; i < n; i++ {
			p := b.PosAt(i)
			ok, err := Truthy(f.Pred, b.fillAt(p, f.scratch), ctx.Params)
			if err != nil {
				return nil, err
			}
			if ok {
				sel = append(sel, int32(p))
			}
		}
		f.selBuf = sel
		if len(sel) == 0 {
			continue
		}
		b.Sel = sel
		ctx.Stats.BatchesProduced++
		return b, nil
	}
}

func (f *FilterOp) Close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	return f.Child.Close()
}

// ProjectOp evaluates expressions into a new schema, producing dense output
// vectors (one value per active input row).
type ProjectOp struct {
	Child Operator
	Evals []Evaluator
	Out   Schema

	scratch value.Row
	out     outBuffer
	rowBuf  value.Row
	closed  bool
}

func (p *ProjectOp) Schema() Schema { return p.Out }

func (p *ProjectOp) Clone() BatchOperator {
	return &ProjectOp{Child: p.Child.Clone(), Evals: p.Evals, Out: p.Out}
}

func (p *ProjectOp) Open(ctx *Context) error {
	p.closed = false
	if p.scratch == nil {
		p.scratch = make(value.Row, len(p.Child.Schema()))
		p.rowBuf = make(value.Row, len(p.Evals))
	}
	p.out.init(len(p.Evals))
	return p.Child.Open(ctx)
}

func (p *ProjectOp) Next(ctx *Context) (*Batch, error) {
	b, err := p.Child.Next(ctx)
	if err != nil || b == nil {
		return nil, err
	}
	p.out.reset()
	n := b.NumActive()
	for i := 0; i < n; i++ {
		b.FillRow(i, p.scratch)
		for j, ev := range p.Evals {
			v, err := ev(p.scratch, ctx.Params)
			if err != nil {
				return nil, err
			}
			p.rowBuf[j] = v
		}
		p.out.appendRow(p.rowBuf)
	}
	return p.out.take(ctx), nil
}

func (p *ProjectOp) Close() error {
	if p.closed {
		return nil
	}
	p.closed = true
	return p.Child.Close()
}
