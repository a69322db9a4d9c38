package bench

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"htapxplain/internal/catalog"
	"htapxplain/internal/exec"
	"htapxplain/internal/htap"
	"htapxplain/internal/shard"
	"htapxplain/internal/tpch"
)

// barrier releases every party once all of them have arrived.
type barrier struct {
	left    atomic.Int32
	release chan struct{}
}

func newBarrier(parties int) *barrier {
	b := &barrier{release: make(chan struct{})}
	b.left.Store(int32(parties))
	return b
}

func (b *barrier) await() error {
	if b.left.Add(-1) == 0 {
		close(b.release)
	}
	select {
	case <-b.release:
		return nil
	case <-time.After(30 * time.Second):
		return errors.New("a fragment opened and the others never did: the scatter does not run its fragments at once")
	}
}

// barrierOp is a fragment root that opens only once every fragment of its
// scatter has reached Open.
type barrierOp struct {
	exec.BatchOperator
	b *barrier
}

func (o *barrierOp) Clone() exec.BatchOperator {
	return &barrierOp{BatchOperator: o.BatchOperator.Clone(), b: o.b}
}

func (o *barrierOp) Open(ctx *exec.Context) error {
	if err := o.b.await(); err != nil {
		return err
	}
	return o.BatchOperator.Open(ctx)
}

// gatherOf returns the Gather under a scatter plan's final stage.
func gatherOf(op exec.BatchOperator) *exec.Gather {
	for {
		switch x := op.(type) {
		case *exec.Gather:
			return x
		case *exec.HashAggregate:
			op = x.Child
		case *exec.SortOp:
			op = x.Child
		case *exec.TopNOp:
			op = x.Child
		case *exec.LimitOp:
			op = x.Child
		case *exec.ProjectOp:
			op = x.Child
		case *exec.FilterOp:
			op = x.Child
		default:
			return nil
		}
	}
}

// TestShardedScaleout is the count gate for distributed execution. The
// dataset a single shard holds is hash-partitioned over 4 shards, and:
// each shard owns a quarter of lineitem (± 10 %); a scatter
// scan/aggregate reads exactly the rows the single shard reads, so each
// fragment scans its own quarter and no row twice; and the four fragments
// are open at once — each fragment root waits in Open on a 4-party
// barrier that only fragments running side by side release. How much
// faster that makes a scatter is the benchmark's to say.
func TestShardedScaleout(t *testing.T) {
	data, err := tpch.Generate(catalog.TPCH(100), tpch.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fleet := func(n int) *shard.Coordinator {
		cfg := htap.Config{
			ModeledSF: 100,
			Data:      tpch.DefaultConfig(),
			Preloaded: data,
		}
		c, err := shard.New(n, cfg, shard.Options{FragDOP: 1})
		if err != nil {
			t.Fatalf("shard.New(%d): %v", n, err)
		}
		t.Cleanup(c.Close)
		return c
	}
	c1, c4 := fleet(1), fleet(4)

	whole, _ := c1.Shard(0).Col.Table("lineitem")
	for i := 0; i < c4.NumShards(); i++ {
		part, _ := c4.Shard(i).Col.Table("lineitem")
		if share := float64(part.NumRows()) / float64(whole.NumRows()); share < 0.225 || share > 0.275 {
			t.Errorf("shard %d holds %d of %d lineitem rows (%.3f), want 1/4 ± 10%%", i, part.NumRows(), whole.NumRows(), share)
		}
	}

	scatter := func(c *shard.Coordinator, b *barrier) (int, exec.Stats) {
		t.Helper()
		phys, err := c.PlanScatter(parallelAggSQL, nil)
		if err != nil {
			t.Fatal(err)
		}
		if b != nil {
			g := gatherOf(phys.Root)
			if g == nil {
				t.Fatal("no Gather under the scatter plan's final stage")
			}
			for i := range g.Frags {
				g.Frags[i].Root = &barrierOp{BatchOperator: g.Frags[i].Root, b: b}
			}
		}
		ctx := exec.NewContext()
		ctx.DOP = phys.DOP
		rows, err := phys.Execute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return len(rows), ctx.Stats
	}
	rows1, one := scatter(c1, nil)
	rows4, four := scatter(c4, newBarrier(c4.NumShards()))
	if rows4 != rows1 || rows1 == 0 {
		t.Errorf("4-shard scatter returned %d groups, 1 shard %d", rows4, rows1)
	}
	if four.RowsScanned != one.RowsScanned || one.RowsScanned == 0 {
		t.Errorf("4-shard scatter scanned %d rows, 1 shard %d", four.RowsScanned, one.RowsScanned)
	}
}
