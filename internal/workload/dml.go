package workload

import (
	"fmt"
	"math/rand"
)

// FamilyDML tags generated write statements (the TP side of a mixed HTAP
// workload).
const FamilyDML Family = "dml"

// DMLGenerator produces a deterministic stream of INSERT / UPDATE / DELETE
// statements over the customer table — the write half of the mixed
// read/write load the gateway's load generator drives. Inserted customers
// use a private key range far above the bulk-loaded data, so the
// statements never collide with generated read workloads; deletes target
// previously inserted keys, keeping the table size bounded over long runs.
// Every statement pins c_custkey — the table's hash-partition key — so
// against a sharded fleet each write routes to exactly one shard and
// commits through the single-shard fast path; the shard package's routing
// and differential tests depend on this invariant.
type DMLGenerator struct {
	rng      *rand.Rand
	id       int
	nextKey  int64
	inserted []int64
}

// dmlKeyBase is the first synthetic customer key; bulk-loaded keys are
// dense and start at 1, so 10^9 never collides.
const dmlKeyBase = 1_000_000_000

// NewDMLGenerator returns a seeded DML generator.
func NewDMLGenerator(seed int64) *DMLGenerator {
	return &DMLGenerator{rng: rand.New(rand.NewSource(seed)), nextKey: dmlKeyBase}
}

// Next returns the next write statement, cycling insert-heavy over
// updates and deletes (2:1:1) so the delta layer always has fresh rows to
// replicate and the merger always has deletes to fold.
func (g *DMLGenerator) Next() Query {
	g.id++
	var sql, tmpl string
	switch {
	case len(g.inserted) < 4 || g.id%4 < 2:
		key := g.nextKey
		g.nextKey++
		g.inserted = append(g.inserted, key)
		sql = fmt.Sprintf(
			"INSERT INTO customer (c_custkey, c_name, c_address, c_nationkey, c_phone, c_acctbal, c_mktsegment, c_comment) "+
				"VALUES (%d, 'customer#%d', 'addr %d', %d, '%02d-%03d', %d.%02d, 'machinery', 'synthetic write')",
			key, key, key, g.rng.Intn(25), 10+g.rng.Intn(25), g.rng.Intn(1000),
			g.rng.Intn(9000), g.rng.Intn(100))
		tmpl = "dml_insert_customer"
	case g.id%4 == 2:
		key := g.inserted[g.rng.Intn(len(g.inserted))]
		sql = fmt.Sprintf(
			"UPDATE customer SET c_acctbal = c_acctbal + %d, c_mktsegment = 'building' WHERE c_custkey = %d",
			1+g.rng.Intn(100), key)
		tmpl = "dml_update_balance"
	default:
		i := g.rng.Intn(len(g.inserted))
		key := g.inserted[i]
		g.inserted = append(g.inserted[:i], g.inserted[i+1:]...)
		sql = fmt.Sprintf("DELETE FROM customer WHERE c_custkey = %d", key)
		tmpl = "dml_delete_customer"
	}
	return Query{ID: g.id, SQL: sql, Family: FamilyDML, Template: tmpl}
}

// Batch returns the next n write statements.
func (g *DMLGenerator) Batch(n int) []Query {
	out := make([]Query, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}
