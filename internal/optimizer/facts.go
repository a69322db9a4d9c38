package optimizer

import (
	"htapxplain/internal/catalog"
	"htapxplain/internal/sqlparser"
)

// TableFacts summarizes the optimizer-visible situation of one table in a
// query: how selective its predicates are and whether any index can serve
// them. The expert oracle and the DBG-PT baseline consume these.
type TableFacts struct {
	Binding string
	Table   string
	Rows    int64
	// FilterSel is the combined selectivity of the table's predicates.
	FilterSel float64
	// HasPredicate reports whether any single-table predicate exists.
	HasPredicate bool
	// SargableIndexColumn is the indexed column an index scan can use
	// ("" when none qualifies).
	SargableIndexColumn string
	// FuncWrappedIndexedColumn is an indexed column that appears only
	// inside a function call in predicates — the index exists but cannot
	// be used (the paper's SUBSTRING(c_phone,...) case). "" when absent.
	FuncWrappedIndexedColumn string
}

// QueryFacts is the bound, optimizer-visible description of a query.
type QueryFacts struct {
	SQL          string
	Tables       []TableFacts
	NumJoins     int
	HasAggregate bool
	HasGroupBy   bool
	HasOrderBy   bool
	// OrderByIndexedColumn is set when the query is single-table and
	// orders by one indexed column (TP can serve it in index order).
	OrderByIndexedColumn string
	Limit, Offset        int64
	// EstScannedRows is the total modeled-scale filtered cardinality.
	EstScannedRows float64
}

// Facts analyzes a query against the catalog without planning it.
func Facts(cat *catalog.Catalog, sql string) (*QueryFacts, error) {
	sel, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	a, err := bind(cat, sel)
	if err != nil {
		return nil, err
	}
	f := &QueryFacts{
		SQL:          sql,
		NumJoins:     len(a.joinPreds),
		HasAggregate: sel.HasAggregate(),
		HasGroupBy:   len(sel.GroupBy) > 0,
		HasOrderBy:   len(sel.OrderBy) > 0,
		Limit:        sel.Limit,
		Offset:       sel.Offset,
	}
	for _, t := range a.tables {
		tf := TableFacts{
			Binding:                  t.binding,
			Table:                    t.meta.Name,
			Rows:                     t.meta.Rows,
			FilterSel:                tableSelectivity(t),
			HasPredicate:             len(t.preds) > 0,
			FuncWrappedIndexedColumn: t.fold.funcIndexed,
		}
		if s, _, ok := pickSargable(t.meta, &t.fold, true); ok {
			tf.SargableIndexColumn = s.column
		}
		f.EstScannedRows += estRows(t)
		f.Tables = append(f.Tables, tf)
	}
	if len(a.tables) == 1 && len(sel.OrderBy) == 1 && sel.Limit >= 0 {
		if ref, ok := sel.OrderBy[0].Expr.(*sqlparser.ColumnRef); ok {
			if _, ok := a.tables[0].meta.IndexOn(ref.Column); ok {
				f.OrderByIndexedColumn = ref.Column
			}
		}
	}
	return f, nil
}
