package htap

import (
	"fmt"
	"strings"

	"htapxplain/internal/catalog"
	"htapxplain/internal/exec"
	"htapxplain/internal/obs"
	"htapxplain/internal/rowstore"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/value"
)

// DMLResult is the outcome of one executed DML statement.
type DMLResult struct {
	// Kind is "insert", "update" or "delete".
	Kind         string
	Table        string
	RowsAffected int
	// LSN is the commit sequence number assigned by the primary; the
	// statement becomes visible to AP scans once the replication
	// watermark reaches it. Statements buffered inside an explicit
	// transaction carry LSN 0 until Commit assigns one.
	LSN uint64
}

// Exec parses and executes one DML statement as an autocommit
// transaction: a snapshot is pinned, the statement's effects are buffered
// and then committed through the multi-writer pipeline (conflict check +
// heap apply + WAL append under a short critical section, group-commit
// fsync wait outside it), and the mutations are enqueued for the column
// store's delta layer. Concurrent Execs proceed in parallel — only the
// commit critical section serializes, which is what makes the commit LSN
// a total order. An autocommit UPDATE or DELETE can lose a first-writer-
// wins race and return ErrConflict; retry. SELECTs are rejected — reads
// go through Run or the gateway.
func (s *System) Exec(sql string) (*DMLResult, error) {
	return s.ExecTraced(sql, nil)
}

// ExecTraced is Exec with per-stage spans (parse, apply, wal_append,
// wal_fsync_wait) recorded into the query's trace. A nil trace makes
// every span a no-op — Exec is exactly ExecTraced(sql, nil).
func (s *System) ExecTraced(sql string, t *obs.QueryTrace) (*DMLResult, error) {
	sp := t.Begin("parse")
	stmt, err := sqlparser.ParseStatement(sql)
	sp.End()
	if err != nil {
		return nil, err
	}
	return s.execStmt(stmt, t)
}

// ExecStmt executes an already-parsed DML statement.
func (s *System) ExecStmt(stmt sqlparser.Statement) (*DMLResult, error) {
	return s.execStmt(stmt, nil)
}

func (s *System) execStmt(stmt sqlparser.Statement, t *obs.QueryTrace) (*DMLResult, error) {
	switch stmt.(type) {
	case *sqlparser.Insert, *sqlparser.Update, *sqlparser.Delete:
	case *sqlparser.Select:
		return nil, fmt.Errorf("htap: Exec handles DML only; run SELECT through Run")
	default:
		return nil, fmt.Errorf("htap: unsupported statement %T", stmt)
	}
	tx := s.Begin()
	res, err := tx.ExecStmt(stmt)
	if err != nil {
		tx.Rollback()
		return nil, err
	}
	txr, err := tx.CommitTraced(t)
	if err != nil {
		return nil, err
	}
	res.LSN = txr.LSN
	return res, nil
}

// buildInsertRows maps an INSERT's column list (or the full schema) to
// table positions and evaluates every VALUES tuple into a full-arity row,
// coercing each value to its column's declared type.
func buildInsertRows(meta *catalog.Table, ins *sqlparser.Insert) ([]value.Row, error) {
	positions := make([]int, 0, len(meta.Columns))
	if len(ins.Columns) == 0 {
		for i := range meta.Columns {
			positions = append(positions, i)
		}
	} else {
		for _, name := range ins.Columns {
			i := meta.ColumnIndex(name)
			if i < 0 {
				return nil, fmt.Errorf("htap: no column %q in table %q", name, ins.Table)
			}
			positions = append(positions, i)
		}
	}
	rows := make([]value.Row, 0, len(ins.Rows))
	for _, tuple := range ins.Rows {
		if len(tuple) != len(positions) {
			return nil, fmt.Errorf("htap: INSERT expects %d values, got %d", len(positions), len(tuple))
		}
		row := make(value.Row, len(meta.Columns))
		for i := range row {
			row[i] = value.Null
		}
		for i, e := range tuple {
			v, err := evalConst(e)
			if err != nil {
				return nil, err
			}
			cv, err := coerce(v, meta.Columns[positions[i]])
			if err != nil {
				return nil, err
			}
			row[positions[i]] = cv
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// dmlTarget resolves the target table and compiles the optional WHERE
// predicate against its schema, which it returns too (nil with no WHERE).
func (s *System) dmlTarget(table string, where sqlparser.Expr) (*rowstore.Table, *catalog.Table, exec.Schema, exec.Evaluator, error) {
	meta, ok := s.Cat.Table(table)
	if !ok {
		return nil, nil, nil, nil, fmt.Errorf("htap: no such table %q", table)
	}
	t, ok := s.Row.Table(table)
	if !ok {
		return nil, nil, nil, nil, fmt.Errorf("htap: row store missing table %q", table)
	}
	if where == nil {
		return t, meta, nil, nil, nil
	}
	schema := exec.TableSchema(meta, strings.ToLower(table))
	pred, err := exec.Compile(where, schema)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("htap: WHERE: %w", err)
	}
	return t, meta, schema, pred, nil
}

// evalConst evaluates a constant expression (literals and arithmetic over
// them); column references are rejected with a readable error.
func evalConst(e sqlparser.Expr) (value.Value, error) {
	ev, err := exec.Compile(e, nil)
	if err != nil {
		return value.Value{}, fmt.Errorf("htap: VALUES expressions must be constant: %w", err)
	}
	return ev(nil, nil)
}

// coerce adapts a value to the column's declared type where lossless
// (ints widen to float, dates are stored as int days) and rejects kind
// mismatches with a readable error.
func coerce(v value.Value, col catalog.Column) (value.Value, error) {
	if v.IsNull() {
		return v, nil
	}
	switch col.Type {
	case catalog.TypeInt, catalog.TypeDate:
		if v.K == value.KindInt {
			return v, nil
		}
	case catalog.TypeFloat:
		if v.K == value.KindFloat {
			return v, nil
		}
		if v.K == value.KindInt {
			return value.NewFloat(float64(v.I)), nil
		}
	case catalog.TypeString:
		if v.K == value.KindString {
			return v, nil
		}
	}
	return value.Value{}, fmt.Errorf("htap: cannot store %s value %s in %s column %s",
		v.K, v, col.Type, col.Name)
}
