package shard

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"htapxplain/internal/catalog"
	"htapxplain/internal/exec"
	"htapxplain/internal/htap"
	"htapxplain/internal/obs"
	"htapxplain/internal/optimizer"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/value"
)

var errTxnDone = errors.New("shard: transaction already finished")

// Txn is one distributed transaction: a lazy set of per-shard htap.Txns,
// one per shard the statements actually touch. A transaction that stays
// on one shard commits through that shard's ordinary fast path; one that
// touches several commits through the coordinator's two-phase publish
// (see Commit).
type Txn struct {
	c    *Coordinator
	txs  map[int]*htap.Txn
	done bool
}

// Begin opens a distributed transaction. Shard-local transactions begin
// lazily at the first statement that touches each shard, so every
// participant pins its snapshot as late as possible.
func (c *Coordinator) Begin() *Txn {
	return &Txn{c: c, txs: make(map[int]*htap.Txn)}
}

func (tx *Txn) shardTxn(i int) *htap.Txn {
	t, ok := tx.txs[i]
	if !ok {
		t = tx.c.shards[i].Begin()
		tx.txs[i] = t
	}
	return t
}

// Exec parses and routes one DML statement.
func (tx *Txn) Exec(sql string) (*htap.DMLResult, error) {
	stmt, err := sqlparser.ParseStatement(sql)
	if err != nil {
		return nil, err
	}
	return tx.ExecStmt(stmt)
}

// ExecStmt routes an already-parsed DML statement to the shard(s) that
// own the touched rows: inserts split their VALUES tuples by hashed
// partition key, updates and deletes run on the shards their WHERE
// clause's = or IN keys on the partition key hash to and on all shards
// otherwise, and statements on replicated tables apply everywhere.
func (tx *Txn) ExecStmt(stmt sqlparser.Statement) (*htap.DMLResult, error) {
	if tx.done {
		return nil, errTxnDone
	}
	if len(tx.c.shards) == 1 {
		// nothing to route: the one shard owns every key, so the statement
		// runs (and fails) exactly as it would on the bare system
		return tx.shardTxn(0).ExecStmt(stmt)
	}
	switch x := stmt.(type) {
	case *sqlparser.Insert:
		return tx.execInsert(x)
	case *sqlparser.Update:
		return tx.execUpdate(x)
	case *sqlparser.Delete:
		return tx.execDelete(x)
	default:
		return nil, fmt.Errorf("shard: unsupported statement %T in transaction", stmt)
	}
}

// constEval evaluates a constant expression (insert values are literal-
// only by the parser's contract).
func constEval(e sqlparser.Expr) (value.Value, error) {
	ev, err := exec.Compile(e, nil)
	if err != nil {
		return value.Null, err
	}
	return ev(nil, nil)
}

func (tx *Txn) execInsert(ins *sqlparser.Insert) (*htap.DMLResult, error) {
	c := tx.c
	meta, ok := c.cat.Table(ins.Table)
	if !ok {
		return nil, fmt.Errorf("shard: no such table %q", ins.Table)
	}
	pcol, parted := c.scheme.PartitionColumn(meta.Name)
	out := &htap.DMLResult{Kind: "insert", Table: strings.ToLower(ins.Table)}
	if !parted {
		// replicated table: the same insert applies on every shard so the
		// replicas stay identical
		for i := range c.shards {
			r, err := tx.shardTxn(i).ExecStmt(ins)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				out.RowsAffected = r.RowsAffected
			}
		}
		return out, nil
	}
	// locate the partition key among the inserted columns
	ki := -1
	if len(ins.Columns) == 0 {
		ki = meta.ColumnIndex(pcol)
	} else {
		for j, cname := range ins.Columns {
			if strings.EqualFold(cname, pcol) {
				ki = j
				break
			}
		}
	}
	if ki < 0 {
		return nil, fmt.Errorf("shard: INSERT into %s must set partition key %s", meta.Name, pcol)
	}
	groups := make(map[int][][]sqlparser.Expr)
	for _, tuple := range ins.Rows {
		if ki >= len(tuple) {
			return nil, fmt.Errorf("shard: INSERT tuple has %d values but partition key %s is position %d", len(tuple), pcol, ki+1)
		}
		key, err := constEval(tuple[ki])
		if err != nil {
			return nil, err
		}
		s := ShardOf(key, len(c.shards))
		groups[s] = append(groups[s], tuple)
	}
	shardIDs := make([]int, 0, len(groups))
	for s := range groups {
		shardIDs = append(shardIDs, s)
	}
	sort.Ints(shardIDs)
	for _, s := range shardIDs {
		sub := &sqlparser.Insert{Table: ins.Table, Columns: ins.Columns, Rows: groups[s]}
		r, err := tx.shardTxn(s).ExecStmt(sub)
		if err != nil {
			return nil, err
		}
		out.RowsAffected += r.RowsAffected
	}
	return out, nil
}

func (tx *Txn) execUpdate(upd *sqlparser.Update) (*htap.DMLResult, error) {
	c := tx.c
	meta, ok := c.cat.Table(upd.Table)
	if !ok {
		return nil, fmt.Errorf("shard: no such table %q", upd.Table)
	}
	pcol, parted := c.scheme.PartitionColumn(meta.Name)
	if parted {
		for _, set := range upd.Set {
			if strings.EqualFold(set.Column, pcol) {
				return nil, fmt.Errorf("shard: UPDATE may not change partition key %s.%s", meta.Name, pcol)
			}
		}
	}
	out := &htap.DMLResult{Kind: "update", Table: strings.ToLower(upd.Table)}
	for _, s := range c.targetShards(meta, pcol, parted, upd.Where) {
		r, err := tx.shardTxn(s).ExecStmt(upd)
		if err != nil {
			return nil, err
		}
		out.RowsAffected += r.RowsAffected
	}
	return out, nil
}

func (tx *Txn) execDelete(del *sqlparser.Delete) (*htap.DMLResult, error) {
	c := tx.c
	meta, ok := c.cat.Table(del.Table)
	if !ok {
		return nil, fmt.Errorf("shard: no such table %q", del.Table)
	}
	pcol, parted := c.scheme.PartitionColumn(meta.Name)
	out := &htap.DMLResult{Kind: "delete", Table: strings.ToLower(del.Table)}
	for _, s := range c.targetShards(meta, pcol, parted, del.Where) {
		r, err := tx.shardTxn(s).ExecStmt(del)
		if err != nil {
			return nil, err
		}
		out.RowsAffected += r.RowsAffected
	}
	return out, nil
}

// targetShards picks the shards an UPDATE/DELETE on table runs on: those
// its WHERE clause's key set on the partition key hashes to, when it has
// one, all shards otherwise (a replicated table always applies everywhere
// to keep the copies identical).
func (c *Coordinator) targetShards(table *catalog.Table, pcol string, parted bool, where sqlparser.Expr) []int {
	keys, pinned := optimizer.KeysOn(table, where, pcol)
	var out []int
	for i := range c.shards {
		if !parted || !pinned || slices.ContainsFunc(keys, func(k value.Value) bool { return ShardOf(k, len(c.shards)) == i }) {
			out = append(out, i)
		}
	}
	return out
}

// TxnResult is the outcome of a distributed commit.
type TxnResult struct {
	// LSN is the participant's commit LSN for a single-shard commit, or
	// the coordinator's commit sequence number for a cross-shard one.
	LSN          uint64
	RowsAffected int
	// Shards lists the participating shards in commit (ascending) order.
	Shards []int
	// CrossShard is true when the commit went through the two-phase
	// publish path.
	CrossShard bool
}

// Rollback abandons every participant.
func (tx *Txn) Rollback() {
	if tx.done {
		return
	}
	tx.done = true
	for _, t := range tx.txs {
		t.Rollback()
	}
}

// Commit finishes the transaction. See CommitTraced.
func (tx *Txn) Commit() (*TxnResult, error) { return tx.CommitTraced(nil) }

// CommitTraced finishes the transaction, recording every participant's
// apply, wal_append and wal_fsync_wait spans into t (a nil trace records
// nothing). A single participant commits through its shard's ordinary
// pipeline. Multiple participants commit in two phases under the
// coordinator's commit lock: every shard Prepares (conflict check, shard
// write lock acquired) in ascending shard order, then — once all have
// prepared — a coordinator LSN is drawn and every shard Publishes
// (applies, logs, unlocks). A conflict on any shard during prepare aborts
// every participant before any effect becomes visible, so cross-shard
// atomicity holds with respect to conflicts; durability waits run after
// the lock is released, exactly like the single-shard group commit.
func (tx *Txn) CommitTraced(t *obs.QueryTrace) (*TxnResult, error) {
	if tx.done {
		return nil, errTxnDone
	}
	tx.done = true
	c := tx.c
	parts := make([]int, 0, len(tx.txs))
	for i := range tx.txs {
		parts = append(parts, i)
	}
	sort.Ints(parts)
	switch len(parts) {
	case 0:
		return &TxnResult{}, nil
	case 1:
		s := parts[0]
		r, err := tx.txs[s].CommitTraced(t)
		if err != nil {
			return nil, err
		}
		return &TxnResult{LSN: r.LSN, RowsAffected: r.RowsAffected, Shards: parts}, nil
	}

	c.commitMu.Lock()
	prepared := make([]*htap.Prepared, 0, len(parts))
	for _, s := range parts {
		p, err := tx.txs[s].Prepare(t)
		if err != nil {
			for _, pp := range prepared {
				pp.Abort()
			}
			for _, rest := range parts[len(prepared)+1:] {
				tx.txs[rest].Rollback()
			}
			c.commitMu.Unlock()
			return nil, err // htap.ErrConflict flows through unwrapped
		}
		prepared = append(prepared, p)
	}
	lsn := c.coordLSN.Add(1)
	res := &TxnResult{LSN: lsn, Shards: parts, CrossShard: true}
	var waits []func() error
	var pubErr error
	for i, p := range prepared {
		r, wait, err := p.Publish()
		if err != nil {
			// The shard poisoned itself (storage apply failure) — abort
			// the not-yet-published participants. Cross-shard atomicity is
			// with respect to conflicts, which only surface in prepare;
			// a mid-publish storage failure leaves earlier participants
			// committed, mirroring the single-shard poison semantics.
			pubErr = fmt.Errorf("shard: cross-shard publish on shard %d: %w", parts[i], err)
			for _, pp := range prepared[i+1:] {
				pp.Abort()
			}
			break
		}
		res.RowsAffected += r.RowsAffected
		if wait != nil {
			waits = append(waits, wait)
		}
	}
	c.commitMu.Unlock()
	if pubErr != nil {
		return nil, pubErr
	}
	for _, w := range waits {
		if err := w(); err != nil {
			return nil, err
		}
	}
	c.met.crossShardTxns.Add(1)
	return res, nil
}

// ExecDML runs one DML statement as an autocommit distributed
// transaction and records per-shard query counters.
func (c *Coordinator) ExecDML(sql string) (*htap.DMLResult, error) {
	return c.ExecDMLTraced(sql, nil)
}

// ExecDMLTraced is ExecDML with the parse and commit-pipeline spans
// recorded into t.
func (c *Coordinator) ExecDMLTraced(sql string, t *obs.QueryTrace) (*htap.DMLResult, error) {
	sp := t.Begin("parse")
	stmt, err := sqlparser.ParseStatement(sql)
	sp.End()
	if err != nil {
		return nil, err
	}
	tx := c.Begin()
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
	for _, s := range txr.Shards {
		c.met.shardQueries[s].Add(1)
	}
	return res, nil
}
