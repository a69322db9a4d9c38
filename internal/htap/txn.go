package htap

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"htapxplain/internal/catalog"
	"htapxplain/internal/exec"
	"htapxplain/internal/obs"
	"htapxplain/internal/optimizer"
	"htapxplain/internal/repl"
	"htapxplain/internal/rowstore"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/value"
	"htapxplain/internal/wal"
)

// Multi-writer snapshot-isolated transactions.
//
// A Txn pins a snapshot LSN at Begin and buffers every statement's effects
// in a private write set — nothing touches shared state until Commit.
// Statements read the base table at the snapshot, overlaid with the
// transaction's own buffered writes (read-your-writes), so concurrent
// commits never change what a running transaction sees. A WHERE whose
// every conjunct tests a bare column against literals, one of them an
// indexed column's keys or range, reads those postings through
// LookupLiveAt; every other statement scans the version heap with
// ScanLiveAt. The index holds only versions live now, so when a delete
// committed after the snapshot LookupLiveAt declines and the statement
// scans: a row updated or deleted concurrently is still matched, and the
// commit conflicts instead of silently updating nothing.
//
// Commit is where writers meet. The heavy lifting — parsing, WHERE
// evaluation, row construction — already happened outside any lock;
// Commit takes the system's write mutex only for conflict detection, heap
// application and the WAL append, then releases it before waiting on the
// group-commit fsync. While one committer waits on the disk, the next is
// already inside the critical section, so a single fsync acknowledges a
// whole batch of independent transactions.
//
// Conflicts are first-writer-wins: a transaction only ever deletes RIDs
// that were live at its snapshot, so finding any of them tombstoned at
// commit time means a concurrent transaction committed a write to the
// same row first — the later committer aborts with ErrConflict and the
// client retries on a fresh snapshot. Write skew is possible (snapshot
// isolation, not serializability); disjoint write sets always commit.

// ErrConflict is returned by Commit when first-writer-wins conflict
// detection finds a row in the transaction's write set that a concurrent
// transaction committed first. The transaction is rolled back; the caller
// should retry on a fresh snapshot. Test with errors.Is.
var ErrConflict = errors.New("htap: transaction conflict")

// errTxnDone guards against statements on a finished transaction.
var errTxnDone = errors.New("htap: transaction already finished")

// TxnResult is the outcome of one committed transaction.
type TxnResult struct {
	// LSN is the commit LSN of the transaction's last mutation — the
	// point at which every statement becomes visible to snapshot readers
	// at once. An empty (read-nothing-wrote-nothing) commit reports the
	// system's current commit LSN and consumes none.
	LSN uint64
	// RowsAffected sums the logical row counts of every statement.
	RowsAffected int
	// Tables lists the tables the transaction wrote, in the (sorted)
	// order their mutations were applied and logged.
	Tables []string
}

// pendingRow is one row inserted by the transaction but not yet
// committed. A later statement of the same transaction may update it
// (replacing the row in place) or delete it (marking it dead).
type pendingRow struct {
	row  value.Row
	dead bool
}

// tableWrites is the per-table write set: deletions of base rows that
// were live at the snapshot, plus rows pending insertion.
type tableWrites struct {
	tbl  *rowstore.Table
	meta *catalog.Table
	// deletes is the set of base RIDs this transaction tombstones;
	// delOrder preserves first-delete order for deterministic mutations.
	deletes  map[int64]struct{}
	delOrder []int64
	inserts  []pendingRow
	// liveInserts counts inserts not later deleted by this transaction.
	liveInserts int
}

// Txn is one in-flight transaction. A Txn is NOT safe for concurrent use
// by multiple goroutines — each writer runs its own; many Txns commit
// concurrently against one System.
type Txn struct {
	sys  *System
	snap uint64 // snapshot LSN pinned at Begin
	// writes is keyed by lower-cased table name.
	writes       map[string]*tableWrites
	rowsAffected int
	done         bool
}

// Begin starts a transaction reading at the current commit LSN. The
// snapshot is pinned before the transaction is counted, so an observer
// that sees TxnStats().Begun advance knows the snapshot predates anything
// it publishes afterwards.
func (s *System) Begin() *Txn {
	snap := s.CommitLSN()
	s.txnBegun.Add(1)
	return &Txn{
		sys:    s,
		snap:   snap,
		writes: make(map[string]*tableWrites),
	}
}

// Snapshot returns the LSN the transaction reads at.
func (tx *Txn) Snapshot() uint64 { return tx.snap }

// Exec parses and buffers one DML statement. Effects are visible to later
// statements of this transaction only; the returned result carries no LSN
// (assigned at Commit).
func (tx *Txn) Exec(sql string) (*DMLResult, error) {
	stmt, err := sqlparser.ParseStatement(sql)
	if err != nil {
		return nil, err
	}
	return tx.ExecStmt(stmt)
}

// ExecStmt buffers one already-parsed DML statement.
func (tx *Txn) ExecStmt(stmt sqlparser.Statement) (*DMLResult, error) {
	if tx.done {
		return nil, errTxnDone
	}
	switch x := stmt.(type) {
	case *sqlparser.Insert:
		return tx.execInsert(x)
	case *sqlparser.Update:
		return tx.execUpdate(x)
	case *sqlparser.Delete:
		return tx.execDelete(x)
	case *sqlparser.Select:
		return nil, fmt.Errorf("htap: transactions buffer DML only; run SELECT through Run")
	default:
		return nil, fmt.Errorf("htap: unsupported statement %T", stmt)
	}
}

// tableWrites returns (creating if needed) the write set for a table.
func (tx *Txn) tableWrites(table string, tbl *rowstore.Table, meta *catalog.Table) *tableWrites {
	key := strings.ToLower(table)
	tw, ok := tx.writes[key]
	if !ok {
		tw = &tableWrites{tbl: tbl, meta: meta, deletes: make(map[int64]struct{})}
		tx.writes[key] = tw
	}
	return tw
}

// snapshotMatches reads the base table at the transaction's snapshot,
// skipping rows the transaction itself already deleted, and filters by
// the predicate. It returns parallel RID/row slices. A WHERE the TP
// planner would read through an index (see optimizer.IndexKeys) reads only
// that conjunct's keys or key range through LookupLiveAt; any other WHERE,
// or a snapshot the index cannot answer, scans the heap with ScanLiveAt.
// Both give the same rows in the same order, and the full predicate is
// evaluated on every candidate.
func (tx *Txn) snapshotMatches(tw *tableWrites, where sqlparser.Expr, pred exec.Evaluator) ([]int64, []value.Row, error) {
	var rids []int64
	var rows []value.Row
	indexed := false
	if col, keys, lo, hi, ok := optimizer.IndexKeys(tw.meta, where); ok {
		rids, rows, indexed = tw.tbl.LookupLiveAt(col, keys, lo, hi, tx.snap)
	}
	if !indexed {
		rids, rows = tw.tbl.ScanLiveAt(tx.snap)
	}
	outIDs := rids[:0]
	outRows := rows[:0]
	for i, r := range rows {
		if _, deleted := tw.deletes[rids[i]]; deleted {
			continue
		}
		if pred != nil {
			ok, err := exec.Truthy(pred, r, nil)
			if err != nil {
				return nil, nil, err
			}
			if !ok {
				continue
			}
		}
		outIDs = append(outIDs, rids[i])
		outRows = append(outRows, r)
	}
	return outIDs, outRows, nil
}

// pendingMatches returns the indexes of the transaction's own live
// pending inserts the predicate selects. Callers snapshot this BEFORE
// appending the current statement's inserts, so a statement never matches
// rows it is itself producing.
func (tx *Txn) pendingMatches(tw *tableWrites, pred exec.Evaluator) ([]int, error) {
	var idxs []int
	for i, p := range tw.inserts {
		if p.dead {
			continue
		}
		if pred != nil {
			ok, err := exec.Truthy(pred, p.row, nil)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		idxs = append(idxs, i)
	}
	return idxs, nil
}

func (tx *Txn) execInsert(ins *sqlparser.Insert) (*DMLResult, error) {
	tbl, meta, _, _, err := tx.sys.dmlTarget(ins.Table, nil)
	if err != nil {
		return nil, err
	}
	rows, err := buildInsertRows(meta, ins)
	if err != nil {
		return nil, err
	}
	tw := tx.tableWrites(ins.Table, tbl, meta)
	for _, r := range rows {
		tw.inserts = append(tw.inserts, pendingRow{row: r})
	}
	tw.liveInserts += len(rows)
	tx.rowsAffected += len(rows)
	return &DMLResult{Kind: "insert", Table: strings.ToLower(ins.Table),
		RowsAffected: len(rows)}, nil
}

func (tx *Txn) execUpdate(upd *sqlparser.Update) (*DMLResult, error) {
	tbl, meta, schema, pred, err := tx.sys.dmlTarget(upd.Table, upd.Where)
	if err != nil {
		return nil, err
	}
	if schema == nil {
		schema = exec.TableSchema(meta, strings.ToLower(upd.Table))
	}
	type setter struct {
		col int
		ev  exec.Evaluator
	}
	setters := make([]setter, 0, len(upd.Set))
	for _, sc := range upd.Set {
		ci := meta.ColumnIndex(sc.Column)
		if ci < 0 {
			return nil, fmt.Errorf("htap: no column %q in table %q", sc.Column, upd.Table)
		}
		ev, err := exec.Compile(sc.Expr, schema)
		if err != nil {
			return nil, fmt.Errorf("htap: SET %s: %w", sc.Column, err)
		}
		setters = append(setters, setter{col: ci, ev: ev})
	}
	apply := func(r value.Row) (value.Row, error) {
		nr := r.Clone()
		for _, st := range setters {
			v, err := st.ev(r, nil)
			if err != nil {
				return nil, err
			}
			cv, err := coerce(v, meta.Columns[st.col])
			if err != nil {
				return nil, err
			}
			nr[st.col] = cv
		}
		return nr, nil
	}

	tw := tx.tableWrites(upd.Table, tbl, meta)
	baseIDs, baseRows, err := tx.snapshotMatches(tw, upd.Where, pred)
	if err != nil {
		return nil, err
	}
	pendIdxs, err := tx.pendingMatches(tw, pred)
	if err != nil {
		return nil, err
	}
	// statement atomicity: evaluate every new row before mutating any
	// buffer, so a mid-statement error leaves the write set untouched
	baseNew := make([]value.Row, len(baseRows))
	for i, r := range baseRows {
		if baseNew[i], err = apply(r); err != nil {
			return nil, err
		}
	}
	pendNew := make([]value.Row, len(pendIdxs))
	for i, idx := range pendIdxs {
		if pendNew[i], err = apply(tw.inserts[idx].row); err != nil {
			return nil, err
		}
	}
	for i, rid := range baseIDs {
		tw.deletes[rid] = struct{}{}
		tw.delOrder = append(tw.delOrder, rid)
		tw.inserts = append(tw.inserts, pendingRow{row: baseNew[i]})
		tw.liveInserts++
	}
	for i, idx := range pendIdxs {
		tw.inserts[idx].row = pendNew[i]
	}
	n := len(baseIDs) + len(pendIdxs)
	tx.rowsAffected += n
	return &DMLResult{Kind: "update", Table: strings.ToLower(upd.Table),
		RowsAffected: n}, nil
}

func (tx *Txn) execDelete(del *sqlparser.Delete) (*DMLResult, error) {
	tbl, meta, _, pred, err := tx.sys.dmlTarget(del.Table, del.Where)
	if err != nil {
		return nil, err
	}
	tw := tx.tableWrites(del.Table, tbl, meta)
	baseIDs, _, err := tx.snapshotMatches(tw, del.Where, pred)
	if err != nil {
		return nil, err
	}
	pendIdxs, err := tx.pendingMatches(tw, pred)
	if err != nil {
		return nil, err
	}
	for _, rid := range baseIDs {
		tw.deletes[rid] = struct{}{}
		tw.delOrder = append(tw.delOrder, rid)
	}
	for _, idx := range pendIdxs {
		tw.inserts[idx].dead = true
		tw.liveInserts--
	}
	n := len(baseIDs) + len(pendIdxs)
	tx.rowsAffected += n
	return &DMLResult{Kind: "delete", Table: strings.ToLower(del.Table),
		RowsAffected: n}, nil
}

// Rollback discards the write set. It is a no-op on a finished
// transaction, so deferring it after a Commit is safe.
func (tx *Txn) Rollback() {
	if tx.done {
		return
	}
	tx.done = true
	tx.sys.txnAborted.Add(1)
}

// Commit publishes the write set atomically. See CommitTraced.
func (tx *Txn) Commit() (*TxnResult, error) {
	return tx.CommitTraced(nil)
}

// CommitTraced runs the commit pipeline with per-stage spans (apply,
// wal_append, wal_fsync_wait):
//
//  1. under the system's write mutex: first-writer-wins conflict check
//     over the delete sets, then per-table heap application at
//     consecutive LSNs, then a single PublishCommit of the last LSN
//     (readers see the whole transaction or none of it), then one WAL
//     record (KindMutation for a single-table commit, KindTxn otherwise)
//     and the replication enqueues in LSN order;
//  2. outside the mutex: the group-commit durability wait, which batches
//     concurrent committers onto shared fsyncs.
//
// On ErrConflict the shared state is untouched and the transaction is
// finished; retry with a fresh Begin.
//
// The pipeline is split into Prepare (conflict check, lock held on
// success) and Publish/Abort so a cross-shard coordinator can run
// two-phase commit over several systems; this single-system path is
// exactly Prepare → Publish → durability wait.
func (tx *Txn) CommitTraced(t *obs.QueryTrace) (*TxnResult, error) {
	p, err := tx.Prepare(t)
	if err != nil {
		return nil, err
	}
	res, wait, err := p.Publish()
	if err != nil {
		return nil, err
	}
	if wait != nil {
		if err := wait(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Prepared is a transaction that passed conflict detection and is holding
// its system's commit critical section. Exactly one of Publish or Abort
// must follow — until then every other committer on the same shard is
// blocked. The window is the two-phase-commit vote: once every
// participating shard is Prepared, the whole cross-shard transaction can
// no longer fail over conflicts, so publishing all participants commits
// it atomically with respect to other writers (each shard's readers see
// its part at its local commit LSN).
type Prepared struct {
	tx        *Txn
	names     []string // sorted dirty tables; empty = nothing to publish
	locked    bool
	trace     *obs.QueryTrace
	applySpan obs.SpanEnd
}

// Prepare enters the commit critical section: it finishes the
// transaction, takes the system's write mutex and runs first-writer-wins
// conflict detection. On success the mutex is HELD by the returned
// Prepared and the caller must Publish or Abort it; on failure (conflict,
// closed or poisoned system) the mutex is released, the outcome counters
// are advanced and the transaction is dead. A transaction with an empty
// write set prepares without locking anything.
func (tx *Txn) Prepare(t *obs.QueryTrace) (*Prepared, error) {
	if tx.done {
		return nil, errTxnDone
	}
	tx.done = true
	s := tx.sys

	names := make([]string, 0, len(tx.writes))
	for name, tw := range tx.writes {
		if len(tw.delOrder) > 0 || tw.liveInserts > 0 {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		// nothing to publish: no LSN is consumed, like a no-match UPDATE
		return &Prepared{tx: tx, trace: t}, nil
	}
	// deterministic apply/log order keeps multi-table commits comparable
	// across runs (and keeps lock-free readers' view order stable)
	sort.Strings(names)

	applySpan := t.Begin("apply")
	s.writeMu.Lock()
	if s.closed {
		s.writeMu.Unlock()
		applySpan.End()
		s.txnAborted.Add(1)
		return nil, fmt.Errorf("htap: system closed")
	}
	if s.walErr != nil {
		s.writeMu.Unlock()
		applySpan.End()
		s.txnAborted.Add(1)
		return nil, fmt.Errorf("htap: write path halted by log failure: %w", s.walErr)
	}
	// first-writer-wins: every RID in the delete sets was live at the
	// snapshot; a tombstone now means a concurrent transaction won
	for _, name := range names {
		rid, conflict, err := s.Row.FirstConflict(name, tx.writes[name].delOrder)
		if err != nil {
			s.writeMu.Unlock()
			applySpan.End()
			s.txnAborted.Add(1)
			return nil, err
		}
		if conflict {
			s.writeMu.Unlock()
			applySpan.End()
			s.txnConflicted.Add(1)
			return nil, fmt.Errorf("%w: table %s row %d was written by a concurrent transaction",
				ErrConflict, name, rid)
		}
	}
	return &Prepared{tx: tx, names: names, locked: true, trace: t, applySpan: applySpan}, nil
}

// Abort releases the critical section without publishing anything — the
// cross-shard coordinator's answer when another participant's Prepare
// failed. Shared state is untouched.
func (p *Prepared) Abort() {
	s := p.tx.sys
	if p.locked {
		p.locked = false
		s.writeMu.Unlock()
		p.applySpan.End()
	}
	s.txnAborted.Add(1)
}

// Publish applies the write set at consecutive local LSNs, publishes the
// commit point, logs it and releases the critical section. The returned
// wait closure (nil on a volatile system or an empty commit) performs the
// group-commit durability wait and must be called outside every lock —
// after ALL participants have published, in the cross-shard case.
func (p *Prepared) Publish() (*TxnResult, func() error, error) {
	tx, t := p.tx, p.trace
	s := tx.sys
	if !p.locked {
		// empty write set: nothing was locked, nothing publishes
		s.txnCommitted.Add(1)
		return &TxnResult{LSN: s.CommitLSN()}, nil, nil
	}
	p.locked = false
	applySpan := p.applySpan

	// apply every table at consecutive LSNs, publish once at the end
	lsn := s.Row.CommitLSN()
	muts := make([]*repl.Mutation, 0, len(p.names))
	for _, name := range p.names {
		tw := tx.writes[name]
		inserts := make([]value.Row, 0, tw.liveInserts)
		for _, pr := range tw.inserts {
			if !pr.dead {
				inserts = append(inserts, pr.row)
			}
		}
		lsn++
		mut, err := s.Row.ApplyAt(name, tw.delOrder, inserts, lsn)
		if err != nil {
			// the conflict check passed, so this is an invariant violation;
			// earlier tables of this transaction may already be applied —
			// poison the write path rather than serve a half-applied commit
			s.walErr = fmt.Errorf("htap: partial transaction apply at LSN %d: %w", lsn, err)
			err = s.walErr
			s.writeMu.Unlock()
			applySpan.End()
			s.txnAborted.Add(1)
			return nil, nil, err
		}
		muts = append(muts, mut)
	}
	s.Row.PublishCommit(lsn)
	if s.wal != nil {
		var rec wal.Record
		if len(muts) == 1 {
			rec = wal.Record{LSN: muts[0].LSN, Kind: wal.KindMutation, Body: wal.EncodeMutation(muts[0])}
		} else {
			rec = wal.Record{LSN: lsn, Kind: wal.KindTxn, Body: wal.EncodeTxn(muts)}
		}
		walSpan := t.Begin("wal_append")
		err := s.wal.Append(rec)
		walSpan.End()
		if err != nil {
			// the heap already applied the commit but the log did not record
			// it: acknowledging could lose it on restart, so poison instead
			s.walErr = err
			s.writeMu.Unlock()
			applySpan.End()
			s.txnAborted.Add(1)
			return nil, nil, fmt.Errorf("htap: logging commit %d: %w", lsn, err)
		}
	}
	for _, mut := range muts {
		s.replCh <- mut
	}
	s.writeMu.Unlock()
	applySpan.End()

	res := &TxnResult{LSN: lsn, RowsAffected: tx.rowsAffected, Tables: p.names}
	if s.wal == nil {
		s.txnCommitted.Add(1)
		return res, nil, nil
	}
	wait := func() error {
		fsyncSpan := t.Begin("wal_fsync_wait")
		err := s.wal.WaitDurable(lsn)
		fsyncSpan.End()
		if err != nil {
			// a failed fsync is sticky in the WAL; make it sticky here too
			s.writeMu.Lock()
			if s.walErr == nil {
				s.walErr = err
			}
			s.writeMu.Unlock()
			s.txnAborted.Add(1)
			return fmt.Errorf("htap: commit %d not durable: %w", lsn, err)
		}
		s.txnCommitted.Add(1)
		return nil
	}
	return res, wait, nil
}
