package gateway

import (
	"strings"
	"testing"
	"time"
)

// The gateway txn suite covers the serving surface of transaction blocks:
// routing BEGIN/COMMIT/ROLLBACK scripts to the transactional write path,
// per-outcome counters on /metrics, and mixed transactional load.

func TestGatewayServesTxnBlocks(t *testing.T) {
	sys := writeSystem(t)
	g := New(sys, Config{Workers: 2, CacheCapacity: 64})
	defer g.Stop()

	resp := g.Serve(`BEGIN;
		INSERT INTO nation (n_nationkey, n_name, n_regionkey, n_comment) VALUES (95, 'lilliput', 0, 'small');
		INSERT INTO customer (c_custkey, c_name, c_address, c_nationkey, c_phone, c_acctbal, c_mktsegment, c_comment)
			VALUES (6000001, 'gulliver', 'beach', 1, '21-001', 10.00, 'machinery', 'washed ashore');
		UPDATE nation SET n_comment = 'tiny' WHERE n_nationkey = 95;
	COMMIT`)
	if resp.Err != nil {
		t.Fatalf("commit block: %v", resp.Err)
	}
	if resp.Kind != "commit" || resp.RowsAffected != 3 || resp.LSN == 0 {
		t.Fatalf("commit response = kind %q, %d rows, LSN %d; want commit/3/nonzero",
			resp.Kind, resp.RowsAffected, resp.LSN)
	}
	if err := sys.WaitFresh(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	sel := g.Serve(`SELECT COUNT(*) FROM nation WHERE n_comment = 'tiny'`)
	if sel.Err != nil || len(sel.Rows) != 1 || sel.Rows[0][0].I != 1 {
		t.Fatalf("committed block not visible: %+v (err %v)", sel.Rows, sel.Err)
	}

	// an explicit ROLLBACK discards the block
	resp = g.Serve(`BEGIN; INSERT INTO nation (n_nationkey, n_name, n_regionkey, n_comment) VALUES (96, 'atlantis', 0, 'myth'); ROLLBACK`)
	if resp.Err != nil || resp.Kind != "rollback" {
		t.Fatalf("rollback response = kind %q err %v", resp.Kind, resp.Err)
	}
	if sel := g.Serve(`SELECT COUNT(*) FROM nation WHERE n_nationkey = 96`); sel.Rows[0][0].I != 0 {
		t.Fatal("rolled-back insert visible through the gateway")
	}

	// a failed statement aborts the block; nothing commits
	resp = g.Serve(`BEGIN; INSERT INTO nation (n_nationkey, n_name, n_regionkey, n_comment) VALUES (97, 'erewhon', 0, 'lost'); INSERT INTO nosuch VALUES (1); COMMIT`)
	if resp.Err == nil || resp.Kind != "rollback" {
		t.Fatalf("failed-statement block: kind %q err %v, want rollback + error", resp.Kind, resp.Err)
	}
	if sel := g.Serve(`SELECT COUNT(*) FROM nation WHERE n_nationkey = 97`); sel.Rows[0][0].I != 0 {
		t.Fatal("aborted block's insert visible")
	}

	// malformed blocks are parse errors with readable messages
	for sql, want := range map[string]string{
		`BEGIN; BEGIN; COMMIT`: "nested BEGIN",
		`COMMIT`:               "COMMIT without BEGIN",
		`ROLLBACK`:             "ROLLBACK without BEGIN",
		`BEGIN; DELETE FROM nation WHERE n_nationkey = 95`: "missing COMMIT or ROLLBACK",
	} {
		resp := g.Serve(sql)
		if resp.Err == nil || !strings.Contains(resp.Err.Error(), want) {
			t.Errorf("Serve(%q) err = %v, want %q", sql, resp.Err, want)
		}
	}

	m := g.Metrics()
	// 1 commit + 1 explicit rollback + 1 failed block (malformed scripts
	// never open a transaction)
	if m.TxnCommits < 1 || m.TxnAborts < 2 {
		t.Errorf("txn counters = begun %d commits %d aborts %d conflicts %d",
			m.TxnBegun, m.TxnCommits, m.TxnAborts, m.TxnConflicts)
	}
	if m.TxnBegun != m.TxnCommits+m.TxnAborts+m.TxnConflicts {
		t.Errorf("outcome counters do not add up: %+v", m)
	}
	// the block's statements land in the per-kind write counters
	if m.WritesInsert < 2 || m.WritesUpdate < 1 {
		t.Errorf("write counters = ins %d upd %d, want >=2/>=1", m.WritesInsert, m.WritesUpdate)
	}
}

func TestGatewayTxnCountersExported(t *testing.T) {
	sys := writeSystem(t)
	g := New(sys, Config{Workers: 2})
	defer g.Stop()
	if resp := g.Serve(`BEGIN; INSERT INTO nation (n_nationkey, n_name, n_regionkey, n_comment) VALUES (98, 'avalon', 0, 'isle'); COMMIT`); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	text := g.PromText()
	for _, want := range []string{
		`htap_txn_begun_total`,
		`htap_txn_total{outcome="commit"} 1`,
		`htap_txn_total{outcome="abort"}`,
		`htap_txn_total{outcome="conflict"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("PromText missing %q", want)
		}
	}
	if snap := g.Metrics(); snap.TxnCommits != 1 {
		t.Errorf("TxnCommits = %d, want 1", snap.TxnCommits)
	}
}
