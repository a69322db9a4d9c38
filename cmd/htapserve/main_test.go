package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"htapxplain/internal/explainsvc"
	"htapxplain/internal/gateway"
)

// TestFlagSurface: htapserve registers exactly the documented flags, each
// with its default and meaning in README's flag table, and a removed flag
// is a usage error.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"addr", "checkpoint-interval", "data-dir", "drift-threshold", "explain",
		"fsync-bytes", "fsync-interval", "observed-every", "policy", "queue",
		"shards", "slow-query-ms", "trace-sample", "wal-segment-bytes", "workers",
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	newFlagSet(new(options)).VisitAll(func(f *flag.Flag) {
		got = append(got, f.Name)
		def := f.DefValue
		if def == "" {
			def = `""`
		}
		row := fmt.Sprintf("| `-%s` | `%s` | %s |", f.Name, def, f.Usage)
		if !strings.Contains(string(readme), row) {
			t.Errorf("README's flag table lacks the row\n%s", row)
		}
	})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("registered flags\n%v\nwant\n%v", got, want)
	}
	if err := run(context.Background(), []string{"-load"}, io.Discard); !errors.Is(err, errUsage) {
		t.Errorf("run -load = %v, want a usage error", err)
	}
}

// serve starts run with the arguments and waits until it listens. It
// returns the server's base URL and a function that cancels run and
// returns what it returned.
func serve(t *testing.T, args ...string) (url string, shutdown func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	stdout, w := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, args, w)
		w.Close()
	}()
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "listening on "); ok {
				addr <- a
			}
		}
	}()
	shutdown = func() error {
		cancel()
		select {
		case err := <-done:
			return err
		case <-time.After(time.Minute):
			return errors.New("run did not return within a minute of the cancel")
		}
	}
	select {
	case a := <-addr:
		return "http://" + a, shutdown
	case err := <-done:
		t.Fatalf("run %v returned before listening: %v", args, err)
	case <-time.After(2 * time.Minute):
		t.Fatalf("run %v did not listen within two minutes", args)
	}
	return "", nil
}

// post sends {"sql": sql} to the path, requires a 200 and decodes the
// reply into out.
func post(t *testing.T, url, sql string, out any) {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"sql": sql})
	resp, err := http.Post(url, "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s %q: status %d", url, sql, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("POST %s %q: %v", url, sql, err)
	}
}

// TestServeSmoke drives the binary's wiring end to end: a durable
// two-shard fleet serves every endpoint, shuts down cleanly on cancel, and
// a second server over the same directory has the first one's write.
func TestServeSmoke(t *testing.T) {
	args := []string{"-addr", "127.0.0.1:0", "-shards", "2", "-data-dir", t.TempDir()}
	const (
		insert = `INSERT INTO customer (c_custkey, c_name, c_address, c_nationkey, c_phone, c_acctbal, c_mktsegment, c_comment) ` +
			`VALUES (3000000007, 'smoke', 'addr', 1, '11-111', 1.00, 'machinery', 'smoke')`
		readBack = `SELECT c_name FROM customer WHERE c_custkey = 3000000007`
	)

	url, shutdown := serve(t, args...)
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status %d", resp.StatusCode)
	}
	var q gateway.QueryResponse
	post(t, url+"/query", `SELECT c_name FROM customer WHERE c_custkey = 7`, &q)
	if q.Error != "" || q.RowCount != 1 {
		t.Errorf("pinned read: %d rows, error %q", q.RowCount, q.Error)
	}
	q = gateway.QueryResponse{}
	post(t, url+"/query", insert, &q)
	if q.Error != "" || q.RowsAffected != 1 {
		t.Errorf("insert: %d rows affected, error %q", q.RowsAffected, q.Error)
	}
	var e explainsvc.ExplainResponse
	post(t, url+"/explain", `SELECT COUNT(*) FROM customer, orders WHERE o_custkey = c_custkey`, &e)
	if e.Explanation == "" && !e.None {
		t.Error("/explain returned neither an explanation nor none")
	}
	resp, err = http.Get(url + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"htap_queries_total 2", `htap_shard_queries_total{shard="1"}`, "htap_explain_served_total 1"} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("prometheus exposition lacks %q", want)
		}
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	url, shutdown = serve(t, args...)
	q = gateway.QueryResponse{}
	post(t, url+"/query", readBack, &q)
	if q.Error != "" || q.RowCount != 1 || q.Rows[0][0] != "smoke" {
		t.Errorf("after the restart the inserted row reads back as %v (error %q)", q.Rows, q.Error)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// bootState are the sha256 sums of the router.gob and kb.gob a server's
// first boot writes under -data-dir, server defaults otherwise. The router
// is trained on, and the knowledge base curated from, modeled plan pairs,
// so a change to planning or plan costs shows here; an executor change —
// what a scan decodes, reads or emits — must not.
var bootState = map[string]string{
	"router.gob": "ccd2a212c5e78f7f455ae6d5e4c8544729eb336e72aec820ae0b28331bc969c8",
	"kb.gob":     "363ab27f091505431e1aa819ac4ae4aa4af069c4870eb864866118b33cfee88d",
}

// TestBootStateIsPinned: a first boot writes byte-identical state.
func TestBootStateIsPinned(t *testing.T) {
	dir := t.TempDir()
	_, shutdown := serve(t, "-addr", "127.0.0.1:0", "-data-dir", dir)
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for name, want := range bootState {
		b, err := os.ReadFile(filepath.Join(dir, "explain", name))
		if err != nil {
			t.Fatal(err)
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256(b)); sum != want {
			t.Errorf("%s (%d bytes) has sha256 %s, want %s", name, len(b), sum, want)
		}
	}
}
