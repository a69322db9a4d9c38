package recovery

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"htapxplain/internal/catalog"
	"htapxplain/internal/rowstore"
	"htapxplain/internal/value"
)

func testCheckpoint(lsn uint64) *Checkpoint {
	return &Checkpoint{
		LSN: lsn,
		Tables: map[string]rowstore.HeapSnapshot{
			"customer": {
				Rows: []value.Row{
					{value.NewInt(1), value.NewString("alice"), value.NewFloat(10.5)},
					{value.NewInt(2), value.NewString("bob"), value.Null},
					{value.NewInt(3), value.NewString("carol"), value.NewFloat(-2)},
				},
				Versions: []rowstore.VersionMeta{
					{InsertLSN: 0},
					{InsertLSN: 0, DeleteLSN: lsn - 1},
					{InsertLSN: lsn},
				},
			},
			"nation": {
				Rows:     []value.Row{{value.NewInt(4), value.NewBool(true)}},
				Versions: []rowstore.VersionMeta{{InsertLSN: 2}},
			},
		},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := testCheckpoint(7)
	path, err := Write(dir, want)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	latest, err := LoadLatest(dir)
	if err != nil || !reflect.DeepEqual(latest, want) {
		t.Fatalf("LoadLatest: %+v, %v", latest, err)
	}
}

func TestCheckpointDeterministicBytes(t *testing.T) {
	d1, d2 := t.TempDir(), t.TempDir()
	p1, err := Write(d1, testCheckpoint(7))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Write(d2, testCheckpoint(7))
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(p1)
	b2, _ := os.ReadFile(p2)
	if !reflect.DeepEqual(b1, b2) {
		t.Fatal("identical checkpoints produced different bytes")
	}
}

func TestLoadLatestFallsBackPastCorruption(t *testing.T) {
	dir := t.TempDir()
	older := testCheckpoint(5)
	if _, err := Write(dir, older); err != nil {
		t.Fatal(err)
	}
	newerPath, err := Write(dir, testCheckpoint(9))
	if err != nil {
		t.Fatal(err)
	}
	// bit-flip the newer checkpoint: LoadLatest must fall back to LSN 5
	data, _ := os.ReadFile(newerPath)
	data[len(data)/2] ^= 0x04
	if err := os.WriteFile(newerPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.LSN != 5 {
		t.Fatalf("LoadLatest = %+v, want fallback to LSN 5", got)
	}
	if !reflect.DeepEqual(got, older) {
		t.Fatal("fallback checkpoint content mismatch")
	}
}

func TestLoadLatestEmptyDir(t *testing.T) {
	ck, err := LoadLatest(filepath.Join(t.TempDir(), "does-not-exist"))
	if err != nil || ck != nil {
		t.Fatalf("LoadLatest on missing dir = %+v, %v; want nil, nil", ck, err)
	}
}

func TestPruneKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	for _, lsn := range []uint64{3, 8, 15, 21} {
		if _, err := Write(dir, testCheckpoint(lsn)); err != nil {
			t.Fatal(err)
		}
	}
	// the oldest survivor is the log's retirement floor
	if floor, err := Prune(dir, KeepCheckpoints); err != nil || floor != 15 {
		t.Fatalf("Prune = %d, %v; want oldest kept LSN 15", floor, err)
	}
	ents, _ := os.ReadDir(dir)
	var kept []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ckptSuffix) {
			kept = append(kept, e.Name())
		}
	}
	if len(kept) != KeepCheckpoints {
		t.Fatalf("kept %v, want %d newest", kept, KeepCheckpoints)
	}
	ck, err := LoadLatest(dir)
	if err != nil || ck.LSN != 21 {
		t.Fatalf("LoadLatest after prune = %+v, %v", ck, err)
	}
}

func TestTruncatedCheckpointRejected(t *testing.T) {
	dir := t.TempDir()
	path, err := Write(dir, testCheckpoint(7))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	for _, cut := range []int{0, 4, len(data) / 2, len(data) - 1} {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
}

// testCatalog builds a tiny catalog matching testCheckpoint's shape.
func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New(1)
	if err := cat.AddTable(&catalog.Table{
		Name: "customer",
		Columns: []catalog.Column{
			{Name: "c_custkey", Type: catalog.TypeInt},
			{Name: "c_name", Type: catalog.TypeString},
			{Name: "c_acctbal", Type: catalog.TypeFloat},
		},
		Indexes: []catalog.Index{{Name: "pk_customer", Table: "customer", Column: "c_custkey", Kind: catalog.PrimaryIndex}},
		Rows:    3,
	}); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddTable(&catalog.Table{
		Name: "nation",
		Columns: []catalog.Column{
			{Name: "n_nationkey", Type: catalog.TypeInt},
			{Name: "n_flag", Type: catalog.TypeInt},
		},
		Rows: 1,
	}); err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestRestoreIntoRowstore closes the loop: a checkpoint written from heap
// snapshots must restore into a row store with the same live rows, index
// structure and commit LSN.
func TestRestoreIntoRowstore(t *testing.T) {
	ck := testCheckpoint(7)
	// build a catalog matching the test checkpoint's shape
	cat := testCatalog(t)
	s, err := rowstore.NewStoreFromSnapshot(cat, ck.Tables, ck.LSN)
	if err != nil {
		t.Fatalf("NewStoreFromSnapshot: %v", err)
	}
	if s.CommitLSN() != 7 {
		t.Fatalf("CommitLSN = %d, want 7", s.CommitLSN())
	}
	tbl, _ := s.Table("customer")
	if tbl.NumRows() != 3 || tbl.NumLive() != 2 {
		t.Fatalf("customer: %d rows / %d live, want 3 / 2", tbl.NumRows(), tbl.NumLive())
	}
	ix, ok := tbl.IndexOn("c_custkey")
	if !ok {
		t.Fatal("declared index not rebuilt")
	}
	if ids := ix.Lookup(value.NewInt(2)); len(ids) != 0 {
		t.Fatalf("tombstoned row still indexed: %v", ids)
	}
	if ids := ix.Lookup(value.NewInt(3)); len(ids) != 1 {
		t.Fatalf("live row not indexed: %v", ids)
	}
}
