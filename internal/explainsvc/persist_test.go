package explainsvc

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnreadableStateIsNotAFirstBoot: saved state that exists but does
// not decode is an error naming the file, and nothing is written — a
// Bootstrap that took it for "no state" would train a fresh router and
// save it over a retrained one and every expert-corrected entry. Only a
// missing file means first boot.
func TestUnreadableStateIsNotAFirstBoot(t *testing.T) {
	sys, r, kb := testEnv(t)
	dir := t.TempDir()
	svc := newService(t, sys, newGateway(t, sys, 1), r, kb, Config{Seed: 1, Dir: dir})
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	routerPath, kbPath := filepath.Join(dir, routerFile), filepath.Join(dir, kbFile)
	read := func(path string) []byte {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	savedRouter := read(routerPath)
	torn := read(kbPath)[:100]
	if err := os.WriteFile(kbPath, torn, 0o600); err != nil {
		t.Fatal(err)
	}

	boot := BootstrapConfig{TrainQueries: 16, Epochs: 2, KBSize: 4, Seed: 7, Dir: dir}
	_, _, _, err := Bootstrap(sys, boot)
	if err == nil || !strings.Contains(err.Error(), kbFile) {
		t.Fatalf("Bootstrap over a truncated %s: err = %v, want an error naming the file", kbFile, err)
	}
	if !bytes.Equal(read(routerPath), savedRouter) || !bytes.Equal(read(kbPath), torn) {
		t.Fatal("Bootstrap wrote over state it could not read")
	}

	if err := os.Remove(kbPath); err != nil {
		t.Fatal(err)
	}
	_, fresh, restored, err := Bootstrap(sys, boot)
	if err != nil || restored {
		t.Fatalf("Bootstrap with %s missing: restored %v, err %v, want a first boot", kbFile, restored, err)
	}
	if _, kb2, restored, err := Bootstrap(sys, boot); err != nil || !restored || kb2.Len() != fresh.Len() {
		t.Fatalf("Bootstrap after the first boot: restored %v, err %v, want the %d saved entries", restored, err, fresh.Len())
	}
}
