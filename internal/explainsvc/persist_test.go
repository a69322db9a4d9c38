package explainsvc

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"htapxplain/internal/htap"
	"htapxplain/internal/shard"
)

// bootState is the sha256 of what a first Bootstrap at the server's seed
// (7) and default sizes writes — the sums cmd/htapserve's
// TestBootStateIsPinned holds the served state to.
var bootState = map[string]string{
	routerFile: "ccd2a212c5e78f7f455ae6d5e4c8544729eb336e72aec820ae0b28331bc969c8",
	kbFile:     "363ab27f091505431e1aa819ac4ae4aa4af069c4870eb864866118b33cfee88d",
}

// TestBootStateIsTheServers: Bootstrap writes the served router and
// knowledge base byte for byte over a volatile system, a durable one and a
// volatile one wrapped as a one-shard fleet, the server's own shape —
// durability changes nothing a first boot trains or curates from. The
// bytes also depend on the process: gob numbers the types it encodes in
// the order a process first meets them, so state saved after other gob
// encodings (another test's Save) decodes the same but reads differently.
// The test therefore checks in a fresh process of its own, as the server
// boots.
func TestBootStateIsTheServers(t *testing.T) {
	if os.Getenv("BOOT_STATE_CHILD") == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBootStateIsTheServers$", "-test.count=1")
		cmd.Env = append(os.Environ(), "BOOT_STATE_CHILD=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("in a fresh process: %v\n%s", err, out)
		}
		return
	}
	systems := []struct {
		name string
		open func() (*htap.System, error)
	}{
		{"volatile", func() (*htap.System, error) { return htap.New(htap.DefaultConfig()) }},
		{"durable", func() (*htap.System, error) { return htap.Open(t.TempDir(), htap.DefaultConfig()) }},
		{"one-shard fleet", func() (*htap.System, error) {
			sys, err := htap.New(htap.DefaultConfig())
			if err != nil {
				return nil, err
			}
			return shard.Wrap(sys).Shard(0), nil
		}},
	}
	for _, c := range systems {
		sys, err := c.open()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		dir := t.TempDir()
		_, _, restored, err := Bootstrap(sys, BootstrapConfig{Seed: 7, Dir: dir})
		sys.Close()
		if err != nil || restored {
			t.Fatalf("%s: Bootstrap: restored %v, err %v, want a first boot", c.name, restored, err)
		}
		for name, want := range bootState {
			b, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if sum := fmt.Sprintf("%x", sha256.Sum256(b)); sum != want {
				t.Errorf("%s: %s (%d bytes) has sha256 %s, want %s", c.name, name, len(b), sum, want)
			}
		}
	}
}

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
