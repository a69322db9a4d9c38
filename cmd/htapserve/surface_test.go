package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"htapxplain/internal/explainsvc"
	"htapxplain/internal/gateway"
	"htapxplain/internal/htap"
	"htapxplain/internal/obs"
	"htapxplain/internal/shard"
	"htapxplain/internal/wal"
)

// TestConfigSurface pins every exported field of the configuration
// structs, and requires README's Configuration table to have exactly one
// row per field, naming who sets it. A field added or removed fails here
// until both the pinned list and the table say so — as TestFlagSurface
// does for htapserve's flags.
func TestConfigSurface(t *testing.T) {
	pinned := []struct {
		name   string
		v      any
		fields []string
	}{
		{"htap.Config", htap.Config{}, []string{"ModeledSF", "Data", "Preloaded", "Durability", "Encoding"}},
		{"htap.DurabilityConfig", htap.DurabilityConfig{}, []string{"Dir", "SyncInterval", "SyncBytes", "SegmentBytes", "CheckpointInterval", "SimulatedSyncLatency"}},
		{"gateway.Config", gateway.Config{}, []string{"Workers", "QueueDepth", "CacheCapacity", "CacheShards", "Policy", "Tracer", "ObservedEvery"}},
		{"shard.Options", shard.Options{}, []string{"FragDOP", "Dir"}},
		{"explainsvc.Config", explainsvc.Config{}, []string{"K", "Seed", "Window", "DriftThreshold", "RetrainEpochs", "CheckInterval", "Dir", "OnSwap"}},
		{"explainsvc.BootstrapConfig", explainsvc.BootstrapConfig{}, []string{"TrainQueries", "Epochs", "KBSize", "Seed", "Dir"}},
		{"wal.Options", wal.Options{}, []string{"Dir", "SegmentBytes", "SyncInterval", "SyncBytes", "SimulatedSyncLatency"}},
		{"obs.TracerConfig", obs.TracerConfig{}, []string{"SampleRate", "RingSize", "SlowQuery", "SlowLogf"}},
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, _ := strings.Cut(string(readme), "\n## Configuration\n")
	table, _, _ = strings.Cut(table, "\n## ")
	rows := 0
	for _, line := range strings.Split(table, "\n") {
		if strings.HasPrefix(line, "| `") {
			rows++
		}
	}
	want := 0
	for _, p := range pinned {
		var got []string
		for _, f := range reflect.VisibleFields(reflect.TypeOf(p.v)) {
			if f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if !reflect.DeepEqual(got, p.fields) {
			t.Errorf("%s has fields\n%v\npinned\n%v", p.name, got, p.fields)
		}
		for _, f := range got {
			if row := "| `" + p.name + "." + f + "` |"; !strings.Contains(table, row) {
				t.Errorf("README's Configuration table lacks the row %s", row)
			}
		}
		want += len(got)
	}
	if rows != want {
		t.Errorf("README's Configuration table has %d rows, want one per field: %d", rows, want)
	}
}

// TestNightlyFuzzCoversEveryTarget: every fuzz target in the module has
// its row in the nightly fuzz job's matrix, and every row names one, so a
// new fuzzer is fuzzed and not only run on its seed corpus.
func TestNightlyFuzzCoversEveryTarget(t *testing.T) {
	const root = "../.."
	matrix, err := os.ReadFile(filepath.Join(root, ".github/workflows/nightly-fuzz.yml"))
	if err != nil {
		t.Fatal(err)
	}
	fuzzFunc := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	targets := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		for _, m := range fuzzFunc.FindAllSubmatch(src, -1) {
			targets++
			row := fmt.Sprintf("- { pkg: ./%s, fuzz: %s }", filepath.ToSlash(rel), m[1])
			if !strings.Contains(string(matrix), row) {
				t.Errorf("nightly-fuzz.yml's matrix lacks the row %s", row)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows := strings.Count(string(matrix), "- { pkg: "); rows != targets {
		t.Errorf("nightly-fuzz.yml's matrix has %d rows for %d fuzz targets", rows, targets)
	}
}
