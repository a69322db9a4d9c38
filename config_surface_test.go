package bench

import (
	"os"
	"reflect"
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
	readme, err := os.ReadFile("README.md")
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
