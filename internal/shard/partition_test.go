package shard

import (
	"math"
	"testing"

	"htapxplain/internal/value"
)

func TestKeyStringNormalization(t *testing.T) {
	cases := []struct {
		a, b value.Value
	}{
		{value.NewInt(7), value.NewFloat(7.0)},
		{value.NewInt(-3), value.NewFloat(-3.0)},
		{value.NewFloat(0.0), value.NewFloat(math.Copysign(0, -1))},
		{value.NewInt(0), value.NewFloat(math.Copysign(0, -1))},
		{value.NewFloat(1.0), value.NewFloat(1.00001)},   // rounds to 1.0000
		{value.NewFloat(2.5), value.NewFloat(2.500004)},  // rounds to 2.5000
		{value.NewFloat(-0.00004), value.NewFloat(0.0)},  // rounds into -0.0, collapses
		{value.NewInt(1 << 40), value.NewFloat(1 << 40)}, // big but exact
	}
	for _, c := range cases {
		if KeyString(c.a) != KeyString(c.b) {
			t.Errorf("KeyString(%v)=%q != KeyString(%v)=%q", c.a, KeyString(c.a), c.b, KeyString(c.b))
		}
		if PartitionKey(c.a) != PartitionKey(c.b) {
			t.Errorf("PartitionKey diverges for %v vs %v", c.a, c.b)
		}
	}
	// distinct values must (here) keep distinct canonical forms
	distinct := []value.Value{
		value.NewInt(1), value.NewInt(2), value.NewFloat(1.5),
		value.NewString("1"), value.NewBool(true), value.Null,
	}
	seen := map[string]bool{}
	for _, v := range distinct {
		k := KeyString(v)
		if seen[k] {
			t.Errorf("canonical form %q collides", k)
		}
		seen[k] = true
	}
}

// TestPartitionKeyAllocs: routing a bound partition key hashes it in a
// stack buffer — a fleet's plan-cache hit allocates nothing to route.
func TestPartitionKeyAllocs(t *testing.T) {
	for _, v := range []value.Value{value.NewInt(7), value.NewFloat(2.5), value.NewString("customer#7")} {
		if n := testing.AllocsPerRun(100, func() { ShardOf(v, 4) }); n != 0 {
			t.Errorf("ShardOf(%v) allocates %.0f times, want 0", v, n)
		}
	}
}

func TestShardOfRange(t *testing.T) {
	for n := 1; n <= 8; n++ {
		for i := int64(0); i < 1000; i++ {
			s := ShardOf(value.NewInt(i), n)
			if s < 0 || s >= n {
				t.Fatalf("ShardOf(%d, %d) = %d out of range", i, n, s)
			}
		}
	}
	// keys spread: with 1000 sequential keys over 4 shards no shard is empty
	counts := make([]int, 4)
	for i := int64(0); i < 1000; i++ {
		counts[ShardOf(value.NewInt(i), 4)]++
	}
	for s, c := range counts {
		if c == 0 {
			t.Fatalf("shard %d received no keys out of 1000", s)
		}
	}
}

// FuzzPartitionKey checks the stability property the router depends on:
// shard assignment is invariant across value encodings. An integer and
// the float that holds the same (rounded) number must land on the same
// shard, -0.0 must land with +0.0, and the assignment must always be in
// range.
func FuzzPartitionKey(f *testing.F) {
	f.Add(int64(7), 7.0, "x", uint8(4))
	f.Add(int64(0), math.Copysign(0, -1), "", uint8(1))
	f.Add(int64(-12345), 1.00001, "key", uint8(7))
	f.Add(int64(1<<52), 2.500004, "-0.0", uint8(3))
	f.Fuzz(func(t *testing.T, i int64, fl float64, s string, nn uint8) {
		n := int(nn%8) + 1

		// every kind stays in range
		for _, v := range []value.Value{
			value.NewInt(i), value.NewFloat(fl), value.NewString(s), value.Null,
		} {
			got := ShardOf(v, n)
			if got < 0 || got >= n {
				t.Fatalf("ShardOf(%v, %d) = %d out of range", v, n, got)
			}
		}

		// int/float encoding equivalence: a float holding exactly i
		// shards identically to the int i (when representable)
		if f64 := float64(i); int64(f64) == i && math.Abs(f64) < 1<<53 {
			if ShardOf(value.NewInt(i), n) != ShardOf(value.NewFloat(f64), n) {
				t.Fatalf("int %d and float %g land on different shards", i, f64)
			}
		}

		// rounding normalization: a float and its 4-decimal rounding are
		// the same partition key
		if !math.IsNaN(fl) && !math.IsInf(fl, 0) {
			r := math.Round(fl*1e4) / 1e4
			if ShardOf(value.NewFloat(fl), n) != ShardOf(value.NewFloat(r), n) {
				t.Fatalf("float %g and rounded %g land on different shards", fl, r)
			}
			// -0.0 collapses
			if r == 0 {
				if ShardOf(value.NewFloat(fl), n) != ShardOf(value.NewFloat(0), n) {
					t.Fatalf("float %g (rounds to zero) diverges from +0.0", fl)
				}
			}
		}
	})
}
