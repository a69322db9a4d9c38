// Package shard scales the HTAP system out across N in-process shards:
// hash-partitioned htap.Systems coordinated by a router that sends point
// reads and writes to exactly one shard, scatters analytical queries as
// per-shard plan fragments joined by exchange operators, and orders
// cross-shard transactions with a two-phase publish under a coordinator
// commit sequence.
package shard

import (
	"hash/fnv"
	"math"
	"strconv"
	"strings"

	"htapxplain/internal/value"
)

// Scheme is the partitioning layout: which column hash-partitions each
// table. Tables absent from the map are replicated to every shard.
type Scheme map[string]string

// PartitionColumn implements optimizer.PartitionView.
func (s Scheme) PartitionColumn(table string) (string, bool) {
	c, ok := s[strings.ToLower(table)]
	return c, ok
}

// TPCHScheme is the layout used for the TPC-H tables: every large table
// partitions by its primary key, lineitem co-partitions with orders on
// the order key (so the biggest join in the schema is partition-wise),
// and the two tiny dimension tables replicate everywhere.
func TPCHScheme() Scheme {
	return Scheme{
		"customer": "c_custkey",
		"orders":   "o_orderkey",
		"lineitem": "l_orderkey", // co-partitioned with orders
		"part":     "p_partkey",
		"partsupp": "ps_partkey", // co-partitioned with part
		"supplier": "s_suppkey",
		// nation, region: replicated
	}
}

// KeyString renders a partition-key value into the canonical form that is
// hashed — the normalization that makes shard assignment stable across
// value encodings. It mirrors the engine's result-comparison rules:
// floats are rounded to 4 decimals with -0.0 collapsed into +0.0 (the PR 3
// normalization), and a float that holds an exact integer renders exactly
// like the equivalent int, so `o_custkey = 7` and `o_custkey = 7.0` pin
// the same shard.
func KeyString(v value.Value) string { return string(appendKey(nil, v)) }

// appendKey appends v's canonical form (KeyString) to dst.
func appendKey(dst []byte, v value.Value) []byte {
	switch v.K {
	case value.KindInt:
		return strconv.AppendInt(append(dst, 'i'), v.I, 10)
	case value.KindFloat:
		f := math.Round(v.Float()*1e4) / 1e4
		if f == 0 {
			f = 0 // collapse -0.0 into +0.0
		}
		if f == math.Trunc(f) && math.Abs(f) < 1<<53 {
			return strconv.AppendInt(append(dst, 'i'), int64(f), 10)
		}
		return strconv.AppendFloat(append(dst, 'f'), f, 'f', 4, 64)
	case value.KindString:
		return append(append(dst, 's'), v.S...)
	case value.KindBool:
		if v.I != 0 {
			return append(dst, "b1"...)
		}
		return append(dst, "b0"...)
	default:
		return append(dst, 'n')
	}
}

// PartitionKey hashes a value's canonical form (FNV-1a 64), built in a
// stack buffer: routing a bound literal vector allocates nothing.
func PartitionKey(v value.Value) uint64 {
	var buf [64]byte
	h := fnv.New64a()
	_, _ = h.Write(appendKey(buf[:0], v))
	return h.Sum64()
}

// ShardOf maps a partition-key value to its owning shard.
func ShardOf(v value.Value, n int) int {
	return int(PartitionKey(v) % uint64(n))
}
