package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"htapxplain/internal/htap"
	"htapxplain/internal/sqlparser"
	"htapxplain/internal/value"
	"htapxplain/internal/workload"
)

// class is the per-class view of a mixed workload.
type class uint8

const (
	classTP class = iota
	classAP
	classDML
	classTxn
	classExplain
	classWhySlow
	numClasses
)

var classNames = [numClasses]string{"tp", "ap", "dml", "txn", "explain", "whyslow"}

// stmt is one pre-generated request.
type stmt struct {
	path string // /query, /explain or /whyslow
	sql  string
	body []byte // the JSON request body
	tmpl int    // index into stream.templates
	// class is fixed for writes and explanations; a /query read takes
	// the class of the engine that served it.
	class class
	write bool

	// reads: what the reply must hold (nil until references are computed)
	ref *reference
	// writes: the customer keys the statement inserts and deletes
	inserts []int64
	deletes []int64
	// commits is false for a block that ends in ROLLBACK
	commits bool
}

// reference is the independently computed answer to one read.
type reference struct {
	RowCount int      `json:"row_count"`
	Rows     []string `json:"rows"`   // canonical; nil when the reply would be truncated
	Winner   string   `json:"winner"` // modeled faster engine, "TP" or "AP"
}

// stream is a workload's request sequence: at(i) is request i, nil once
// a non-repeating part of the mix is used up.
type stream struct {
	templates []string
	reads     []*stmt // every distinct read, for references, warm-up and probes
	writes    []*stmt // every generated write, for the probes
	at        func(i int64) *stmt
	// mixed is true when writes run beside the reads
	mixed bool
}

func (st *stream) template(name string) int {
	for i, t := range st.templates {
		if t == name {
			return i
		}
	}
	st.templates = append(st.templates, name)
	return len(st.templates) - 1
}

func (st *stream) newStmt(path, tmpl, sql string, c class) *stmt {
	body, err := json.Marshal(map[string]string{"sql": sql})
	if err != nil {
		panic(err) // a map of strings always marshals
	}
	return &stmt{path: path, sql: sql, body: body, tmpl: st.template(tmpl), class: c, commits: true}
}

func (st *stream) addReads(seed int64, templates []string, perTemplate int) []*stmt {
	gen := workload.NewGenerator(seed)
	lists := make([][]*stmt, len(templates))
	for i, t := range templates {
		for _, q := range gen.BatchOf(t, perTemplate) {
			lists[i] = append(lists[i], st.newStmt("/query", t, q.SQL, classTP))
		}
	}
	// interleave so consecutive requests come from different templates
	var out []*stmt
	for j := 0; j < perTemplate; j++ {
		for i := range lists {
			out = append(out, lists[i][j])
		}
	}
	st.reads = append(st.reads, out...)
	return out
}

// readStream cycles over perTemplate generated statements of each
// template; after one pass every request is a full plan-cache hit.
func readStream(seed int64, templates []string, perTemplate int) *stream {
	st := &stream{}
	pool := st.addReads(seed, templates, perTemplate)
	st.at = func(i int64) *stmt { return pool[i%int64(len(pool))] }
	return st
}

// churnBinds is how many distinct literal vectors of one fingerprint the
// churn stream cycles through, in a fixed order: more than the 32 a
// template retains, so a vector is evicted before it comes round again.
const (
	churnBinds    = 64
	churnMinBinds = 33
)

func churnStream(seed int64, templates []string) *stream {
	st := &stream{}
	gen := workload.NewGenerator(seed)
	var groups [][]*stmt
	for _, t := range templates {
		byFP := map[string]int{}
		seen := map[string]bool{}
		var local [][]*stmt
		// the generator's literal domains are small, so draw until each
		// fingerprint of the template has churnBinds distinct vectors or
		// the draws stop finding new ones
		for _, q := range gen.BatchOf(t, 40*churnBinds) {
			fp, params, err := sqlparser.Fingerprint(q.SQL)
			if err != nil {
				panic(fmt.Sprintf("bench: fingerprint %q: %v", q.SQL, err))
			}
			key := fp + "\x00" + sqlparser.ParamKey(params)
			if seen[key] {
				continue
			}
			seen[key] = true
			gi, ok := byFP[fp]
			if !ok {
				gi = len(local)
				byFP[fp] = gi
				local = append(local, nil)
			}
			if len(local[gi]) < churnBinds {
				local[gi] = append(local[gi], st.newStmt("/query", t, q.SQL, classTP))
			}
		}
		for _, g := range local {
			if len(g) < churnMinBinds {
				panic(fmt.Sprintf("bench: template %s has only %d distinct literal vectors", t, len(g)))
			}
			groups = append(groups, g)
			st.reads = append(st.reads, g...)
		}
	}
	m := int64(len(groups))
	st.at = func(i int64) *stmt {
		g := groups[i%m]
		return g[(i/m)%int64(len(g))]
	}
	return st
}

// explainStream sends five /explain for each /whyslow over the same
// statements.
func explainStream(_ *workloadDef, seed int64, _ int) *stream {
	st := &stream{}
	gen := workload.NewGenerator(seed)
	var explains, whys []*stmt
	for j := 0; j < 14; j++ {
		for _, t := range explainTemplates {
			q := gen.BatchOf(t, 1)[0]
			explains = append(explains, st.newStmt("/explain", "explain:"+t, q.SQL, classExplain))
			whys = append(whys, st.newStmt("/whyslow", "whyslow:"+t, q.SQL, classWhySlow))
		}
	}
	st.reads = append(append(st.reads, explains...), whys...)
	n := int64(len(explains))
	st.at = func(i int64) *stmt {
		whyBefore := (i + 1) / 6 // requests 5, 11, 17, ... are /whyslow
		if i%6 == 5 {
			return whys[whyBefore%n]
		}
		return explains[(i-whyBefore)%n]
	}
	return st
}

// mixedPattern is one period of the mixed workloads: 12 point reads (t),
// 2 analytic reads (a), 3 autocommit DML (d) and 3 BEGIN blocks (x).
const mixedPattern = "ttdtxttatdttxttdtatx"

// mixedWritesPerSecond bounds how many statements of each write kind are
// generated per measured second; a run that uses them up ends early.
const mixedWritesPerSecond = 1500

var (
	insertKeyRE = regexp.MustCompile(`VALUES \((\d+),`)
	deleteKeyRE = regexp.MustCompile(`DELETE FROM customer WHERE c_custkey = (\d+)`)
)

func keysIn(re *regexp.Regexp, sql string) []int64 {
	var out []int64
	for _, m := range re.FindAllStringSubmatch(sql, -1) {
		k, err := strconv.ParseInt(m[1], 10, 64)
		if err != nil {
			panic(err) // the pattern matches digits only
		}
		out = append(out, k)
	}
	return out
}

func mixedStream(def *workloadDef, seed int64, seconds int) *stream {
	st := &stream{mixed: true}
	writes := seconds * mixedWritesPerSecond
	tp := st.addReads(seed, tpTemplates, def.TPLiterals)
	ap := st.addReads(seed+1, apTemplates, def.APLiterals)
	var dml, txn []*stmt
	for _, q := range workload.NewDMLGenerator(seed).Batch(writes) {
		s := st.newStmt("/query", q.Template, q.SQL, classDML)
		dml = append(dml, s)
	}
	for _, q := range workload.NewTxnGenerator(seed).Batch(writes) {
		// the first blocks are shorter; one template for every block
		// that commits and one for every block that rolls back
		tmpl := "txn_block_commit"
		commits := strings.HasSuffix(q.SQL, "COMMIT")
		if !commits {
			tmpl = "txn_block_rollback"
		}
		s := st.newStmt("/query", tmpl, q.SQL, classTxn)
		s.commits = commits
		txn = append(txn, s)
	}
	for _, s := range append(append([]*stmt{}, dml...), txn...) {
		s.write = true
		s.inserts = keysIn(insertKeyRE, s.sql)
		s.deletes = keysIn(deleteKeyRE, s.sql)
	}
	st.writes = append(append(st.writes, dml...), txn...)

	period := int64(len(mixedPattern))
	var perPeriod [256]int64
	before := make([]int64, period) // same-kind requests earlier in the period
	for i := 0; i < len(mixedPattern); i++ {
		before[i] = perPeriod[mixedPattern[i]]
		perPeriod[mixedPattern[i]]++
	}
	st.at = func(i int64) *stmt {
		kind := mixedPattern[i%period]
		ord := (i/period)*perPeriod[kind] + before[i%period]
		switch kind {
		case 't':
			return tp[ord%int64(len(tp))]
		case 'a':
			return ap[ord%int64(len(ap))]
		case 'd':
			if ord >= int64(len(dml)) {
				return nil
			}
			return dml[ord]
		default:
			if ord >= int64(len(txn)) {
				return nil
			}
			return txn[ord]
		}
	}
	return st
}

// --- references and reply checks ---

func renderRows(rows []value.Row) [][]string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = make([]string, len(r))
		for j, v := range r {
			out[i][j] = v.String()
		}
	}
	return out
}

const cellSep = "\x1f"

// canonical renders each row as one string and sorts them, so that two row
// sets in different orders compare equal.
func canonical(rows [][]string) []string {
	joined := make([]string, len(rows))
	for i, r := range rows {
		joined[i] = strings.Join(r, cellSep)
	}
	sort.Strings(joined)
	return joined
}

// replyRowLimit is the gateway's cap on rows echoed in a reply.
const replyRowLimit = 100

// computeReferences runs every read of the stream on both engines and
// keeps the answer a reply must match. A sharded fleet is checked against
// an unsharded system over the same data, so that check is a differential
// one.
func computeReferences(s *system, st *stream) error {
	ref := s.sys
	if s.coord != nil {
		var err error
		if ref, err = htap.New(htapConfig(s.def)); err != nil {
			return err
		}
		defer ref.Close()
	}
	bySQL := map[string]*reference{}
	for _, s := range st.reads {
		if r, ok := bySQL[s.sql]; ok {
			s.ref = r
			continue
		}
		res, err := ref.Run(s.sql)
		if err != nil {
			return fmt.Errorf("reference for %q: %w", s.sql, err)
		}
		if !res.ResultsAgree {
			return fmt.Errorf("reference for %q: the two engines disagree", s.sql)
		}
		r := &reference{RowCount: len(res.TPRows), Winner: res.Winner.String()}
		if r.RowCount <= replyRowLimit {
			r.Rows = canonical(renderRows(res.TPRows))
		}
		bySQL[s.sql] = r
		s.ref = r
	}
	return nil
}

// referenceRecord is one read's entry in the file that carries the
// references from the process that computed them to the one that measures.
type referenceRecord struct {
	SQL string     `json:"sql"`
	Ref *reference `json:"ref"`
}

func writeReferences(path string, st *stream) error {
	recs := make([]referenceRecord, len(st.reads))
	for i, s := range st.reads {
		recs[i] = referenceRecord{s.sql, s.ref}
	}
	data, err := json.Marshal(recs)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// loadReferences reads what writeReferences wrote for the same seed; the
// two processes must have generated the same reads.
func loadReferences(path string, st *stream) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var recs []referenceRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) != len(st.reads) {
		return fmt.Errorf("%s holds %d references, the stream has %d reads", path, len(recs), len(st.reads))
	}
	for i, s := range st.reads {
		if recs[i].SQL != s.sql || recs[i].Ref == nil {
			return fmt.Errorf("%s: reference %d is for %q, the stream's read is %q", path, i, recs[i].SQL, s.sql)
		}
		s.ref = recs[i].Ref
	}
	return nil
}

// checkRows reports why the reply's rows differ from the reference, or "".
// Float cells may differ in the last digits: engines and shards add in
// different orders.
func (r *reference) checkRows(rowCount int, rows [][]string, truncated bool) string {
	if rowCount != r.RowCount {
		return fmt.Sprintf("row_count %d, want %d", rowCount, r.RowCount)
	}
	if r.Rows == nil || truncated {
		return ""
	}
	if len(rows) != len(r.Rows) {
		return fmt.Sprintf("%d rows in the reply, want %d", len(rows), len(r.Rows))
	}
	for i, row := range canonical(rows) {
		if row == r.Rows[i] {
			continue
		}
		got, want := strings.Split(row, cellSep), strings.Split(r.Rows[i], cellSep)
		if len(got) != len(want) {
			return fmt.Sprintf("row %d has %d cells, want %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] && !closeFloats(got[j], want[j]) {
				return fmt.Sprintf("row %d cell %d is %q, want %q", i, j, got[j], want[j])
			}
		}
	}
	return ""
}

func closeFloats(a, b string) bool {
	x, err1 := strconv.ParseFloat(a, 64)
	y, err2 := strconv.ParseFloat(b, 64)
	if err1 != nil || err2 != nil {
		return false
	}
	return math.Abs(x-y) <= 1e-9*math.Max(math.Abs(x), math.Abs(y))
}
