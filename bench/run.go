package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"htapxplain/internal/catalog"
	"htapxplain/internal/explainsvc"
	"htapxplain/internal/gateway"
	"htapxplain/internal/tpch"
)

// metricValue is one reported number. N is the sample count behind a
// percentile; NA says why a layer metric does not apply to the workload
// (its value is then 0).
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	NA    string  `json:"na,omitempty"`
}

// runReport is the outcome of one run of one workload.
type runReport struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// TemplateP50MS is each statement template's median round trip, the
	// terms of latency_gm_ms.
	TemplateP50MS map[string]float64 `json:"template_p50_ms,omitempty"`
	Notes         []string           `json:"notes,omitempty"`
	Failures      []string           `json:"failures,omitempty"`

	defs []metricDef
}

func newReport(o runOptions, defs []metricDef) *runReport {
	return &runReport{
		Workload: o.def.Name, Seed: o.seed, Seconds: o.seconds, Traced: o.traced,
		Correct: true, Metrics: map[string]metricValue{}, defs: defs,
	}
}

func (r *runReport) unit(name string) string {
	for _, d := range r.defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("bench: metric " + name + " is not defined")
}

func (r *runReport) set(name string, v float64) {
	r.Metrics[name] = metricValue{Value: v, Unit: r.unit(name)}
}

func (r *runReport) setN(name string, v float64, n int) {
	r.Metrics[name] = metricValue{Value: v, Unit: r.unit(name), N: n}
}

func (r *runReport) na(reason string, names ...string) {
	for _, name := range names {
		r.Metrics[name] = metricValue{Unit: r.unit(name), NA: reason}
	}
}

func (r *runReport) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *runReport) wrong(format string, args ...any) {
	r.Correct = false
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// complete checks that the run produced every metric it owes.
func (r *runReport) complete() error {
	for _, d := range r.defs {
		v, ok := r.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v.Value)
		}
	}
	return nil
}

type runOptions struct {
	def     *workloadDef
	seed    int64
	seconds float64
	traced  bool
	tmpRoot string // holds data directories and crash images
	// freshSetups is how many of an untraced run's set-ups happen in fresh
	// child processes before this process builds anything; the first child
	// also computes the reference answers. 0 in the smoke test, whose
	// shrunken workloads a child could not rebuild by name: the process
	// then computes the references itself, as a traced run does.
	freshSetups int
	// boot is the explanation service's bootstrap; htapserveBootstrap
	// except in the smoke test, which trains less
	boot  explainsvc.BootstrapConfig
	spans string // file the traced run's spans are written to, "" for none
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuSeconds is the process's user + system CPU time so far, and maxRSSMiB
// its peak resident set.
func cpuSeconds() (cpu, maxRSSMiB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// window is an interval of wall-clock time, in Unix nanoseconds: the clock
// a run's processes share.
type window struct {
	Start int64 `json:"start_unix_ns"`
	End   int64 `json:"end_unix_ns"`
}

func (w window) seconds() float64 { return float64(w.End-w.Start) / 1e9 }

// setUp is the interval setup_s measures: everything cmd/htapserve does
// until /healthz answers.
func setUp(o runOptions) (*system, *serving, window, error) {
	t0 := time.Now()
	s, err := buildSystem(o.def, o.seed, o.tmpRoot, o.boot)
	if err != nil {
		return nil, nil, window{}, err
	}
	sv, err := serve(s, o.seed, false)
	if err != nil {
		s.close()
		return nil, nil, window{}, err
	}
	return s, sv, window{t0.UnixNano(), time.Now().UnixNano()}, nil
}

// setupChild is the whole life of a fresh process (-child setup): one
// set-up, whose interval it prints, and with refsPath the reference
// answers to the run's reads.
func setupChild(workload string, seed int64, seconds float64, refsPath string) error {
	o, err := options(workload, seed, seconds)
	if err != nil {
		return err
	}
	s, sv, w, err := setUp(o)
	if err != nil {
		return err
	}
	defer s.close()
	defer sv.close()
	if refsPath != "" {
		st := o.def.mix(o.def, o.seed, int(math.Ceil(o.seconds)))
		if err := computeReferences(s, st); err != nil {
			return err
		}
		if err := writeReferences(refsPath, st); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(w)
}

// freshSetup runs setupChild in a child process and waits for it.
func freshSetup(o runOptions, refsPath string) (window, error) {
	var w window
	exe, err := os.Executable()
	if err != nil {
		return w, err
	}
	args := []string{"-child", "setup", "-workload", o.def.Name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64)}
	if refsPath != "" {
		args = append(args, "-refs", refsPath)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return w, fmt.Errorf("set-up in a fresh process: %w", err)
	}
	return w, json.Unmarshal(out, &w)
}

// bulkCustomers counts the customers a durable workload starts with.
func bulkCustomers(s *system) (int64, error) {
	if !s.def.Durable {
		return 0, nil
	}
	cs, err := readCustomers(s.shards())
	return cs.count, err
}

func (r *runReport) account(results ...*loadResult) {
	for _, res := range results {
		r.Attempted += res.attempted
		r.Failed += res.failed
		r.Failures = append(r.Failures, res.failures...)
		if res.exhausted {
			r.note("the pre-generated writes ran out before the time was up; the run ended early")
		}
	}
	if r.Failed > 0 {
		r.Correct = false
	}
}

// runUntraced measures the end-to-end metrics: setupRounds set-ups, one
// warm-up pass, then the closed loop with tracing off.
//
// All but the last set-up, and the reference answers with the unsharded
// system a fleet is checked against, belong to child processes that have
// ended before this process builds anything, so its CPU time and peak
// memory are those of one server and its load generator.
func runUntraced(o runOptions) (*runReport, error) {
	rep := newReport(o, endToEnd)
	st := o.def.mix(o.def, o.seed, int(math.Ceil(o.seconds)))
	speed, err := startSpeedometer()
	if err != nil {
		return nil, err
	}
	defer speed.stop()

	var setups []window
	refsPath := ""
	for i := 0; i < o.freshSetups; i++ {
		path := ""
		if i == 0 {
			if err := os.MkdirAll(o.tmpRoot, 0o755); err != nil {
				return nil, err
			}
			refsPath = filepath.Join(o.tmpRoot, fmt.Sprintf("refs-%d.json", os.Getpid()))
			defer os.Remove(refsPath)
			path = refsPath
		}
		w, err := freshSetup(o, path)
		if err != nil {
			return nil, err
		}
		setups = append(setups, w)
	}
	s, sv, w, err := setUp(o)
	if err != nil {
		return nil, err
	}
	defer s.close()
	defer sv.close()
	setups = append(setups, w)
	if refsPath != "" {
		err = loadReferences(refsPath, st)
	} else {
		err = computeReferences(s, st)
	}
	if err != nil {
		return nil, err
	}
	bulk, err := bulkCustomers(s)
	if err != nil {
		return nil, err
	}
	if err := warmUp(sv.url, st); err != nil {
		return nil, err
	}

	var next atomic.Int64
	cpu0, _ := cpuSeconds()
	res := runLoad(sv.url, st, &next, time.Duration(o.seconds*float64(time.Second)), nil)
	cpu1, rss := cpuSeconds()
	if err := speed.stop(); err != nil {
		return nil, err
	}
	rep.account(res)
	done := float64(len(res.samples))
	if done == 0 {
		return nil, fmt.Errorf("no request completed; first failure: %v", res.failures)
	}
	lat := latencies(st, res.samples)
	rep.TemplateP50MS = lat.templateP50

	// time metrics are reported at the reference speed (speed.go), each
	// interval at the speed the machine had during it
	f, n, err := speed.factor(res.window)
	if err != nil {
		return nil, err
	}
	var setupRaw, setupRef []float64
	for _, w := range setups {
		fw, _, err := speed.factor(w)
		if err != nil {
			return nil, err
		}
		setupRaw = append(setupRaw, w.seconds())
		setupRef = append(setupRef, w.seconds()/fw)
	}
	rps := done / res.elapsed.Seconds()
	cpuMS := (cpu1 - cpu0) * 1e3 / done
	rep.setN("setup_s", median(setupRef), len(setupRef))
	rep.set("throughput_rps", rps*f)
	rep.setN("latency_gm_ms", lat.gmMS/f, len(lat.templateP50))
	rep.setN("latency_p99_ms", lat.p99MS/f, lat.n)
	rep.set("cpu_ms_per_req", cpuMS/f)
	rep.set("peak_rss_mb", rss)
	rep.note("speed factor %.4f over %d kernel runs; as measured: setup_s %.4f, throughput_rps %.2f, latency_gm_ms %.4f, latency_p99_ms %.4f, cpu_ms_per_req %.4f",
		f, n, median(setupRaw), rps, lat.gmMS, lat.p99MS, cpuMS)
	if beyond := lat.n / 1000; beyond >= 10 {
		rep.note("p99.9 is %.3f ms as measured (%d samples beyond it)", lat.p999MS, beyond)
	}

	if o.def.Durable {
		rep.note("flush policy: group commit every 2 ms or 256 KiB, checkpoint every %v", checkpointInterval)
		if _, err := quiesceCheck(s, bulk, res, o.tmpRoot); err != nil {
			rep.wrong("durability: %v", err)
		} else {
			rep.note("crash image reopened with every acknowledged commit; the copy still sees the OS cache, so this proves ordering and recovery, not device flushes")
		}
	}
	return rep, rep.complete()
}

func fetchMetrics(url string) (gateway.Snapshot, error) {
	var snap gateway.Snapshot
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// runTraced measures the per-layer metrics. The time is split 40/40/20:
// the closed loop untraced (counts from /metrics deltas, server-reported
// times, allocation and class views), the same loop on a second gateway
// with the in-program tracer at rate 1 and spans around every request,
// then the layer probes.
func runTraced(o runOptions) (*runReport, error) {
	rep := newReport(o, perLayer)
	st := o.def.mix(o.def, o.seed, int(math.Ceil(o.seconds)))
	phase := time.Duration(0.4 * o.seconds * float64(time.Second))
	speed, err := startSpeedometer()
	if err != nil {
		return nil, err
	}
	defer speed.stop()

	s, sv, w, err := setUp(o)
	if err != nil {
		return nil, err
	}
	defer s.close()
	defer sv.close()
	setupS := w.seconds()

	// set-up stages; data generation happens inside htap.New / shard.New,
	// so it is timed on its own and taken out of the build time
	t0 := time.Now()
	if _, err := tpch.Generate(catalog.TPCH(s.cfg.ModeledSF), s.cfg.Data); err != nil {
		return nil, err
	}
	genS := time.Since(t0).Seconds()
	rep.set("tpch.generate_s", genS)
	rep.set("explainsvc.bootstrap_s", s.bootstrapS)
	rep.set("knowledge.hnsw_build_s", sv.hnswS)
	if s.coord != nil {
		rep.set("shard.build_s", s.buildS-genS)
		rep.na("the fleet is built by shard.New", "htap.build_s")
	} else {
		rep.set("htap.build_s", s.buildS-genS)
		rep.na("single system", "shard.build_s")
	}
	rep.set("setup.remainder_s", setupS-s.buildS-s.bootstrapS-sv.hnswS)

	if err := computeReferences(s, st); err != nil {
		return nil, err
	}
	bulk, err := bulkCustomers(s)
	if err == nil {
		err = warmUp(sv.url, st)
	}
	if err != nil {
		return nil, err
	}

	// untraced phase
	var next atomic.Int64
	var ms0, ms1 runtime.MemStats
	m0, err := fetchMetrics(sv.url)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms0)
	resU := runLoad(sv.url, st, &next, phase, nil)
	runtime.ReadMemStats(&ms1)
	m1, err := fetchMetrics(sv.url)
	sv.close()
	if err != nil {
		return nil, err
	}

	// traced phase, on a second gateway over the same system
	svT, err := serve(s, o.seed, true)
	if err != nil {
		return nil, err
	}
	defer svT.close()
	if err := warmUp(svT.url, st); err != nil {
		return nil, err
	}
	resT := runLoad(svT.url, st, &next, phase, svT.spans)
	if err := speed.stop(); err != nil {
		return nil, err
	}
	rep.account(resU, resT)
	if len(resU.samples) == 0 || len(resT.samples) == 0 {
		return nil, fmt.Errorf("no request completed; first failure: %v", rep.Failures)
	}
	fU, nU, err := speed.factor(resU.window)
	if err != nil {
		return nil, err
	}
	fT, _, err := speed.factor(resT.window)
	if err != nil {
		return nil, err
	}

	const probes = 24 // about how many probes a workload runs
	p := &prober{spans: svT.spans, slice: time.Duration(0.2 * o.seconds * float64(time.Second) / probes), ns: map[string][]float64{}}
	if err := runProbes(p, s, svT, st, o.seed, o.tmpRoot); err != nil {
		return nil, err
	}

	reopenS := 0.0
	if o.def.Durable {
		all := &loadResult{}
		all.merge(resU)
		all.merge(resT)
		if reopenS, err = quiesceCheck(s, bulk, all, o.tmpRoot); err != nil {
			rep.wrong("durability: %v", err)
		}
	}
	svT.close()
	self := svT.spans.finish()
	if o.spans != "" {
		if err := svT.spans.write(o.spans); err != nil {
			return nil, err
		}
	}
	if svT.spans.dropped > 0 {
		rep.note("%d spans were not recorded: the log holds %d", svT.spans.dropped, maxSpans)
	}
	rep.note("median self time: client.request %.1f us, http.handler %.1f us, gateway.serve %.1f us",
		self["client.request"]/1e3, self["http.handler"]/1e3, self["gateway.serve"]/1e3)

	layerMetrics(rep, o.def, st, resU, resT, m0, m1, &ms0, &ms1, p, reopenS)
	// each phase's throughput at the reference speed (speed.go), so that the
	// machine's drift between the phases is not booked as tracing overhead
	rpsU := float64(len(resU.samples)) / resU.elapsed.Seconds() * fU
	rpsT := float64(len(resT.samples)) / resT.elapsed.Seconds() * fT
	rep.set("obs.trace_overhead_frac", 1-div(rpsT, rpsU))
	rep.setN("bench.speed_factor", fU, nU)
	return rep, rep.complete()
}

// layerMetrics turns the traced run's observations into the per-layer
// metrics. Counts are deltas of /metrics over the untraced phase.
func layerMetrics(rep *runReport, def *workloadDef, st *stream, resU, resT *loadResult,
	m0, m1 gateway.Snapshot, ms0, ms1 *runtime.MemStats, p *prober, reopenS float64) {
	f := func(x int64) float64 { return float64(x) }
	doneU := f(int64(len(resU.samples)))
	lat := latencies(st, resU.samples)

	// client
	rep.setN("client.p50_ms", lat.p50MS, lat.n)
	for c := class(0); c < numClasses; c++ {
		name := "client." + classNames[c] + ".p50_ms"
		if lat.classN[c] == 0 {
			rep.na("the workload sends no such request", name)
		} else {
			rep.setN(name, lat.classP50MS[c], lat.classN[c])
		}
	}

	// http and the gateway's own report of its time
	var overhead, serve, queue, readServe []float64
	for _, sm := range resU.samples {
		if sm.serveUS < 0 {
			continue
		}
		overhead = append(overhead, float64(sm.ns)/1e3-float64(sm.serveUS)-float64(sm.queueUS))
		serve = append(serve, float64(sm.serveUS))
		queue = append(queue, float64(sm.queueUS))
		if sm.class == classTP || sm.class == classAP || sm.class == classExplain {
			readServe = append(readServe, float64(sm.serveUS))
		}
	}
	rep.setN("http.overhead_us", median(overhead), len(overhead))
	rep.set("http.handler_us", (p.mean("http.handler")-p.mean("http.handler.serve"))/1e3)
	rep.set("http.resp_bytes", div(f(resU.respBytes), f(resU.replies)))

	rep.set("sqlparser.fingerprint_ns", p.mid("sqlparser.Fingerprint"))
	rep.set("sqlparser.parse_ns", p.mid("sqlparser.Parse"))
	if st.mixed {
		rep.set("sqlparser.parse_script_ns", p.mid("sqlparser.ParseScript"))
	} else {
		rep.na("the workload sends no write", "sqlparser.parse_script_ns")
	}

	lookups := f(m1.CacheHits - m0.CacheHits + m1.CacheTemplateHits - m0.CacheTemplateHits + m1.CacheMisses - m0.CacheMisses)
	hitFrac := div(f(m1.CacheHits-m0.CacheHits), lookups)
	tmplFrac := div(f(m1.CacheTemplateHits-m0.CacheTemplateHits), lookups)
	missFrac := div(f(m1.CacheMisses-m0.CacheMisses), lookups)
	if def.KBSize > 0 {
		// explanations read the plan cache through PlanPair, which keeps
		// no hit counters; the service's plan_cached flag is the view
		rep.na("/explain does not go through the /query cache counters",
			"gateway.cache_hit_frac", "gateway.cache_template_hit_frac", "gateway.cache_miss_frac", "gateway.route_accuracy")
	} else {
		rep.set("gateway.cache_hit_frac", hitFrac)
		rep.set("gateway.cache_template_hit_frac", tmplFrac)
		rep.set("gateway.cache_miss_frac", missFrac)
		rep.set("gateway.route_accuracy", m1.RouteAccuracy)
	}
	rep.setN("gateway.serve_us", mean(serve), len(serve))
	rep.setN("gateway.queue_wait_us", mean(queue), len(queue))
	rep.set("gateway.plancache_get_ns", p.mid("gateway.PlanCache.Get"))
	rep.set("gateway.plancache_put_ns", p.mid("gateway.PlanCache.Put"))
	rep.set("gateway.shed_frac", div(f(m1.Shed-m0.Shed), f(m1.Total-m0.Total+m1.Shed-m0.Shed)))

	rep.set("optimizer.plan_tp_us", p.mid("optimizer.PlanTP")/1e3)
	rep.set("optimizer.plan_ap_us", p.mid("optimizer.PlanAP")/1e3)
	rep.set("latency.estimate_ns", p.mid("latency.Estimate"))
	if def.Shards > 1 {
		rep.set("optimizer.analyze_dist_us", p.mid("optimizer.AnalyzeDist")/1e3)
	} else {
		rep.na("single system", "optimizer.analyze_dist_us")
	}

	// exec and colstore
	reads := lookups
	routedTP, routedAP := f(m1.RoutedTP-m0.RoutedTP), f(m1.RoutedAP-m0.RoutedAP)
	if def.KBSize > 0 {
		rep.na("explanations execute nothing", "exec.tp_execute_us", "exec.ap_execute_us",
			"exec.rows_scanned_per_result_row", "exec.morsels_per_req", "exec.parallel_query_frac",
			"colstore.zonemap_pruned_frac", "colstore.encoded_chunk_frac")
	} else {
		for eng, name := range map[string]string{"TP": "exec.tp_execute_us", "AP": "exec.ap_execute_us"} {
			if xs := p.ns["exec.Execute."+eng]; len(xs) > 0 {
				rep.setN(name, p.mid("exec.Execute."+eng)/1e3, len(xs))
			} else {
				rep.na("no statement of the workload routes to "+eng, name)
			}
		}
		scanned := f(m1.ExecTP.RowsScanned - m0.ExecTP.RowsScanned + m1.ExecAP.RowsScanned - m0.ExecAP.RowsScanned)
		rep.set("exec.rows_scanned_per_result_row", div(scanned, f(resU.rowsReturned)))
		rep.set("exec.morsels_per_req", div(f(m1.MorselsDispatched-m0.MorselsDispatched), reads))
		rep.set("exec.parallel_query_frac", div(f(m1.ParallelQueries-m0.ParallelQueries), reads))
		pruned, scannedChunks := f(m1.ZonemapPruned-m0.ZonemapPruned), f(m1.ZonemapScanned-m0.ZonemapScanned)
		rep.set("colstore.zonemap_pruned_frac", div(pruned, pruned+scannedChunks))
		enc, dec := f(m1.EncodedChunks-m0.EncodedChunks), f(m1.DecodedChunks-m0.DecodedChunks)
		rep.set("colstore.encoded_chunk_frac", div(enc, enc+dec))
	}
	rep.set("colstore.resident_bytes_per_raw_byte", div(f(m1.ColstoreResidentBytes), f(m1.ColstoreRawBytes)))

	// the write path
	const volatile = "the workload is volatile and sends no write"
	if !st.mixed {
		rep.na(volatile, "colstore.merges_per_kwrite", "colstore.rows_merged",
			"htap.exec_dml_us", "htap.txn_commit_us", "htap.txn_commit_frac", "htap.txn_conflict_frac",
			"wal.append_us", "wal.fsync_wait_us", "wal.commits_per_fsync", "wal.bytes_per_row",
			"repl.visible_lag_ms_p50", "repl.visible_lag_ms_p99", "recovery.checkpoint_ms", "recovery.reopen_s")
	} else {
		rows := f(m1.RowsWritten - m0.RowsWritten)
		rep.set("colstore.merges_per_kwrite", div(f(m1.Merges-m0.Merges), rows/1000))
		rep.set("colstore.rows_merged", f(m1.RowsMerged-m0.RowsMerged))
		rep.setN("htap.exec_dml_us", p.mid("htap.Exec")/1e3, len(p.ns["htap.Exec"]))
		rep.setN("htap.txn_commit_us", p.mid("htap.Txn.Commit")/1e3, len(p.ns["htap.Txn.Commit"]))
		rep.set("htap.txn_commit_frac", div(f(resU.txnDone), f(resU.txnAttempts)))
		rep.set("htap.txn_conflict_frac", div(f(m1.TxnConflicts-m0.TxnConflicts), f(m1.TxnBegun-m0.TxnBegun)))
		rep.set("wal.append_us", p.mid("wal.Append")/1e3)
		rep.setN("wal.fsync_wait_us", p.mid("wal.WaitDurable")/1e3, len(p.ns["wal.WaitDurable"]))
		rep.set("wal.commits_per_fsync", div(f(m1.WALAppends-m0.WALAppends), f(m1.WALSyncs-m0.WALSyncs)))
		rep.set("wal.bytes_per_row", div(f(m1.WALBytes-m0.WALBytes), rows))
		lag := sorted(p.ns["repl.visible_lag"])
		rep.setN("repl.visible_lag_ms_p50", quantile(lag, 0.5)/1e6, len(lag))
		rep.setN("repl.visible_lag_ms_p99", quantile(lag, 0.99)/1e6, len(lag))
		rep.setN("recovery.checkpoint_ms", p.mid("recovery.Checkpoint")/1e6, len(p.ns["recovery.Checkpoint"]))
		rep.set("recovery.reopen_s", reopenS)
		rep.note("%d checkpoints fell inside the untraced phase", m1.Checkpoints-m0.Checkpoints)
	}

	// the explanation path
	if def.KBSize == 0 {
		rep.na("the workload asks for no explanation", "explainsvc.serve_us", "explainsvc.plan_cached_frac",
			"explainsvc.kb_hit_frac", "treecnn.embed_us", "treecnn.predict_us", "knowledge.topk_us",
			"vectordb.recall_at_k", "prompt.build_us", "llm.generate_us", "explain.none_frac")
	} else {
		var explainServe []float64
		for _, sm := range resU.samples {
			if sm.class == classExplain {
				explainServe = append(explainServe, float64(sm.serveUS))
			}
		}
		rep.setN("explainsvc.serve_us", mean(explainServe), len(explainServe))
		rep.set("explainsvc.plan_cached_frac", div(f(resU.planCached), f(resU.explains)))
		rep.set("explainsvc.kb_hit_frac", div(f(resU.kbHits), f(resU.explains)))
		rep.set("explain.none_frac", div(f(resU.none), f(resU.explains)))
		rep.set("treecnn.embed_us", p.mid("treecnn.EmbedPair")/1e3)
		rep.set("treecnn.predict_us", p.mid("treecnn.Predict")/1e3)
		rep.set("knowledge.topk_us", p.mid("knowledge.TopK")/1e3)
		rep.set("vectordb.recall_at_k", p.mean("vectordb.recall"))
		rep.set("prompt.build_us", p.mid("prompt.Build")/1e3)
		rep.set("llm.generate_us", p.mid("llm.Generate")/1e3)
	}

	// shards
	if def.Shards == 1 {
		rep.na("single system", "shard.routed_frac", "shard.scatter_frac", "shard.scatter_fanout",
			"shard.exchange_rows_per_req", "shard.cross_txn_frac", "shard.query_imbalance")
	} else {
		routed, scatter := f(m1.ShardRouted-m0.ShardRouted), f(m1.ShardScatter-m0.ShardScatter)
		rep.set("shard.routed_frac", div(routed, routed+scatter))
		rep.set("shard.scatter_frac", div(scatter, routed+scatter))
		rep.set("shard.scatter_fanout", div(f(m1.ShardScatterFan-m0.ShardScatterFan), routed+scatter))
		rep.set("shard.exchange_rows_per_req", div(f(m1.ShardExchRows-m0.ShardExchRows), routed+scatter))
		rep.set("shard.cross_txn_frac", div(f(m1.ShardCrossTxns-m0.ShardCrossTxns), f(resU.txnDone)))
		lo, hi := math.Inf(1), 0.0
		for i := range m1.Shards {
			q := f(m1.Shards[i].Queries - m0.Shards[i].Queries)
			lo, hi = math.Min(lo, q), math.Max(hi, q)
		}
		rep.set("shard.query_imbalance", div(hi, lo))
	}

	// runtime
	rep.set("runtime.allocs_per_req", div(f(int64(ms1.Mallocs-ms0.Mallocs)), doneU))
	rep.set("runtime.alloc_bytes_per_req", div(f(int64(ms1.TotalAlloc-ms0.TotalAlloc)), doneU))
	rep.set("runtime.gc_pause_ms", f(int64(ms1.PauseTotalNs-ms0.PauseTotalNs))/1e6)

	// The serve-time budget of a read, in means so that the parts add up:
	// what the gateway reports minus what the probes account for on the
	// path the cache outcome selects. The probes run alone, so contention
	// between the two connections lands here too.
	ns := func(name string) float64 { return p.mean(name) }
	var path float64
	if def.KBSize > 0 {
		path = ns("sqlparser.Fingerprint") + ns("gateway.PlanCache.Get") + ns("treecnn.EmbedPair") +
			ns("knowledge.TopK") + ns("prompt.Build") + ns("llm.Generate") + ns("treecnn.Predict")
	} else {
		execNS := div(routedTP*ns("exec.Execute.TP")+routedAP*ns("exec.Execute.AP"), routedTP+routedAP)
		routedPlan := div(routedTP*ns("optimizer.PlanTP")+routedAP*ns("optimizer.PlanAP"), routedTP+routedAP)
		planBoth := 2*ns("sqlparser.Parse") + ns("optimizer.PlanTP") + ns("optimizer.PlanAP") + 2*ns("latency.Estimate")
		if def.Shards > 1 {
			// a sharded read skips the plan cache: it is routed, then
			// either planned and run on one shard or scattered
			routed, scatter := f(m1.ShardRouted-m0.ShardRouted), f(m1.ShardScatter-m0.ShardScatter)
			path = ns("shard.Route") + div(routed*(planBoth+execNS)+scatter*ns("shard.Scatter"), routed+scatter)
		} else {
			path = ns("sqlparser.Fingerprint") + ns("gateway.PlanCache.Get") + execNS +
				tmplFrac*(ns("sqlparser.Parse")+routedPlan+ns("latency.Estimate")) + missFrac*planBoth
		}
	}
	rep.setN("gateway.unattributed_us", mean(readServe)-path/1e3, len(readServe))
}
