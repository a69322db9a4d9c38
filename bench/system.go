package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"htapxplain/internal/explainsvc"
	"htapxplain/internal/gateway"
	"htapxplain/internal/htap"
	"htapxplain/internal/knowledge"
	"htapxplain/internal/obs"
	"htapxplain/internal/shard"
	"htapxplain/internal/treecnn"
)

// system is the HTAP system under test with the explanation service's
// router and knowledge base, built the way cmd/htapserve builds them.
type system struct {
	def    *workloadDef
	cfg    htap.Config // per-shard config, without the data directory
	sys    *htap.System
	coord  *shard.Coordinator // nil for a single system
	router *treecnn.Router
	kb     *knowledge.Base
	dir    string // data directory, "" when volatile

	// seconds spent in each set-up stage
	buildS, bootstrapS float64
}

func (s *system) expDir() string {
	if s.dir == "" {
		return ""
	}
	return filepath.Join(s.dir, "explain")
}

func htapConfig(def *workloadDef) htap.Config {
	cfg := htap.DefaultConfig()
	cfg.Data.PhysScale = def.Scale
	cfg.Durability.CheckpointInterval = checkpointInterval
	return cfg
}

// openSystem builds (or, for a crash image, recovers) the workload's
// system under dir.
func openSystem(def *workloadDef, dir string) (*htap.System, *shard.Coordinator, error) {
	cfg := htapConfig(def)
	if def.Shards > 1 {
		coord, err := shard.New(def.Shards, cfg, shard.Options{Dir: dir})
		if err != nil {
			return nil, nil, err
		}
		return coord.Shard(0), coord, nil
	}
	cfg.Durability.Dir = dir
	sys, err := htap.New(cfg)
	return sys, nil, err
}

// buildSystem is everything cmd/htapserve does before it builds the
// gateway. tmpRoot holds the data directory of a durable workload.
func buildSystem(def *workloadDef, seed int64, tmpRoot string, boot explainsvc.BootstrapConfig) (*system, error) {
	s := &system{def: def, cfg: htapConfig(def)}
	if def.Durable {
		if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(tmpRoot, "data-")
		if err != nil {
			return nil, err
		}
		s.dir = dir
	}
	t0 := time.Now()
	var err error
	s.sys, s.coord, err = openSystem(def, s.dir)
	if err != nil {
		s.close()
		return nil, fmt.Errorf("building the system: %w", err)
	}
	s.buildS = time.Since(t0).Seconds()

	t0 = time.Now()
	boot.Seed, boot.Dir = seed, s.expDir()
	s.router, s.kb, _, err = explainsvc.Bootstrap(s.sys, boot)
	if err != nil {
		s.close()
		return nil, err
	}
	s.bootstrapS = time.Since(t0).Seconds()

	if err := inflateKB(s.kb, def.KBSize, seed); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close stops the system and removes its data directory.
func (s *system) close() {
	if s.coord != nil {
		s.coord.Close()
	} else if s.sys != nil {
		s.sys.Close()
	}
	if s.dir != "" {
		_ = os.RemoveAll(s.dir) // a leftover temp dir is not worth failing the run for
	}
}

// inflateKB grows the base to target entries with perturbed copies of the
// curated ones: near-duplicate neighbourhoods, which is what similarity
// search sifts through at scale.
func inflateKB(kb *knowledge.Base, target int, seed int64) error {
	base := kb.Entries()
	if len(base) == 0 || kb.Len() >= target {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	for kb.Len() < target {
		src := base[rng.Intn(len(base))]
		e := *src
		e.ID = 0
		e.Encoding = make([]float64, len(src.Encoding))
		for j, v := range src.Encoding {
			e.Encoding[j] = v + (rng.Float64()-0.5)*0.05
		}
		if _, err := kb.Add(e); err != nil {
			return err
		}
	}
	return nil
}

// serving is one gateway + explanation service + HTTP listener over a
// system.
type serving struct {
	g      *gateway.Gateway
	svc    *explainsvc.Service
	mux    *http.ServeMux
	srv    *http.Server
	url    string
	spans  *spanLog // nil when untraced
	done   chan error
	closed bool
	// hnswS is the time explainsvc.New took, which is the HNSW build
	hnswS float64
}

// serve builds the gateway and the explanation service with cmd/htapserve's
// defaults and serves them on a loopback listener. With traced set, the
// in-program tracer samples every query and the handler is wrapped in a
// span; otherwise the handler is the mux itself.
//
// The service's drift loop is off (CheckInterval 0): a retrain replaces
// the knowledge base and empties the plan cache in mid-run, which would
// make the second half of a run a different workload from the first.
func serve(s *system, seed int64, traced bool) (*serving, error) {
	rate := 0.0
	if traced {
		rate = 1
	}
	gcfg := gateway.Config{
		CacheCapacity: 1024,
		CacheShards:   8,
		Policy:        gateway.CostPolicy{},
		Tracer:        obs.NewTracer(obs.TracerConfig{SampleRate: rate, RingSize: 256}),
	}
	sv := &serving{done: make(chan error, 1)}
	if s.coord != nil {
		sv.g = gateway.NewSharded(s.coord, gcfg)
	} else {
		sv.g = gateway.New(s.sys, gcfg)
	}
	t0 := time.Now()
	var err error
	sv.svc, err = explainsvc.New(s.sys, sv.g, s.router, s.kb, explainsvc.Config{
		K: explainK, Seed: seed, Window: 128, DriftThreshold: 0.85,
		RetrainEpochs: 40, Dir: s.expDir(),
	})
	if err != nil {
		sv.g.Stop()
		return nil, err
	}
	sv.hnswS = time.Since(t0).Seconds()

	sv.mux = gateway.NewServeMux(sv.g)
	explainsvc.Register(sv.mux, sv.svc)
	var handler http.Handler = sv.mux
	if traced {
		sv.spans = newSpanLog()
		handler = sv.spans.handler(sv.mux)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sv.close()
		return nil, err
	}
	sv.url = "http://" + ln.Addr().String()
	sv.srv = &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	go func() { sv.done <- sv.srv.Serve(ln) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(sv.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return sv, nil
			}
		}
		if time.Now().After(deadline) {
			sv.close()
			return nil, fmt.Errorf("no 200 from /healthz within 10 s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close drains the listener and stops the service and the gateway; a
// second call does nothing.
func (sv *serving) close() {
	if sv.closed {
		return
	}
	sv.closed = true
	if sv.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := sv.srv.Shutdown(ctx); err != nil {
			_ = sv.srv.Close()
		}
		cancel()
		if err := <-sv.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "bench: serve:", err)
		}
	}
	if sv.svc != nil {
		_ = sv.svc.Close() // persists router + KB; nothing reads them again
	}
	sv.g.Stop()
}
