// Command trainrouter trains the tree-CNN smart router on a generated
// workload (eval.NewEnv), reports train/held-out accuracy, model size, and
// inference latency (eval's EvaluateRouter: the paper's §III-A substrate
// claims), and optionally saves the model.
//
// Usage:
//
//	trainrouter -queries 160 -epochs 60 -out router.gob
package main

import (
	"flag"
	"fmt"
	"os"

	"htapxplain/internal/eval"
	"htapxplain/internal/workload"
)

func main() {
	var (
		nQueries = flag.Int("queries", 160, "training workload size")
		nTest    = flag.Int("test", 80, "held-out test workload size")
		epochs   = flag.Int("epochs", 60, "training epochs")
		seed     = flag.Int64("seed", 1, "model init / shuffle seed")
		out      = flag.String("out", "", "save the trained model to this file")
	)
	flag.Parse()

	cfg := eval.DefaultEnvConfig()
	cfg.RouterTrainQueries, cfg.RouterEpochs, cfg.RouterSeed = *nQueries, *epochs, *seed
	fmt.Printf("planning and labeling %d training queries on both engines, training %d epochs ...\n", *nQueries, *epochs)
	env, err := eval.NewEnv(cfg)
	if err != nil {
		fatal(err)
	}
	rep, err := env.EvaluateRouter(workload.NewTestGenerator(999).Batch(*nTest))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("train accuracy: %.1f%%\n", 100*rep.TrainAcc)
	fmt.Printf("test accuracy:  %.1f%%  (%d held-out queries)\n", 100*rep.TestAcc, *nTest)
	fmt.Printf("model size:     %.1f KB (%d params) — paper bound: < 1 MB\n", rep.ModelKB, rep.Params)
	fmt.Printf("inference:      %.1f µs per plan pair — paper bound: ~1 ms\n", rep.InferUsec)

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := env.Router.Save(f); err != nil {
			fatal(err)
		}
		fmt.Printf("saved model to %s\n", *out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trainrouter:", err)
	os.Exit(1)
}
