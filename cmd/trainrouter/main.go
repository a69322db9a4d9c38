// Command trainrouter trains the tree-CNN smart router on a generated
// workload, reports train/held-out accuracy, model size, and inference
// latency (the paper's §III-A substrate claims), and optionally saves the
// model.
//
// Usage:
//
//	trainrouter -queries 160 -epochs 60 -out router.gob
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"htapxplain/internal/explain"
	"htapxplain/internal/htap"
	"htapxplain/internal/treecnn"
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

	sys, err := htap.New(htap.DefaultConfig())
	if err != nil {
		fatal(err)
	}
	label := func(gen *workload.Generator, n int) ([]treecnn.Sample, error) {
		labelled, err := explain.Label(sys, gen.Batch(n))
		return explain.Samples(labelled), err
	}
	fmt.Printf("labeling %d training + %d test queries on both engines ...\n", *nQueries, *nTest)
	train, err := label(workload.NewGenerator(101), *nQueries)
	if err != nil {
		fatal(err)
	}
	test, err := label(workload.NewTestGenerator(999), *nTest)
	if err != nil {
		fatal(err)
	}

	r := treecnn.New(*seed)
	t0 := time.Now()
	rep := r.Train(train, *epochs, *seed+1)
	trainDur := time.Since(t0)

	correct := 0
	t1 := time.Now()
	for _, s := range test {
		if got, _ := r.Predict(s.Pair); got == s.Label {
			correct++
		}
	}
	inferPer := time.Since(t1) / time.Duration(max(len(test), 1))

	fmt.Printf("\ntrained %d epochs in %v (final loss %.4f)\n", rep.Epochs, trainDur.Round(time.Millisecond), rep.FinalLoss)
	fmt.Printf("train accuracy: %.1f%%\n", 100*rep.TrainAcc)
	fmt.Printf("test accuracy:  %.1f%%  (%d/%d)\n", 100*float64(correct)/float64(max(len(test), 1)), correct, len(test))
	fmt.Printf("model size:     %.1f KB (%d params) — paper bound: < 1 MB\n", float64(r.ModelBytes())/1024, r.NumParams())
	fmt.Printf("inference:      %v per plan pair — paper bound: ~1 ms\n", inferPer)

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := r.Save(f); err != nil {
			fatal(err)
		}
		fmt.Printf("saved model to %s\n", *out)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trainrouter:", err)
	os.Exit(1)
}
