package task

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestEveryGoroutineIsSupervised: no non-test Go file under internal/ or
// cmd/ holds a `go` statement except this package's two (Group.Go and
// Loop.Start). The allow-list is empty: cmd/htapserve's listener goes
// through a Group as well.
func TestEveryGoroutineIsSupervised(t *testing.T) {
	var allowed = map[string]int{"internal/task/task.go": 2}
	found := map[string]int{}
	fset := token.NewFileSet()
	for _, root := range []string{"../../internal", "../../cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			rel := filepath.ToSlash(strings.TrimPrefix(path, "../../"))
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					found[rel]++
					if allowed[rel] == 0 {
						t.Errorf("%s: unsupervised go statement; start it through task.Group or task.Loop", fset.Position(g.Pos()))
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for file, want := range allowed {
		if found[file] != want {
			t.Errorf("%s holds %d go statements, want %d (is the walk looking at the right tree?)", file, found[file], want)
		}
	}
}

// settled waits for the goroutine count to come back to base: an exited
// goroutine is not guaranteed to be gone the instant the channel that
// announced it is closed.
func settled(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d: one was leaked", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func explode() error { panic("boom") }

// TestLoopPanicCostsOnePass is the group committer's shape: a loop woken
// by pokes whose pass panics once. The pass is lost, the loop is not — the
// next wake-up runs the next pass — and the failure stays in Err with the
// stack of the pass that panicked.
func TestLoopPanicCostsOnePass(t *testing.T) {
	base, panicsBefore := runtime.NumGoroutine(), Panics()
	wake := make(chan struct{}, 1)
	ran := make(chan int, 1)
	n := 0
	var l Loop
	l.Start(0, wake, func() error {
		n++
		defer func() { ran <- n }()
		if n == 1 {
			return explode()
		}
		return nil
	})
	l.Start(0, wake, explode) // starting a running loop does nothing
	for want := 1; want <= 3; want++ {
		wake <- struct{}{}
		if got := <-ran; got != want {
			t.Fatalf("pass %d ran as pass %d", want, got)
		}
	}
	l.Stop()
	l.Stop() // idempotent
	var pe *PanicError
	if !errors.As(l.Err(), &pe) || pe.Value != "boom" {
		t.Fatalf("Err() = %v, want the *PanicError of pass 1", l.Err())
	}
	if !strings.Contains(string(pe.Stack), "task.explode") {
		t.Errorf("the stack does not name the pass that panicked:\n%s", pe.Stack)
	}
	if got := Panics() - panicsBefore; got != 1 {
		t.Errorf("Panics() grew by %d, want 1", got)
	}
	settled(t, base)
}

// TestLoopStopWaitsForThePassInFlight: Stop returns only after the running
// pass has, the first error is the one Err keeps, and a stopped loop can
// be started again.
func TestLoopStopWaitsForThePassInFlight(t *testing.T) {
	base := runtime.NumGoroutine()
	started, release := make(chan struct{}), make(chan struct{})
	var finished atomic.Bool
	first, second := errors.New("first"), errors.New("second")
	var l Loop
	l.Start(time.Millisecond, nil, func() error {
		close(started)
		<-release
		finished.Store(true)
		return first
	})
	<-started
	stopped := make(chan struct{})
	var g Group
	g.Go(func() error {
		l.Stop()
		close(stopped)
		return nil
	})
	select {
	case <-stopped:
		t.Fatal("Stop returned while a pass was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-stopped
	if !finished.Load() {
		t.Fatal("Stop returned before the pass did")
	}
	_ = g.Wait()

	again := make(chan struct{}, 1)
	l.Start(time.Millisecond, nil, func() error {
		select {
		case again <- struct{}{}:
		default:
		}
		return second
	})
	<-again
	l.Stop()
	if l.Err() != first {
		t.Errorf("Err() = %v, want the first failure", l.Err())
	}
	settled(t, base)
}

// TestGroupDrainsPastAPanic is the replication applier's shape: one Group
// goroutine draining a channel through Do, so a panic on one item is
// recorded and the drain goes on — a sender is never left blocked on a
// full channel — until the channel is closed and Wait returns.
func TestGroupDrainsPastAPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	ch := make(chan int) // unbuffered: every send needs the drain alive
	var applied []int
	var failure error
	var g Group
	g.Go(func() error {
		for {
			err := Do(func() error {
				for v := range ch {
					if v == 2 {
						panic("bad item")
					}
					applied = append(applied, v)
				}
				return nil
			})
			if err == nil {
				return failure
			}
			failure = err
		}
	})
	for v := 1; v <= 4; v++ {
		ch <- v
	}
	close(ch)
	var pe *PanicError
	if err := g.Wait(); !errors.As(err, &pe) || pe.Value != "bad item" {
		t.Fatalf("Wait() = %v, want the *PanicError", err)
	}
	if len(applied) != 3 {
		t.Errorf("applied %v, want every item but the one that panicked", applied)
	}
	settled(t, base)
}

// TestGroupWaitsForAllAndReportsTheFailure: Wait returns after every
// function has, with the error one of them returned or the panic one of
// them raised.
func TestGroupWaitsForAllAndReportsTheFailure(t *testing.T) {
	base := runtime.NumGoroutine()
	failed := errors.New("failed")
	for _, fail := range []func() error{func() error { return failed }, explode} {
		fail := fail
		gate := make(chan struct{})
		var done atomic.Int32
		var g Group
		g.Go(func() error { defer done.Add(1); return fail() })
		g.Go(func() error { defer done.Add(1); <-gate; return nil })
		g.Go(func() error { defer done.Add(1); <-gate; return nil })
		for done.Load() < 1 {
			time.Sleep(time.Millisecond)
		}
		close(gate)
		err := g.Wait()
		var pe *PanicError
		if err != failed && !errors.As(err, &pe) {
			t.Errorf("Wait() = %v, want the failure", err)
		}
		if done.Load() != 3 {
			t.Errorf("Wait returned with %d of 3 functions finished", done.Load())
		}
	}
	if err := new(Group).Wait(); err != nil {
		t.Errorf("empty group: %v", err)
	}
	settled(t, base)
}
