// Package task is the only place this program starts a goroutine
// (TestEveryGoroutineIsSupervised holds every other package to that).
// There are two shapes. A Loop is a long-lived background activity — the
// delta merger, the checkpointer, the WAL group committer, the drift
// monitor: one pass per tick or wake-up, stopped by its owner. A Group is
// a set of goroutines started and awaited by one function call — forked
// morsel workers, scatter fragments, the replication applier. Both run
// their functions through Do, the program's one recover: a panic becomes
// a *PanicError carrying the stack and takes the error path the goroutine
// already had, so it costs one pass or one query and never the process.
// Panics counts them. The package imports nothing of ours.
package task

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// PanicError is a recovered panic. Stack is the panicking goroutine's,
// taken at the recover, so it still names the frames that panicked.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

var panics atomic.Int64

// Panics is the number of panics recovered since the process started
// (the gateway exports it as panics_total).
func Panics() int64 { return panics.Load() }

// Do runs f on the caller's goroutine and returns its error, or a
// *PanicError if it panicked. Owners that must react to a failed pass
// themselves — fail waiters, close a producer, cancel siblings — call it
// around the part that may fail.
func Do(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			panics.Add(1)
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return f()
}

// Group is a set of goroutines awaited together. The zero value is ready;
// a Group is used for one Wait.
type Group struct {
	wg   sync.WaitGroup
	once sync.Once
	err  error
}

// Go runs f on a new goroutine.
func (g *Group) Go(f func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if err := Do(f); err != nil {
			g.once.Do(func() { g.err = err })
		}
	}()
}

// Wait blocks until every function passed to Go has returned and reports
// the first failure among them, a recovered panic included.
func (g *Group) Wait() error {
	g.wg.Wait()
	return g.err
}

// Loop is a background activity: one goroutine that runs a pass per tick
// and per wake-up until stopped. The zero value is a stopped loop that
// has never failed. A pass that fails or panics costs that pass — the
// loop keeps running — and the first such failure stays readable in Err.
type Loop struct {
	mu   sync.Mutex
	stop chan struct{} // non-nil while running
	done chan struct{} // closed when the goroutine of the last Start exits
	err  atomic.Pointer[error]
}

// Start launches the loop: pass runs once per interval (none when
// interval <= 0) and once per receive from wake (none when nil), never
// two at a time. Starting a running loop does nothing.
func (l *Loop) Start(interval time.Duration, wake <-chan struct{}, pass func() error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stop != nil {
		return
	}
	stop, done := make(chan struct{}), make(chan struct{})
	l.stop, l.done = stop, done
	go func() {
		defer close(done)
		var tick <-chan time.Time
		if interval > 0 {
			t := time.NewTicker(interval)
			defer t.Stop()
			tick = t.C
		}
		for {
			select {
			case <-stop:
				return
			case <-tick:
			case <-wake:
			}
			if err := Do(pass); err != nil {
				l.err.CompareAndSwap(nil, &err)
			}
		}
	}()
}

// Stop ends the loop and returns once the pass in flight, if any, has
// finished. Stopping a stopped loop does nothing, and a stopped loop can
// be started again.
func (l *Loop) Stop() {
	l.mu.Lock()
	stop, done := l.stop, l.done
	l.stop = nil
	l.mu.Unlock()
	if stop != nil {
		close(stop)
	}
	if done != nil {
		<-done
	}
}

// Err returns the first failure of a pass since the loop was created, or
// nil.
func (l *Loop) Err() error {
	if p := l.err.Load(); p != nil {
		return *p
	}
	return nil
}
