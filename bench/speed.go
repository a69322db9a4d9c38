package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The two cores this benchmark runs on are shared with other tenants, and
// each core's effective speed drifts on its own (r = 0.5 between the two):
// by ±10 % from second to second, and by up to 2x for minutes on end.
// Identical runs of one binary then spread by 10 to 25 %, more than any
// bound a benchmark may set. What slows is code that keeps the core busy: a
// JSON decode out of warm caches takes 3.7 to 5.3 us, while a dependent
// multiply chain keeps its pace to within 1 % and a pointer chase through
// 32 MiB varies without regard to throughput (slope 0 to 0.7 in log-log),
// so neither the clock nor the memory is what is contended.
//
// So a run also measures how fast the machine was. A calibrator process
// times a small fixed kernel on every core, and the end-to-end time metrics
// are reported at the reference speed: raw value ÷ speed factor (throughput
// × factor), where the factor is the kernel's typical time in the window
// over kernelNominalNS. The raw values and the factor are in the run's
// notes.
//
// The calibrator is a process of its own (this binary with -child
// calibrate): the kernel shares no heap, no collector and no goroutine
// scheduler with the server it calibrates, so what the server allocates or
// how often it collects does not move the factor. It has one thread pinned
// to each core, because the cores drift apart: one unpinned sampler left a
// quartile spread of 6.5 % on tp_point's throughput, the mean over both
// cores 2.9 % (raw: 8.6 to 10.1 %; 40 runs each). Every kernelEvery each
// thread decodes a small JSON reply three times and times the last two.
// The first decode brings the kernel's code and data back into the cache:
// timed cold, the kernel took 12 % more or less depending on which workload
// the server ran beside it, timed warm 3.5 %, and its time moved in step
// with throughput (slope 0.8 to 1.5 in log-log over four workloads; 1.1 to
// 1.9 cold). A decode that allocates nothing (json.Valid) tracked worse
// (slope 1.3 to 2.9). The calibrator costs each core under 1 %.

const (
	// kernelNominalNS is the kernel's time on this repository's build
	// machine in its quiet phases; it only fixes the unit.
	kernelNominalNS = 9000
	kernelEvery     = 4 * time.Millisecond
)

var kernelDoc = []byte(`{"sql":"SELECT 1","kind":"select","engine":"TP","row_count":3,` +
	`"rows":[["1","2.5","abc"],["4","5.5","def"],["7","8.5","ghi"]],"serve_us":12,"queue_us":1}`)

type kernelReply struct {
	SQL      string     `json:"sql"`
	Kind     string     `json:"kind"`
	RowCount int        `json:"row_count"`
	Rows     [][]string `json:"rows"`
	ServeUS  int64      `json:"serve_us"`
}

// kernel decodes the reply three times and returns the time of the last
// two, when the caches are warm.
func kernel() (time.Duration, error) {
	var t0 time.Time
	for i := 0; i < 3; i++ {
		if i == 1 {
			t0 = time.Now()
		}
		var reply kernelReply
		if err := json.Unmarshal(kernelDoc, &reply); err != nil || len(reply.Rows) != 3 {
			return 0, fmt.Errorf("the speed kernel's document does not decode: %v", err)
		}
	}
	return time.Since(t0), nil
}

// speedSample is one timing of the kernel.
type speedSample struct {
	at int64 // Unix nanoseconds
	ns float64
}

// allowedCPUs lists the cores this process may run on (Linux).
func allowedCPUs() ([]int, error) {
	var mask [16]uint64 // 1024 cores
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	var cpus []int
	for i := 0; i < len(mask)*64; i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus, nil
}

// pinThread binds the calling thread, which the caller has locked, to one core.
func pinThread(cpu int) error {
	var mask [16]uint64
	mask[cpu/64] = 1 << (cpu % 64)
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return fmt.Errorf("sched_setaffinity(%d): %w", cpu, errno)
	}
	return nil
}

// calibrate is the calibrator process: it samples the kernel on every core
// until its standard input is closed — which the death of its parent does
// too — and then prints the samples, one "core unix-ns kernel-ns" a line.
func calibrate() error {
	cpus, err := allowedCPUs()
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin) // any end of the input is the signal
		close(stop)
	}()
	samples := make([][]speedSample, len(cpus))
	errs := make([]error, len(cpus))
	var wg sync.WaitGroup
	for i := range cpus {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// the thread stays locked and ends with the goroutine, so its
			// affinity never reaches other goroutines
			runtime.LockOSThread()
			if err := pinThread(cpus[i]); err != nil {
				// an unpinned sampler still samples, on whichever core runs it
				fmt.Fprintln(os.Stderr, "bench: calibrator:", err)
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				time.Sleep(kernelEvery)
				at := time.Now().UnixNano()
				d, err := kernel()
				if err != nil {
					errs[i] = err
					return
				}
				samples[i] = append(samples[i], speedSample{at: at, ns: float64(d.Nanoseconds())})
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	w := bufio.NewWriter(os.Stdout)
	for i, ss := range samples {
		for _, s := range ss {
			fmt.Fprintf(w, "%d %d %d\n", cpus[i], s.at, int64(s.ns))
		}
	}
	return w.Flush()
}

// speedometer owns a calibrator process for the length of a run.
type speedometer struct {
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	out     bytes.Buffer
	stopped bool
	byCPU   map[int][]speedSample // filled by stop
}

func startSpeedometer() (*speedometer, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	m := &speedometer{cmd: exec.Command(exe, "-child", "calibrate")}
	m.cmd.Stdout = &m.out
	m.cmd.Stderr = os.Stderr
	if m.stdin, err = m.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	if err := m.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the calibrator: %w", err)
	}
	return m, nil
}

// stop ends the calibrator, waits for it and reads its samples; a second
// call does nothing.
func (m *speedometer) stop() error {
	if m.stopped {
		return nil
	}
	m.stopped = true
	_ = m.stdin.Close() // closing is the signal; Wait reports what matters
	if err := m.cmd.Wait(); err != nil {
		return fmt.Errorf("calibrator: %w", err)
	}
	m.byCPU = map[int][]speedSample{}
	sc := bufio.NewScanner(&m.out)
	for sc.Scan() {
		var cpu int
		var s speedSample
		if _, err := fmt.Sscanf(sc.Text(), "%d %d %f", &cpu, &s.at, &s.ns); err != nil {
			return fmt.Errorf("calibrator printed %q: %w", sc.Text(), err)
		}
		m.byCPU[cpu] = append(m.byCPU[cpu], s)
	}
	return sc.Err()
}

// factor is how much slower than the reference speed the machine ran in
// the window: the mean over the cores of the kernel's typical time there,
// over its nominal time. n is the number of samples behind it. Valid once
// the calibrator has been stopped.
func (m *speedometer) factor(w window) (f float64, n int, err error) {
	var typical []float64
	for _, ss := range m.byCPU {
		var ns []float64
		for _, s := range ss {
			if s.at >= w.Start && s.at <= w.End {
				ns = append(ns, s.ns)
			}
		}
		if len(ns) > 0 {
			typical = append(typical, midmean(ns))
			n += len(ns)
		}
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("the calibrator took no sample in a window of %.3f s", w.seconds())
	}
	return mean(typical) / kernelNominalNS, n, nil
}
