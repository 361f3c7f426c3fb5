package main

import (
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The CPUs of a shared host change speed by ±30% within seconds (other
// tenants on the same cores); the wall time of any CPU-bound operation
// follows. To keep runs comparable, a calibrator runs a fixed kernel
// that the benchmark owns on its own OS thread all through a run and
// times it in thread CPU time, which waiting for a CPU does not inflate.
// A CPU-bound timing is reported scaled by speed(): the time the same
// work would take at the reference speed.

const (
	// calN sizes the kernel: an n×n matrix product that fits in cache.
	calN = 64
	// calEvery spaces the kernel runs (about 0.35 ms each, under 1% of a
	// CPU).
	calEvery = 50 * time.Millisecond
	// calRef is the kernel's thread CPU time at the reference speed, about
	// its median on a 2-vCPU Intel Xeon VM.
	calRef = 340 * time.Microsecond
	// calPad widens the interval of a short timing (about 40 kernel runs).
	calPad = time.Second
)

type calibrator struct {
	stop chan struct{}
	done chan struct{}

	mu  sync.Mutex
	at  []time.Time
	cpu []time.Duration
}

// startCalibrator starts the kernel loop; close stops it.
func startCalibrator() *calibrator {
	c := &calibrator{stop: make(chan struct{}), done: make(chan struct{})}
	go c.loop()
	return c
}

func (c *calibrator) loop() {
	defer close(c.done)
	runtime.LockOSThread()
	a, b, out := make([]float64, calN*calN), make([]float64, calN*calN), make([]float64, calN*calN)
	for i := range a {
		a[i], b[i] = float64(i%7)/7, float64(i%5)/5
	}
	tick := time.NewTicker(calEvery)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
		start := threadCPU()
		matmul(calN, a, b, out)
		took := threadCPU() - start
		c.mu.Lock()
		c.at = append(c.at, time.Now())
		c.cpu = append(c.cpu, took)
		c.mu.Unlock()
	}
}

func (c *calibrator) close() {
	close(c.stop)
	<-c.done
}

// speed returns the host's speed between from and to relative to the
// reference: calRef over the kernel's median time in that interval. It
// is 1 at the reference speed and below 1 on a slower host; with no
// kernel run in the interval it uses the median of the whole run. A nil
// calibrator reports 1.
func (c *calibrator) speed(from, to time.Time) float64 {
	if c == nil {
		return 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var in []time.Duration
	for i, t := range c.at {
		if !t.Before(from) && !t.After(to) {
			in = append(in, c.cpu[i])
		}
	}
	if len(in) == 0 {
		in = append(in, c.cpu...)
	}
	if len(in) == 0 {
		return 1
	}
	sort.Slice(in, func(i, j int) bool { return in[i] < in[j] })
	return float64(calRef) / float64(in[len(in)/2])
}

// around is the host speed over a short interval widened by calPad on
// each side, enough kernel runs for a steady median.
func (c *calibrator) around(from, to time.Time) float64 {
	return c.speed(from.Add(-calPad), to.Add(calPad))
}

func matmul(n int, a, b, out []float64) {
	for i := 0; i < n; i++ {
		row := out[i*n : (i+1)*n]
		for k := 0; k < n; k++ {
			aik := a[i*n+k]
			for j, bkj := range b[k*n : (k+1)*n] {
				row[j] += aik * bkj
			}
		}
	}
}

// threadCPU is the calling thread's CPU time (CLOCK_THREAD_CPUTIME_ID).
func threadCPU() time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 3, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
