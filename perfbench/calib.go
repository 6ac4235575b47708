package main

import (
	"math/rand"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark's host is a VM on a shared machine, and its speed moves
// with what the other tenants run: in one ten-minute stretch TPC-C's
// throughput fell from 6 774 to 4 074 txn/s while nothing in the program
// changed. Whatever time the benchmark reports is therefore taken
// together with a calibration: while a timed phase runs, one thread
// repeats a fixed kernel, a dependent walk over a 1 MB random cycle
// (cache-resident, so it is slowed exactly when the shared cache and
// memory system are), timed in the thread's own CPU time so that being
// descheduled does not count. The median time per step, divided by
// calibRefNs, is the host's slowdown for that phase, and the gated figures
// are scaled to the reference speed: times divided by it, rates multiplied
// by it. README.md ("Host calibration") gives the measurements that chose
// this kernel over an ALU-bound and a DRAM-bound one.

const (
	calibCycle = 1 << 18 // uint32 entries: 1 MB
	calibSteps = 50_000  // steps per sample, about 3 ms
	// calibRefNs is the reference host's time per step: the kernel's
	// median on the 2-vCPU reference host in a quiet phase.
	calibRefNs = 60.0
	// calibInterval separates samples; the kernel uses about 1.5 % of one
	// processor.
	calibInterval = 200 * time.Millisecond
)

// calibration owns the kernel's cycle.
type calibration struct {
	next []uint32
	sink uint32
}

func newCalibration() *calibration {
	perm := rand.New(rand.NewSource(1)).Perm(calibCycle)
	next := make([]uint32, calibCycle)
	for i := range perm {
		next[perm[i]] = uint32(perm[(i+1)%calibCycle])
	}
	return &calibration{next: next}
}

// stepNs runs the kernel once and returns its thread CPU time per step.
func (c *calibration) stepNs() float64 {
	t0 := threadCPU()
	p := c.sink % calibCycle
	for i := 0; i < calibSteps; i++ {
		p = c.next[p]
	}
	c.sink = p
	return float64(threadCPU()-t0) / calibSteps
}

// hostMeter samples the kernel on a thread of its own until stop.
type hostMeter struct {
	stop chan struct{}
	done chan samples
}

// start begins sampling: once at once, then every calibInterval.
func (c *calibration) start() *hostMeter {
	m := &hostMeter{stop: make(chan struct{}), done: make(chan samples)}
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		s := samples{int64(c.stepNs() * 1e3)}
		t := time.NewTicker(calibInterval)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				m.done <- s
				return
			case <-t.C:
				s = append(s, int64(c.stepNs()*1e3))
			}
		}
	}()
	return m
}

// slowdown stops sampling and returns the phase's median time per step
// over the reference's (above 1: slower than the reference host).
func (m *hostMeter) slowdown() float64 {
	close(m.stop)
	s := <-m.done
	return s.quantile(0.5) / 1e3 / calibRefNs
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
