package main

import (
	"context"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/rng"
)

// The reference box is a shared 2-vCPU VM whose speed drifts: a fixed ALU
// loop on the idle box takes anywhere from 17 to 35 ms, and every workload
// ran 20–45% slower through spells of several minutes. Runs are made
// comparable by a probe that times a small fixed kernel, which no
// repository code touches, every 100 ms beside the load. Times (and
// closed-loop rates) are reported scaled by the probe's median over the
// kernel's time on the reference box. The probe reads its thread's CPU
// time, so waiting for a CPU the load holds does not count. Over ten runs
// of each workload through a slow spell, the scaling cut the worst spread
// from 0.45 to 0.23 and the p50 spreads to 0.05–0.10.

// probeRefUs is the probe kernel's median time on the reference box.
const probeRefUs = 505.0

// probeHost waits delay, then times the probe kernel (sorting 4Ki random
// float64s and copying 1 MiB) every 100 ms until ctx is done, and returns
// the median in microseconds of thread CPU time.
func probeHost(ctx context.Context, delay time.Duration) float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	r := rng.New(2)
	data := make([]float64, 4<<10)
	src, dst := make([]byte, 1<<20), make([]byte, 1<<20)
	var ds []float64
	wait := time.NewTimer(delay)
	defer wait.Stop()
	select {
	case <-ctx.Done():
		return probeRefUs
	case <-wait.C:
	}
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		start := threadCPU()
		for i := range data {
			data[i] = r.Float64()
		}
		slices.Sort(data)
		copy(dst, src)
		ds = append(ds, float64(threadCPU()-start)/float64(time.Microsecond))
		select {
		case <-ctx.Done():
			return median(ds)
		case <-tick.C:
		}
	}
}

// threadCPU reads CLOCK_THREAD_CPUTIME_ID.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// hostScale says how a metric moves with the host's speed.
type hostScale int

const (
	fixed   hostScale = iota // counts, sizes, ratios and validity checks
	perTime                  // times: reported ÷ host factor
	perRate                  // rates the host limits (closed loops): reported × host factor
)

// toReference rescales a run's metrics to the reference host. factor is
// the probe's median over probeRefUs (above 1 on a slower host).
// Open-loop throughput is set by the generator's schedule, not the host,
// and stays as measured.
func toReference(m map[string]float64, defs []metricDef, factor float64, closed bool) {
	for _, d := range defs {
		switch {
		case d.scale == perTime:
			m[d.name] /= factor
		case d.scale == perRate && closed:
			m[d.name] *= factor
		}
	}
}
