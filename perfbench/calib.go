package main

import (
	"runtime"
	"sync"
	"time"
)

// The host this benchmark runs on does not keep one speed: a fixed loop's
// time wanders by a quarter within minutes (NOTES.md, Host speed). The
// batch workload's call times and every set-up time are therefore taken on
// a reference clock: a wall time is scaled by calRefMs over the mean time
// the calibration kernel took just before and just after it. The kernel is
// the benchmark's own code, so a change to the program moves the figures in
// full. Serve latencies stay on the wall clock: they did not follow the
// kernel (NOTES.md).
const (
	// calRefMs is the calibration kernel's median time on the host the
	// benchmark was sized on (2-vCPU Intel Xeon, GOMAXPROCS 2).
	calRefMs = 7.5
	// calReps sizes the kernel: passes of a 5×5 convolution over a 28×28
	// map on each of GOMAXPROCS goroutines.
	calReps = 600
)

var (
	calIn   [28 * 28]float32
	calW    [25]float32
	calSink [64]float32 // one slot per goroutine; defeats dead-code removal
)

func init() {
	for i := range calIn {
		calIn[i] = float32(i%7) * 0.1
	}
	for i := range calW {
		calW[i] = float32(i%5) * 0.2
	}
}

// calibrate runs the kernel once on every processor and returns its wall
// time in milliseconds. It allocates nothing, so it neither triggers nor
// pays for the program's garbage collection.
func calibrate() float64 {
	n := min(runtime.GOMAXPROCS(0), len(calSink))
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var acc float32
			for r := 0; r < calReps; r++ {
				for y := 0; y < 24; y++ {
					for x := 0; x < 24; x++ {
						var s float32
						for ky := 0; ky < 5; ky++ {
							row := calIn[(y+ky)*28+x:]
							wr := calW[ky*5:]
							s += row[0]*wr[0] + row[1]*wr[1] + row[2]*wr[2] + row[3]*wr[3] + row[4]*wr[4]
						}
						acc += s
					}
				}
			}
			calSink[g] = acc
		}()
	}
	wg.Wait()
	return ms(time.Since(t0))
}

// refScale returns the factor that takes wall time measured between the
// calibrations before and after it to the reference clock.
func refScale(before, after float64) float64 {
	return 2 * calRefMs / (before + after)
}

// calibrated puts a sequence of timed intervals on the reference clock:
// call begin before the first interval and mark after each; mark
// calibrates the host and returns the factor that takes the interval's wall
// time to the reference clock.
type calibrated struct {
	last float64   // the latest calibration
	cals []float64 // every calibration, in milliseconds
}

func (c *calibrated) begin() {
	c.last = calibrate()
	c.cals = append(c.cals, c.last)
}

func (c *calibrated) mark() float64 {
	before := c.last
	c.begin()
	return refScale(before, c.last)
}
