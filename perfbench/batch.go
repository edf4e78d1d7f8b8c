package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"condor"
	"condor/internal/dataflow"
	"condor/internal/models"
	"condor/internal/obs"
	"condor/internal/perf"
	"condor/internal/quant"
	"condor/internal/tensor"
)

// batchWorkload is one closed-loop caller on the LeNet DSE build, bypassing
// every serving layer. It alternates fixed-size CUPool.RunBatch calls on a
// float32 pool and an int8 pool, so a pair of calls covers both datapaths
// and a drift of the host's speed reaches both alike.
type batchWorkload struct {
	precs []quant.Precision // one pool per precision, called in this order
	pool  int               // distinct input images
	batch int               // images per RunBatch call
}

// lane is one precision's build, two-unit pool and oracle.
type lane struct {
	prec       quant.Precision
	build      *condor.Build
	pool       *dataflow.CUPool
	ora        *oracle
	callCycles int64 // modeled device cycles of one call
}

func (w batchWorkload) build(prec quant.Precision) (*condor.Build, error) {
	ir, ws, err := models.LeNet()
	if err != nil {
		return nil, err
	}
	b, err := condor.New().BuildAccelerator(condor.Input{IR: ir, Weights: ws, Board: localBoard, RunDSE: true, Precision: prec, ComputeUnits: computeUnits})
	if err != nil {
		return nil, fmt.Errorf("%v build: %w", prec, err)
	}
	return b, checkPEs(b.Spec)
}

// setup builds the DSE design of every precision, instantiates a two-unit
// pool of each and runs one image on each unit, returning the lanes and the
// time each of the three steps took over all precisions.
func (w batchWorkload) setup(oras []*oracle, imgs []*tensor.Tensor) ([]*lane, [3]time.Duration, error) {
	var times [3]time.Duration
	lanes := make([]*lane, len(w.precs))
	t0 := time.Now()
	for i, prec := range w.precs {
		b, err := w.build(prec)
		if err != nil {
			return nil, times, err
		}
		lanes[i] = &lane{prec: prec, build: b, ora: oras[i], callCycles: modeledCallCycles(b, w.batch)}
	}
	t1 := time.Now()
	for _, l := range lanes {
		acc, err := dataflow.Instantiate(l.build.Spec, l.build.Weights)
		if err != nil {
			return nil, times, err
		}
		l.pool = dataflow.NewCUPool(acc, computeUnits)
	}
	t2 := time.Now()
	for _, l := range lanes {
		outs, _, err := l.pool.RunBatch(imgs[:computeUnits])
		for i := 0; err == nil && i < len(outs); i++ {
			err = l.ora.check(i, outs[i].Data())
		}
		if err != nil {
			return nil, times, fmt.Errorf("%v warm-up: %w (closing: %v)", l.prec, err, closeLanes(lanes))
		}
	}
	t3 := time.Now()
	return lanes, [3]time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)}, nil
}

// closeLanes joins the fabric goroutines of every lane's pool; the pools
// reopen on their next call.
func closeLanes(lanes []*lane) error {
	var errs []error
	for _, l := range lanes {
		if l != nil && l.pool != nil {
			errs = append(errs, l.pool.Close())
		}
	}
	return errors.Join(errs...)
}

// batchPhase is one measured closed-loop pass. Call times are on the
// reference clock (calib.go) unless named wall.
type batchPhase struct {
	callMs []float64 // every call, all precisions
	pairMs []float64 // one call of each precision, back to back
	wallMs float64   // wall time of every call
	cals   []float64 // calibrations, one before each pair and one after the last
	images int64     // images in correct calls
	calls  int64
	failed int64 // calls that errored or returned a wrong output
	wrong  error
	// laneImages and laneMs split images and call time by precision.
	laneImages []int64
	laneMs     []float64
	// modelCycles sums the modeled device cycles of every call.
	modelCycles int64
	bursts      int64 // FIFO burst synchronisations (from CUPool.Stats)
	fifoImages  int64
}

// measure runs pairs of calls until window has passed, calibrating the
// host before each pair and after the last.
func (w batchWorkload) measure(lanes []*lane, imgs []*tensor.Tensor, rng *rand.Rand, window time.Duration) batchPhase {
	ph := batchPhase{laneImages: make([]int64, len(lanes)), laneMs: make([]float64, len(lanes))}
	idx := make([]int, w.batch)
	batch := make([]*tensor.Tensor, w.batch)
	wall := make([]float64, len(lanes))
	var clk calibrated
	clk.begin()
	start := time.Now()
	for time.Since(start) < window {
		for li, l := range lanes {
			for i := range batch {
				idx[i] = rng.Intn(len(imgs))
				batch[i] = imgs[idx[i]]
			}
			t0 := time.Now()
			outs, _, err := l.pool.RunBatch(batch)
			wall[li] = ms(time.Since(t0))
			ph.calls++
			ph.modelCycles += l.callCycles
			for i := 0; err == nil && i < len(outs); i++ {
				if cerr := l.ora.check(idx[i], outs[i].Data()); cerr != nil {
					err = fmt.Errorf("%v image %d: %w", l.prec, idx[i], cerr)
					if ph.wrong == nil {
						ph.wrong = err
					}
				}
			}
			if err != nil {
				ph.failed++
				continue
			}
			ph.images += int64(len(outs))
			ph.laneImages[li] += int64(len(outs))
		}
		scale := clk.mark()
		var pair float64
		for li, d := range wall {
			ph.wallMs += d
			ph.callMs = append(ph.callMs, d*scale)
			ph.laneMs[li] += d * scale
			pair += d * scale
		}
		ph.pairMs = append(ph.pairMs, pair)
	}
	ph.cals = clk.cals
	for _, l := range lanes {
		st := l.pool.Stats()
		for _, s := range st.Streams {
			ph.bursts += s.PushBursts + s.PopBursts
		}
		ph.fifoImages += int64(st.Images)
	}
	return ph
}

// rate is the phase's correct images per second of RunBatch time on the
// reference clock.
func (ph batchPhase) rate() float64 {
	var callMs float64
	for _, d := range ph.callMs {
		callMs += d
	}
	return safeDiv(float64(ph.images), callMs/1000)
}

// laneRates sets each precision's correct images per second of its own
// RunBatch time.
func (ph batchPhase) laneRates(vals map[string]float64, lanes []*lane) {
	for i, l := range lanes {
		vals["dataflow.img_per_s_"+dtypeName(l.prec)] = safeDiv(float64(ph.laneImages[i]), ph.laneMs[i]/1000)
	}
}

// dtypeName is a precision's short name in metric names.
func dtypeName(p quant.Precision) string {
	if p == quant.Float32 {
		return "f32"
	}
	return p.String()
}

// modeledCallCycles is the modeled device time of one RunBatch call of n
// images: the pool splits the batch contiguously across its units and each
// shard costs perf.SimulateBatch cycles.
func modeledCallCycles(b *condor.Build, n int) int64 {
	stages := perf.Stages(b.Spec)
	per := (n + computeUnits - 1) / computeUnits
	var total int64
	for lo := 0; lo < n; lo += per {
		total += perf.SimulateBatch(stages, min(per, n-lo))
	}
	return total
}

func (w batchWorkload) run(o runOptions) (*runResult, error) {
	imgs := models.MNISTImages(w.pool, o.seed)
	oras := make([]*oracle, len(w.precs))
	for i, prec := range w.precs {
		b, err := w.build(prec)
		if err != nil {
			return nil, fmt.Errorf("oracle %w", err)
		}
		if oras[i], err = newOracle(b, imgs); err != nil {
			return nil, err
		}
	}
	var lanes []*lane
	var setups [][3]time.Duration
	var clk calibrated
	clk.begin()
	for k := 0; k < setupRepeats; k++ {
		if err := closeLanes(lanes); err != nil {
			return nil, fmt.Errorf("closing set-up %d: %w", k, err)
		}
		// Each set-up starts from a collected heap, so neither its time nor
		// the peak resident set depends on the garbage of the one before.
		lanes = nil
		runtime.GC()
		var times [3]time.Duration
		var err error
		if lanes, times, err = w.setup(oras, imgs); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", k, err)
		}
		setups = append(setups, scaleTimes(times, clk.mark()))
	}
	defer closeLanes(lanes)
	for _, l := range lanes {
		printAlgos(l.prec, l.build)
	}
	res := &runResult{vals: map[string]float64{}, correct: true}
	rng := rand.New(rand.NewSource(o.seed))

	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	warm := w.measure(lanes, imgs, rng, warmFor)
	res.noteBatch(warm, "warm-up", false, w.batch)
	runtime.GC()
	plain := w.measure(lanes, imgs, rng, o.phase())
	res.noteBatch(plain, "untraced", true, w.batch)
	plainRate := plain.rate()
	plain.laneRates(res.vals, lanes)
	// The wall-clock rate and the host's calibration time, beside the
	// figures on the reference clock.
	fmt.Printf("wall goodput_rps=%.3f host.cal_ms=%.4f\n", safeDiv(float64(plain.images), plain.wallMs/1000), summarize(plain.cals).P50)
	if !o.trace {
		d := summarize(plain.pairMs)
		res.vals["goodput_rps"] = plainRate
		res.vals["latency_p50_ms"] = d.P50
		res.vals["latency_p90_ms"] = d.P90
		printSamples("latency_p50_ms", d, 50)
		printSamples("latency_p90_ms", d, 90)
		printTail("latency", d)
	} else {
		// Resident sessions register their trace tracks when they open, so
		// the pools are closed and reopen traced on their next call. Each
		// pool gets its own trace: both name their tracks cuN/<element>.
		traces := make([]*obs.Trace, len(lanes))
		for i, l := range lanes {
			traces[i] = obs.NewTrace()
			l.pool.SetTracer(traces[i])
		}
		if err := closeLanes(lanes); err != nil {
			return nil, err
		}
		runtime.GC()
		traced := w.measure(lanes, imgs, rng, o.phase())
		// Closing joins the fabric goroutines before the traces are read.
		if err := closeLanes(lanes); err != nil {
			return nil, err
		}
		res.noteBatch(traced, "traced", true, w.batch)
		res.vals["trace.overhead_frac"] = plainRate/traced.rate() - 1
		res.vals["dataflow.runbatch_ms_p50"] = summarize(traced.pairMs).P50 / float64(len(lanes))
		var fab fabricProfile
		for _, tr := range traces {
			fab.add(profileFabric(tr))
		}
		fab.fill(res.vals)
		res.vals["fifo.bursts_per_img"] = safeDiv(float64(traced.bursts), float64(traced.fifoImages))
		res.vals["dataflow.model_cycles_per_img"] = float64(traced.modelCycles) / float64(traced.calls*int64(w.batch))
	}
	res.setupTimes(setups)
	return res, nil
}

// printAlgos records the convolution algorithm DSE chose for each layer.
func printAlgos(prec quant.Precision, b *condor.Build) {
	fmt.Printf("algorithms %v", prec)
	for _, pe := range b.Spec.PEs {
		for _, l := range pe.Layers {
			fmt.Printf(" %s:%s=%v", pe.ID, l.Name, l.Algo())
		}
	}
	fmt.Println()
}
