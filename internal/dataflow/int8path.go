package dataflow

import (
	"fmt"
	"math"

	"condor/internal/fifo"
	"condor/internal/nn"
	"condor/internal/obs"
	"condor/internal/quant"
)

// This file is the packed int8 datapath: the fabric variant selected by
// Spec.WordBits == 8, where every FIFO word carries fifo.Int8Lanes quantized
// activation lanes. Each stream edge frames one image as a single float32
// scale-header word followed by PackedWords(volume) payload words; PEs unpack
// into int8, run conv/FC MACs in widened int32 accumulators, dequantize once
// per layer to fold bias/activation/normalisation in float, and requantize
// with a fresh symmetric per-tensor scale at the PE boundary. Only the feeder
// quantizes float inputs and only the collector dequantizes back — in
// between, activations exist purely as packed lanes, which is what shrinks
// the stream traversal cycles and DDR bytes by the lane factor.
//
// Unlike the float paths, results are not bit-identical to the oracle: the
// contract is bounded error, with the admissible deviation derived from the
// per-tensor scales recorded in RunStats (InputScale, MaxRequantScale). See
// quant_equiv_test.go.

// frameScale rounds a per-tensor scale to float32 before anything is
// quantized with it, so the exact value a header word can transport is also
// the value the codes were produced with.
func frameScale(data []float32) float64 {
	return float64(float32(quant.TensorScale(data, quant.Int8)))
}

// int8LayerWeights is one layer's weights pre-quantized onto the symmetric
// int8 grid. Built once per Instantiate (after the store seals) and shared
// read-only by every compute unit and every run, so batches never pay the
// weight-calibration scan again.
type int8LayerWeights struct {
	w      []int8
	wScale float64
	b      []float32
}

// quantizeWeightStore derives the int8 weight codes for every compute layer
// of a packed spec from the sealed datamover store.
func quantizeWeightStore(spec *Spec, dm *Datamover) (map[string]int8LayerWeights, error) {
	out := make(map[string]int8LayerWeights)
	for _, pe := range spec.PEs {
		for i := range pe.Layers {
			l := &pe.Layers[i]
			if l.Kind != nn.Conv && l.Kind != nn.FullyConnected {
				continue
			}
			w, b, err := dm.WeightsRef(l.Name)
			if err != nil {
				return nil, fmt.Errorf("dataflow: layer %q: %w", l.Name, err)
			}
			e := int8LayerWeights{wScale: frameScale(w), b: b}
			e.w = make([]int8, len(w))
			quant.QuantizeInto(e.w, w, e.wScale)
			out[l.Name] = e
		}
	}
	return out, nil
}

func growInt8(s []int8, n int) []int8 {
	if cap(s) < n {
		return make([]int8, n)
	}
	return s[:n]
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// pushInt8Frame sends one image's codes downstream: the scale header, then
// the packed payload.
func pushInt8Frame(f *fifo.FIFO, words []fifo.Word, codes []int8, scale float64) {
	f.Push(fifo.Word(scale))
	fifo.PackInt8(words, codes)
	f.PushPacked(words[:fifo.PackedWords(len(codes))], int64(len(codes)))
}

// popInt8Frame receives one image's codes: header word, then payload.
func popInt8Frame(f *fifo.FIFO, words []fifo.Word, codes []int8) (float64, error) {
	sw, ok := f.Pop()
	if !ok {
		return 0, fmt.Errorf("input stream ended before the scale header")
	}
	need := fifo.PackedWords(len(codes))
	if n := f.PopPackedInto(words[:need], int64(len(codes))); n < need {
		return 0, fmt.Errorf("input stream ended after %d of %d packed words", n, need)
	}
	fifo.UnpackInt8(codes, words)
	return float64(sw), nil
}

// peExecInt8 executes one PE over a batch on the packed datapath. The
// schedule (channel passes, output banding on the worker pool, fused-layer
// handoffs) mirrors peExec; the arithmetic is int8×int8→int32 with one
// dequantize/requantize per layer boundary. Windows are read by direct
// indexing into a zero-padded channel map rather than through the filter
// chain: the chain's word-granularity simulation is a float-path fidelity
// device, while the packed datapath models its stream traversal through
// LayerCyclesAt and keeps the host loop tight — that hot-loop tightness is
// where the measured (not just modeled) int8 speedup comes from.
type peExecInt8 struct {
	pe    *PE
	dm    *Datamover
	qw    map[string]int8LayerWeights // Instantiate-time weight codes (nil → quantize in prepare)
	wg    map[string][]float32        // Winograd-transformed float weights (winograd_f23 layers)
	in    *fifo.FIFO
	out   *fifo.FIFO
	stats *PEStats
	track *obs.Track // nil when tracing is off

	// Session hooks, same contract as peExec: onImage advances the RunBatch
	// barrier, onErr latches a failure before the input drain starts.
	onImage func()
	onErr   func(error)

	pool   *workerPool
	layers []peLayerInt8

	// Scratch reused across layers and images.
	curCodes []int8
	nxtCodes []int8
	floatBuf []float32
	partial  []int32
	padBuf   []int8
	wordBuf  []fifo.Word
	panel    []int8    // im2col panel (GEMM mode), K² tap-major rows
	padF     []float32 // dequantized padded channel plane (Winograd mode)
	vBuf     []float32 // Winograd transformed input tiles
	mBuf     []float32 // Winograd transform-domain accumulators
}

// peLayerInt8 is one fused layer's batch-resolved state: weight codes on the
// symmetric int8 grid plus their scale, and the float bias folded at
// dequantization time.
type peLayerInt8 struct {
	w           []int8
	wScale      float64
	b           []float32
	wg          []float32 // Winograd-transformed float weights (winograd_f23 layers only)
	streamBytes int64     // weight+bias bytes re-read from DDR per image (0 when on-chip)
}

func (x *peExecInt8) prepare() error {
	x.layers = make([]peLayerInt8, len(x.pe.Layers))
	for li := range x.pe.Layers {
		l := &x.pe.Layers[li]
		st := &x.layers[li]
		if l.Kind != nn.Conv && l.Kind != nn.FullyConnected {
			continue
		}
		if e, ok := x.qw[l.Name]; ok {
			st.w, st.wScale, st.b = e.w, e.wScale, e.b
		} else {
			// Spec switched to WordBits==8 after Instantiate: derive the
			// codes here (the slow path the Instantiate-time cache avoids).
			w, b, err := x.dm.WeightsRef(l.Name)
			if err != nil {
				return fmt.Errorf("layer %q: %w", l.Name, err)
			}
			st.wScale = frameScale(w)
			st.w = make([]int8, len(w))
			quant.QuantizeInto(st.w, w, st.wScale)
			st.b = b
		}
		if len(st.w) != l.WeightWords() {
			return fmt.Errorf("layer %q: weight stream has %d words, want %d", l.Name, len(st.w), l.WeightWords())
		}
		if !x.pe.WeightsOnChip {
			st.streamBytes = int64(len(st.w) + len(st.b))
		}
		if l.Kind == nn.Conv && l.Algo() == AlgoWinograd {
			// The transform domain stays float on the packed datapath (the
			// ±½ combinations do not survive the int8 grid): the EWMM runs
			// on dequantized tiles against the float transformed weights.
			if !WinogradOK(l.Kernel, l.Stride, l.OutShape) {
				return fmt.Errorf("layer %q: winograd_f23 requires a 3×3/stride-1 kernel and 2×2-tile-aligned output, got k=%d s=%d out %dx%d",
					l.Name, l.Kernel, l.Stride, l.OutShape.Height, l.OutShape.Width)
			}
			st.wg = x.wg[l.Name]
			if st.wg == nil {
				w, _, err := x.dm.WeightsRef(l.Name)
				if err != nil {
					return fmt.Errorf("layer %q: %w", l.Name, err)
				}
				st.wg = winogradTransformWeights(w, l.InShape.Channels, l.OutShape.Channels)
			}
		}
	}
	width := x.pe.Par.Normalize()
	par := width.In
	if width.Out > par {
		par = width.Out
	}
	x.pool = newPEWorkerPool(par)
	return nil
}

// runStream is the resident session loop, mirroring peExec.runStream:
// epoch-validated frames until end-of-stream, prepare amortized over the
// session, failure latched before the terminating input drain.
func (x *peExecInt8) runStream() error {
	defer x.out.Close()
	fail := func(err error) error {
		err = fmt.Errorf("dataflow: %s: %w", x.pe.ID, err)
		x.onErr(err)
		x.in.Drain()
		return err
	}
	if err := x.prepare(); err != nil {
		return fail(err)
	}
	defer x.pool.close()
	var epoch uint16
	for {
		e, ok, err := x.in.PopFrameHeader()
		if !ok {
			return nil // end of session
		}
		if err != nil {
			return fail(err)
		}
		if e != epoch {
			return fail(fmt.Errorf("frame epoch %d arrived, expected %d", e, epoch))
		}
		x.out.PushFrameHeader(e)
		if err := x.runImage(int(epoch)); err != nil {
			return fail(fmt.Errorf("epoch %d: %w", e, err))
		}
		x.stats.Images++
		epoch++
		x.onImage()
	}
}

func (x *peExecInt8) runImage(img int) error {
	lanes := fifo.Int8Lanes
	vol := x.pe.Layers[0].InShape.Volume()
	x.curCodes = growInt8(x.curCodes, vol)
	x.wordBuf = growWords(x.wordBuf, fifo.PackedWords(vol))
	scale, err := popInt8Frame(x.in, x.wordBuf, x.curCodes)
	if err != nil {
		return err
	}
	x.stats.ElemsIn += int64(vol)

	cur := x.curCodes
	for li := range x.pe.Layers {
		l := &x.pe.Layers[li]
		st := &x.layers[li]
		if len(cur) != l.InShape.Volume() {
			return fmt.Errorf("fused intermediate has %d lanes, layer expects %d", len(cur), l.InShape.Volume())
		}
		outVol := l.OutShape.Volume()
		x.nxtCodes = growInt8(x.nxtCodes, outVol)
		out := x.nxtCodes

		sid := 0
		if x.track != nil {
			sid = x.track.Begin(l.Name, x.stats.Cycles)
		}

		var outScale float64
		switch l.Kind {
		case nn.Conv:
			if l.Algo() == AlgoWinograd {
				outScale, err = x.runConvWinograd(l, st, cur, scale, out)
			} else {
				outScale, err = x.runConv(l, st, cur, scale, out)
			}
		case nn.MaxPool, nn.AvgPool:
			outScale, err = x.runPool(l, cur, scale, out)
		case nn.FullyConnected:
			outScale, err = x.runFC(l, st, cur, scale, out)
		default:
			err = fmt.Errorf("layer %q: unsupported PE kind %v", l.Name, l.Kind)
		}
		if err != nil {
			return fmt.Errorf("layer %q: %w", l.Name, err)
		}
		x.stats.Cycles += LayerCyclesAt(l, x.pe.Par, lanes)
		if outScale > x.stats.MaxRequantScale {
			x.stats.MaxRequantScale = outScale
		}

		if li == len(x.pe.Layers)-1 {
			x.wordBuf = growWords(x.wordBuf, fifo.PackedWords(outVol))
			pushInt8Frame(x.out, x.wordBuf, out, outScale)
			x.stats.ElemsOut += int64(outVol)
		} else {
			// Fused-layer handoff: the intermediate rides through DDR as
			// packed bytes (one per lane), half the round trip each way.
			x.dm.AccountWriteBytes(int64(outVol))
			x.dm.AccountReadBytes(int64(outVol))
			x.stats.Cycles += 2 * ceilDiv64(int64(outVol), int64(lanes))
		}
		if x.track != nil {
			x.track.AddWords(sid, int64(fifo.PackedWords(outVol)))
			x.track.End(sid, x.stats.Cycles)
		}
		x.curCodes, x.nxtCodes = x.nxtCodes, x.curCodes
		cur, scale = out, outScale
	}
	return nil
}

// padChannel copies one channel map into the zero-padded scratch. With no
// padding the in-place map is returned directly.
func (x *peExecInt8) padChannel(l *LayerHW, chmap []int8) []int8 {
	if l.Pad == 0 {
		return chmap
	}
	h, w, pad := l.InShape.Height, l.InShape.Width, l.Pad
	ph, pw := l.PaddedHeight(), l.PaddedWidth()
	x.padBuf = growInt8(x.padBuf, ph*pw)
	padded := x.padBuf
	for i := range padded {
		padded[i] = 0
	}
	for y := 0; y < h; y++ {
		copy(padded[(y+pad)*pw+pad:], chmap[y*w:(y+1)*w])
	}
	return padded
}

// runConv is the quantized convolutional PE for the direct and im2col+GEMM
// schedules: per input-channel pass, every (output channel, input channel)
// pair adds its window sums to the output channel's int32 partial plane,
// output channels banded across the worker pool. After the last pass the
// accumulators are dequantized (acc · wScale · inScale + bias), activated in
// float, and requantized with a fresh per-tensor scale. Every sum is int32,
// so both schedules give the same codes whatever their accumulation order.
func (x *peExecInt8) runConv(l *LayerHW, st *peLayerInt8, cur []int8, inScale float64, out []int8) (float64, error) {
	c, f, k := l.InShape.Channels, l.OutShape.Channels, l.Kernel
	outHW := l.OutShape.Height * l.OutShape.Width
	inHW := l.InShape.Height * l.InShape.Width
	kk := k * k
	gemm := l.Algo() == AlgoGEMM
	if st.streamBytes > 0 {
		x.dm.AccountReadBytes(st.streamBytes)
	}
	x.partial = growInt32(x.partial, f*outHW)
	partial := x.partial
	clear(partial)
	if gemm {
		x.panel = growInt8(x.panel, kk*outHW)
	}
	panel := x.panel
	outBands := x.pe.Par.Normalize().Out
	for ci := 0; ci < c; ci++ {
		padded := x.padChannel(l, cur[ci*inHW:(ci+1)*inHW])
		if gemm {
			buildIm2ColPanel8(panel, padded, l)
		}
		x.pool.bands(f, outBands, func(_, lo, hi int) {
			for fi := lo; fi < hi; fi++ {
				acc := partial[fi*outHW : (fi+1)*outHW]
				w := st.w[(fi*c+ci)*kk : (fi*c+ci+1)*kk]
				if gemm {
					gemmAccInt8(acc, panel, w)
				} else {
					convAccInt8(acc, padded, w, l)
				}
			}
		})
		x.stats.WindowsRead += int64(outHW)
		x.stats.MACs += int64(f) * int64(kk) * int64(outHW)
		if !x.pe.PartialsOnChip {
			x.dm.AccountPartialSpill(int64(f * outHW))
			x.stats.SpilledPartial += int64(f * outHW)
		}
	}
	x.floatBuf = growSlice(x.floatBuf, f*outHW)
	fb := x.floatBuf
	deq := st.wScale * inScale
	x.pool.bands(f, outBands, func(_, lo, hi int) {
		for fi := lo; fi < hi; fi++ {
			var bias float64
			if len(st.b) > 0 {
				bias = float64(st.b[fi])
			}
			off := fi * outHW
			for pos := 0; pos < outHW; pos++ {
				fb[off+pos] = applyActivation(l.Activation, float32(float64(partial[off+pos])*deq+bias))
			}
		}
	})
	outScale := frameScale(fb)
	quant.QuantizeInto(out, fb, outScale)
	return outScale, nil
}

// convAccInt8 adds one (output channel, input channel) pair's window sums to
// acc, the output channel's outH×outW int32 plane, from padded, the
// zero-padded input channel, and w, the pair's K² weight codes. 5×5/stride-1
// layers (every conv of the paper's models) take conv5x5Int8; any other
// geometry walks row-stationary: each tap scales one strided input row into
// one output row.
func convAccInt8(acc []int32, padded, w []int8, l *LayerHW) {
	k, stride, pw, outW := l.Kernel, l.Stride, l.PaddedWidth(), l.OutShape.Width
	if k == 5 && stride == 1 {
		conv5x5Int8(acc, padded, w, pw, outW)
		return
	}
	for oy := 0; oy < len(acc)/outW; oy++ {
		dst := acc[oy*outW : (oy+1)*outW]
		for m := 0; m < k; m++ {
			row := padded[(oy*stride+m)*pw:]
			for n, wv := range w[m*k : (m+1)*k] {
				wt := int32(wv)
				if stride == 1 {
					src := row[n : n+outW]
					d := dst[:len(src)]
					for i, v := range src {
						d[i] += wt * int32(v)
					}
				} else {
					src := row[n : n+(outW-1)*stride+1]
					for i := range dst {
						dst[i] += wt * int32(src[i*stride])
					}
				}
			}
		}
	}
}

// conv5x5Int8 is convAccInt8 for a 5×5/stride-1 window. The 25 codes are
// widened once into a local array; each kernel row then slides a five-lane
// register window along its input row, so every output costs one input load
// and five register MACs per kernel row, with no bounds check in the loop.
func conv5x5Int8(acc []int32, padded, w []int8, pw, outW int) {
	var wk [25]int32
	for i, v := range w[:25] {
		wk[i] = int32(v)
	}
	for oy := 0; oy < len(acc)/outW; oy++ {
		dst := acc[oy*outW : (oy+1)*outW]
		for m := 0; m < 5; m++ {
			wr := wk[5*m : 5*m+5]
			w0, w1, w2, w3, w4 := wr[0], wr[1], wr[2], wr[3], wr[4]
			src := padded[(oy+m)*pw:][:outW+4]
			x0, x1, x2, x3 := int32(src[0]), int32(src[1]), int32(src[2]), int32(src[3])
			src = src[4:]
			d := dst[:len(src)]
			for i, v := range src {
				x4 := int32(v)
				d[i] += w0*x0 + w1*x1 + w2*x2 + w3*x3 + w4*x4
				x0, x1, x2, x3 = x1, x2, x3, x4
			}
		}
	}
}

// runPool is the quantized sub-sampling PE. Max pooling with no folded
// activation stays entirely on the int8 grid — max commutes with the
// monotone dequantization, so the pass is exact and the input scale passes
// through. Average pooling (and any folded activation) accumulates in int32,
// dequantizes, applies the float stage and requantizes.
func (x *peExecInt8) runPool(l *LayerHW, cur []int8, inScale float64, out []int8) (float64, error) {
	c, k := l.InShape.Channels, l.Kernel
	outH, outW := l.OutShape.Height, l.OutShape.Width
	outHW := outH * outW
	inHW := l.InShape.Height * l.InShape.Width
	pw := l.PaddedWidth()
	stride := l.Stride
	isMax := l.Kind == nn.MaxPool
	pureMax := isMax && l.Activation == NoActivation
	if !pureMax {
		x.floatBuf = growSlice(x.floatBuf, c*outHW)
	}
	fb := x.floatBuf
	inv := inScale / float64(k*k)
	inBands := x.pe.Par.Normalize().In
	// Channel maps are independent; bands shard whole channels, and each
	// band pads into its own local scratch (x.padBuf is single-pass state).
	poolChannel := func(padded []int8, base int) {
		for oy := 0; oy < outH; oy++ {
			iy0 := oy * stride
			for ox := 0; ox < outW; ox++ {
				ix0 := ox * stride
				if isMax {
					v := int8(math.MinInt8)
					for m := 0; m < k; m++ {
						row := padded[(iy0+m)*pw+ix0:]
						for n := 0; n < k; n++ {
							if row[n] > v {
								v = row[n]
							}
						}
					}
					if pureMax {
						out[base+oy*outW+ox] = v
					} else {
						fb[base+oy*outW+ox] = applyActivation(l.Activation, float32(float64(v)*inScale))
					}
				} else {
					var sum int32
					for m := 0; m < k; m++ {
						row := padded[(iy0+m)*pw+ix0:]
						for n := 0; n < k; n++ {
							sum += int32(row[n])
						}
					}
					fb[base+oy*outW+ox] = applyActivation(l.Activation, float32(float64(sum)*inv))
				}
			}
		}
	}
	if x.pool == nil || inBands <= 1 || c <= 1 || l.Pad != 0 {
		for ci := 0; ci < c; ci++ {
			poolChannel(x.padChannel(l, cur[ci*inHW:(ci+1)*inHW]), ci*outHW)
		}
	} else {
		x.pool.bands(c, inBands, func(_, lo, hi int) {
			for ci := lo; ci < hi; ci++ {
				poolChannel(cur[ci*inHW:(ci+1)*inHW], ci*outHW)
			}
		})
	}
	x.stats.WindowsRead += int64(c) * int64(outHW)
	if pureMax {
		return inScale, nil
	}
	outScale := frameScale(fb[:c*outHW])
	quant.QuantizeInto(out, fb[:c*outHW], outScale)
	return outScale, nil
}

// runFC is the quantized fully-connected PE: each output neuron's int32
// accumulation walks the packed input lanes, then the whole vector is
// dequantized, biased, activated, normalized (LogSoftMax/SoftMax in float —
// the paper folds normalisation into the last PE) and requantized for the
// output frame.
func (x *peExecInt8) runFC(l *LayerHW, st *peLayerInt8, cur []int8, inScale float64, out []int8) (float64, error) {
	v := l.InShape.Volume()
	o := l.OutShape.Channels
	if st.streamBytes > 0 {
		x.dm.AccountReadBytes(st.streamBytes)
	}
	x.partial = growInt32(x.partial, o)
	partial := x.partial
	x.floatBuf = growSlice(x.floatBuf, o)
	fb := x.floatBuf[:o]
	deq := st.wScale * inScale
	in := cur[:v]
	x.pool.bands(o, x.pe.Par.Normalize().Out, func(_, lo, hi int) {
		fcInt8(partial[lo:hi], st.w[lo*v:hi*v], in)
		for oi := lo; oi < hi; oi++ {
			var bias float64
			if len(st.b) > 0 {
				bias = float64(st.b[oi])
			}
			fb[oi] = float32(float64(partial[oi])*deq + bias)
		}
	})
	x.stats.MACs += int64(o) * int64(v)
	for i := range fb {
		fb[i] = applyActivation(l.Activation, fb[i])
	}
	if l.Normalize != NoActivation {
		normalizeInPlace(l.Normalize, fb)
	}
	outScale := frameScale(fb)
	quant.QuantizeInto(out, fb, outScale)
	return outScale, nil
}

// fcInt8 sets acc[i] to the int32 dot product of in with weight row i of w
// (len(acc) rows of len(in) codes). The kernel is register-blocked over
// fcRowBlock neurons, which share every input load.
func fcInt8(acc []int32, w, in []int8) {
	v := len(in)
	o := 0
	for ; o+fcRowBlock <= len(acc); o += fcRowBlock {
		w0 := w[o*v : (o+1)*v][:len(in)]
		w1 := w[(o+1)*v : (o+2)*v][:len(in)]
		w2 := w[(o+2)*v : (o+3)*v][:len(in)]
		w3 := w[(o+3)*v : (o+4)*v][:len(in)]
		var a0, a1, a2, a3 int32
		for h, xv := range in {
			xh := int32(xv)
			a0 += int32(w0[h]) * xh
			a1 += int32(w1[h]) * xh
			a2 += int32(w2[h]) * xh
			a3 += int32(w3[h]) * xh
		}
		acc[o], acc[o+1], acc[o+2], acc[o+3] = a0, a1, a2, a3
	}
	for ; o < len(acc); o++ {
		wr := w[o*v : (o+1)*v][:len(in)]
		var a int32
		for h, xv := range in {
			a += int32(wr[h]) * int32(xv)
		}
		acc[o] = a
	}
}

// fcRowBlock is the number of output neurons fcInt8 accumulates at once.
const fcRowBlock = 4
