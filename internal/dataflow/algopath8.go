package dataflow

// Packed-datapath variants of the alternate convolution algorithms (see
// algopath.go for the float32 versions and the error contracts). The
// im2col+GEMM lowering stays entirely on the int8 grid — int8 panel, int32
// accumulators, the same dequantize/requantize boundary as the direct int8
// path. Winograd runs its transform domain in float32 over dequantized
// tiles (the ±½ transform combinations do not survive the int8 grid), then
// requantizes the output; both algorithms keep the per-tensor scale
// accounting that parameterises QuantErrorBound.

import (
	"fmt"

	"condor/internal/quant"
)

// buildIm2ColPanel8 is buildIm2ColPanel over int8 codes.
func buildIm2ColPanel8(panel, padded []int8, l *LayerHW) {
	k, stride, pw := l.Kernel, l.Stride, l.PaddedWidth()
	outH, outW := l.OutShape.Height, l.OutShape.Width
	outHW := outH * outW
	for m := 0; m < k; m++ {
		for n := 0; n < k; n++ {
			dst := panel[(m*k+n)*outHW:]
			for oy := 0; oy < outH; oy++ {
				src := padded[(oy*stride+m)*pw+n:]
				if stride == 1 {
					copy(dst[oy*outW:(oy+1)*outW], src[:outW])
				} else {
					for ox := 0; ox < outW; ox++ {
						dst[oy*outW+ox] = src[ox*stride]
					}
				}
			}
		}
	}
}

// gemmAccInt8 is the int8 GEMM microkernel of one (output channel, input
// channel) pair: acc[pos] += Σ_t w[t]·panel[t·P+pos] over the tap-major
// im2col panel, P = len(acc) output positions, w the pair's K² weight codes.
// It sweeps the output plane once per block of four taps, with the block's
// codes widened into registers: four panel loads and one accumulator update
// per four MACs.
func gemmAccInt8(acc []int32, panel, w []int8) {
	n := len(acc)
	t := 0
	for ; t+4 <= len(w); t += 4 {
		w0, w1, w2, w3 := int32(w[t]), int32(w[t+1]), int32(w[t+2]), int32(w[t+3])
		r0 := panel[t*n : (t+1)*n]
		r1 := panel[(t+1)*n : (t+2)*n][:len(r0)]
		r2 := panel[(t+2)*n : (t+3)*n][:len(r0)]
		r3 := panel[(t+3)*n : (t+4)*n][:len(r0)]
		a := acc[:len(r0)]
		for i, v := range r0 {
			a[i] += w0*int32(v) + w1*int32(r1[i]) + w2*int32(r2[i]) + w3*int32(r3[i])
		}
	}
	for ; t < len(w); t++ {
		wt := int32(w[t])
		r := panel[t*n : (t+1)*n]
		a := acc[:len(r)]
		for i, v := range r {
			a[i] += wt * int32(v)
		}
	}
}

// runConvWinograd is the packed-datapath F(2,3) convolution: input codes are
// dequantized channel by channel into a padded float plane, the float
// transform-domain schedule of peExec.runConvWinograd runs over it against
// the float transformed weights, and the result requantizes with a fresh
// per-tensor scale. Output deviation from the oracle is bounded by
// QuantErrorBound + WinogradErrorBound.
func (x *peExecInt8) runConvWinograd(l *LayerHW, st *peLayerInt8, cur []int8, inScale float64, out []int8) (float64, error) {
	c, f := l.InShape.Channels, l.OutShape.Channels
	outH, outW := l.OutShape.Height, l.OutShape.Width
	outHW := outH * outW
	inHW := l.InShape.Height * l.InShape.Width
	if !WinogradOK(l.Kernel, l.Stride, l.OutShape) {
		return 0, fmt.Errorf("winograd_f23: layer %q does not qualify (k=%d s=%d out %dx%d)",
			l.Name, l.Kernel, l.Stride, outH, outW)
	}
	if st.streamBytes > 0 {
		x.dm.AccountReadBytes(st.streamBytes)
	}
	tH, tW := outH/2, outW/2
	tiles := tH * tW
	ph, pw := l.PaddedHeight(), l.PaddedWidth()
	h, w, pad := l.InShape.Height, l.InShape.Width, l.Pad
	x.padF = growSlice(x.padF, ph*pw)
	x.vBuf = growSlice(x.vBuf, tiles*16)
	x.mBuf = growSlice(x.mBuf, f*tiles*16)
	padded, vBuf, mBuf := x.padF, x.vBuf, x.mBuf
	clear(mBuf)
	outBands := x.pe.Par.Normalize().Out
	for ci := 0; ci < c; ci++ {
		// Dequantize the channel plane straight into the padded scratch.
		clear(padded)
		chmap := cur[ci*inHW : (ci+1)*inHW]
		for y := 0; y < h; y++ {
			row := padded[(y+pad)*pw+pad:]
			src := chmap[y*w : (y+1)*w]
			for i, code := range src {
				row[i] = float32(float64(code) * inScale)
			}
		}
		var d [16]float32
		for ty := 0; ty < tH; ty++ {
			for tx := 0; tx < tW; tx++ {
				for r := 0; r < 4; r++ {
					copy(d[r*4:r*4+4], padded[(2*ty+r)*pw+2*tx:(2*ty+r)*pw+2*tx+4])
				}
				winogradInputTransform(&d, vBuf[(ty*tW+tx)*16:])
			}
		}
		x.pool.bands(f, outBands, func(_, lo, hi int) {
			for fi := lo; fi < hi; fi++ {
				u := st.wg[(fi*c+ci)*16 : (fi*c+ci)*16+16]
				for ti := 0; ti < tiles; ti++ {
					m := mBuf[(fi*tiles+ti)*16 : (fi*tiles+ti)*16+16]
					v := vBuf[ti*16 : ti*16+16]
					for j := 0; j < 16; j++ {
						m[j] += u[j] * v[j]
					}
				}
			}
		})
		x.stats.WindowsRead += int64(tiles)
		x.stats.MACs += int64(f) * 16 * int64(tiles)
		if !x.pe.PartialsOnChip {
			x.dm.AccountPartialSpill(int64(f * outHW))
			x.stats.SpilledPartial += int64(f * outHW)
		}
	}
	x.floatBuf = growSlice(x.floatBuf, f*outHW)
	fb := x.floatBuf
	mags := make([]float64, outBands)
	x.pool.bands(f, outBands, func(band, lo, hi int) {
		mag := mags[band]
		for fi := lo; fi < hi; fi++ {
			var bias float32
			if len(st.b) > 0 {
				bias = st.b[fi]
			}
			for ti := 0; ti < tiles; ti++ {
				y := winogradInverse(mBuf[(fi*tiles+ti)*16 : (fi*tiles+ti)*16+16])
				ty, tx := ti/tW, ti%tW
				base := fi*outHW + (2*ty)*outW + 2*tx
				for _, v := range y {
					if a := abs64(float64(v)); a > mag {
						mag = a
					}
				}
				fb[base] = applyActivation(l.Activation, y[0]+bias)
				fb[base+1] = applyActivation(l.Activation, y[1]+bias)
				fb[base+outW] = applyActivation(l.Activation, y[2]+bias)
				fb[base+outW+1] = applyActivation(l.Activation, y[3]+bias)
			}
		}
		mags[band] = mag
	})
	for _, m := range mags {
		if m > x.stats.MaxWinogradMag {
			x.stats.MaxWinogradMag = m
		}
	}
	outScale := frameScale(fb)
	quant.QuantizeInto(out, fb, outScale)
	return outScale, nil
}
