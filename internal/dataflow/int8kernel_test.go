package dataflow

import (
	"fmt"
	"math/rand"
	"testing"

	"condor/internal/condorir"
	"condor/internal/models"
	"condor/internal/nn"
	"condor/internal/tensor"
)

// These tests pin the packed datapath's integer kernels to exactness rather
// than to the bounded-error contract against the float oracle: every MAC
// chain is int32, so any schedule of the same products gives the same sums,
// and the direct and im2col+GEMM schedules must agree code for code.

// runInt8Algo runs batch through an n-CU pool of the int8 build with every
// conv layer on algo and every PE at par.
func runInt8Algo(t *testing.T, ir *condorir.Network, ws *condorir.WeightSet, batch []*tensor.Tensor, algo ConvAlgo, par condorir.Parallelism, cus int) ([]*tensor.Tensor, *RunStats) {
	t.Helper()
	spec, err := BuildSpec(ir)
	if err != nil {
		t.Fatal(err)
	}
	spec.WordBits = 8
	setConvAlgo(spec, algo)
	for _, pe := range spec.PEs {
		pe.Par = par
	}
	acc, err := Instantiate(spec, ws)
	if err != nil {
		t.Fatal(err)
	}
	out, stats, err := NewCUPool(acc, cus).Run(batch)
	if err != nil {
		t.Fatalf("%s run: %v", algo, err)
	}
	return out, stats
}

func TestInt8DirectMatchesGEMM(t *testing.T) {
	nets := []struct {
		name  string
		load  func() (*condorir.Network, *condorir.WeightSet, error)
		batch []*tensor.Tensor
	}{
		{"tc1", models.TC1, models.USPSImages(3, 5)},
		{"lenet", models.LeNet, models.MNISTImages(3, 13)},
	}
	for _, n := range nets {
		ir, ws, err := n.load()
		if err != nil {
			t.Fatal(err)
		}
		withProcs(t, 4, func(t *testing.T) {
			for _, par := range []condorir.Parallelism{{In: 1, Out: 1}, {In: 2, Out: 4}} {
				for _, cus := range []int{1, 2} {
					t.Run(fmt.Sprintf("%s/par=%d,%d/cus=%d", n.name, par.In, par.Out, cus), func(t *testing.T) {
						dOut, dStats := runInt8Algo(t, ir, ws, n.batch, AlgoDirect, par, cus)
						gOut, gStats := runInt8Algo(t, ir, ws, n.batch, AlgoGEMM, par, cus)
						for i := range dOut {
							if d := tensor.MaxAbsDiff(dOut[i], gOut[i]); d != 0 {
								t.Errorf("image %d: direct and gemm outputs differ by %g", i, d)
							}
						}
						if dStats.InputScale != gStats.InputScale {
							t.Errorf("InputScale direct %g, gemm %g", dStats.InputScale, gStats.InputScale)
						}
						for i := range dStats.PEs {
							d, g := dStats.PEs[i], gStats.PEs[i]
							if d.MaxRequantScale != g.MaxRequantScale || d.MACs != g.MACs || d.WindowsRead != g.WindowsRead {
								t.Errorf("%s: direct {scale %g, MACs %d, windows %d}, gemm {scale %g, MACs %d, windows %d}",
									d.ID, d.MaxRequantScale, d.MACs, d.WindowsRead, g.MaxRequantScale, g.MACs, g.WindowsRead)
							}
						}
					})
				}
			}
		})
	}
}

func randomCodes(r *rand.Rand, n int) []int8 {
	s := make([]int8, n)
	for i := range s {
		s[i] = int8(r.Intn(255) - 127)
	}
	return s
}

// naiveConv is the reference window sum of one (output channel, input
// channel) pair over the unpadded input plane: taps that fall in the
// padding read zero.
func naiveConv(in, w []int8, h, wd, k, stride, pad, outH, outW int) []int32 {
	out := make([]int32, outH*outW)
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			var s int32
			for m := 0; m < k; m++ {
				for n := 0; n < k; n++ {
					iy, ix := oy*stride+m-pad, ox*stride+n-pad
					if iy >= 0 && iy < h && ix >= 0 && ix < wd {
						s += int32(w[m*k+n]) * int32(in[iy*wd+ix])
					}
				}
			}
			out[oy*outW+ox] = s
		}
	}
	return out
}

// The conv kernels of both schedules and the FC kernel against naive int32
// loops over random codes, on geometries that reach every kernel's fast
// path, generic path and remainder loop.
func TestInt8KernelsMatchNaive(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, k := range []int{1, 3, 5} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 2} {
				// 13 and 14 give output widths that are not a multiple of
				// any unroll (GEMM tiles of 4 positions) for every k/stride.
				for _, side := range []int{13, 14} {
					l := &LayerHW{Kind: nn.Conv, Kernel: k, Stride: stride, Pad: pad,
						InShape: nn.Shape{Channels: 1, Height: side, Width: side + 1}}
					outH := (side+2*pad-k)/stride + 1
					outW := (side+1+2*pad-k)/stride + 1
					l.OutShape = nn.Shape{Channels: 1, Height: outH, Width: outW}
					in := randomCodes(r, side*(side+1))
					w := randomCodes(r, k*k)
					want := naiveConv(in, w, side, side+1, k, stride, pad, outH, outW)
					// Both kernels accumulate, so start them from a non-zero
					// plane and subtract it back out.
					base := make([]int32, outH*outW)
					for i := range base {
						base[i] = int32(r.Intn(2001) - 1000)
					}
					padded := (&peExecInt8{}).padChannel(l, in)

					direct := append([]int32(nil), base...)
					convAccInt8(direct, padded, w, l)
					panel := make([]int8, k*k*outH*outW)
					buildIm2ColPanel8(panel, padded, l)
					gemm := append([]int32(nil), base...)
					gemmAccInt8(gemm, panel, w)
					for i := range want {
						if got := direct[i] - base[i]; got != want[i] {
							t.Fatalf("direct k=%d s=%d pad=%d %dx%d: pos %d = %d, want %d", k, stride, pad, outH, outW, i, got, want[i])
						}
						if got := gemm[i] - base[i]; got != want[i] {
							t.Fatalf("gemm k=%d s=%d pad=%d %dx%d: pos %d = %d, want %d", k, stride, pad, outH, outW, i, got, want[i])
						}
					}
				}
			}
		}
	}
	for _, o := range []int{1, 3, fcRowBlock, 2*fcRowBlock + 1, 10} {
		for _, v := range []int{1, 7, 50, 801} {
			in := randomCodes(r, v)
			w := randomCodes(r, o*v)
			got := make([]int32, o)
			fcInt8(got, w, in)
			for i := range got {
				var want int32
				for h := range in {
					want += int32(w[i*v+h]) * int32(in[h])
				}
				if got[i] != want {
					t.Fatalf("fc o=%d v=%d: neuron %d = %d, want %d", o, v, i, got[i], want)
				}
			}
		}
	}
}
