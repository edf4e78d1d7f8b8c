package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"condor"
	"condor/internal/dataflow"
	"condor/internal/serve"
	"condor/internal/tensor"
)

// oracle holds the expected output of every image in a workload's input
// pool, computed at set-up by the word-at-a-time RunWords path.
type oracle struct {
	want [][]float32
	// tol is the admissible element-wise deviation: 0 demands bit identity
	// (float32 fabrics), a positive value is the int8 run's
	// RunStats.QuantErrorBound().
	tol float64
}

// newOracle runs the pool through RunWords on fresh instantiations of the
// build, split across two goroutines. For an int8 build it also runs the
// pool through the packed fabric once, to take the quantization error bound
// its recorded scales imply.
func newOracle(b *condor.Build, imgs []*tensor.Tensor) (*oracle, error) {
	const parts = 2
	outs := make([][]*tensor.Tensor, parts)
	errs := make([]error, parts)
	per := (len(imgs) + parts - 1) / parts
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		lo, hi := p*per, min((p+1)*per, len(imgs))
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(p, lo, hi int) {
			defer wg.Done()
			acc, err := dataflow.Instantiate(b.Spec, b.Weights)
			if err != nil {
				errs[p] = err
				return
			}
			outs[p], _, errs[p] = acc.RunWords(imgs[lo:hi])
		}(p, lo, hi)
	}
	wg.Wait()
	o := &oracle{}
	for p := range outs {
		if errs[p] != nil {
			return nil, fmt.Errorf("oracle: %w", errs[p])
		}
		for _, t := range outs[p] {
			o.want = append(o.want, t.Data())
		}
	}
	if b.Spec.WordBits == 8 {
		acc, err := dataflow.Instantiate(b.Spec, b.Weights)
		if err != nil {
			return nil, err
		}
		_, st, err := acc.Run(imgs)
		if err != nil {
			return nil, fmt.Errorf("oracle: int8 bound run: %w", err)
		}
		if o.tol = st.QuantErrorBound(); o.tol <= 0 {
			return nil, fmt.Errorf("oracle: int8 quantization error bound %g is not positive", o.tol)
		}
	}
	return o, nil
}

// check compares the output for pool image img against the oracle.
func (o *oracle) check(img int, got []float32) error {
	return checkOutput(got, o.want[img], o.tol)
}

// checkReply decodes a 200 /infer body and checks its output. JSON carries
// float32 values in their shortest round-tripping form, so decoding into
// []float32 restores the fabric's exact bits.
func (o *oracle) checkReply(img int, body []byte) error {
	var r serve.InferResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decode reply: %w", err)
	}
	return o.check(img, r.Output)
}

// checkOutput accepts got when it matches want bit for bit (tol == 0) or
// element-wise within tol (tol > 0). NaN never matches.
func checkOutput(got, want []float32, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("output has %d values, want %d", len(got), len(want))
	}
	for i := range got {
		if tol == 0 {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				return fmt.Errorf("output[%d] = %g, want %g bit-identical", i, got[i], want[i])
			}
			continue
		}
		d := math.Abs(float64(got[i]) - float64(want[i]))
		if !(d <= tol) {
			return fmt.Errorf("output[%d] = %g deviates from %g by %g, bound %g", i, got[i], want[i], d, tol)
		}
	}
	return nil
}
