package main

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"condor/internal/obs"
	"condor/internal/serve"
	"condor/internal/tensor"
)

// probes time calls into the program's public interfaces from outside: an
// http.Handler middleware around the router's and the node's handlers, and
// a serve.Backend wrapper around each compute-unit backend. They record
// only while on is set; off, each costs one atomic load.
type probes struct {
	on atomic.Bool

	mu        sync.Mutex
	routerDur map[string]time.Duration // request id → router handler time
	nodeDur   map[string]time.Duration // request id → node handler time (summed over retries)
	nodeMs    []float64
	inferMs   []float64 // one per backend batch
	inferImgs []int
}

func newProbes() *probes {
	return &probes{routerDur: map[string]time.Duration{}, nodeDur: map[string]time.Duration{}}
}

// handler times each /infer request through next, keyed by its
// X-Condor-Request-ID, on the router side or the node side.
func (p *probes) handler(router bool, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !p.on.Load() || r.URL.Path != "/infer" {
			next.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(t0)
		rid := r.Header.Get(obs.RequestIDHeader)
		p.mu.Lock()
		defer p.mu.Unlock()
		if router {
			p.routerDur[rid] = d
			return
		}
		p.nodeDur[rid] += d
		p.nodeMs = append(p.nodeMs, ms(d))
	})
}

// timedBackend wraps one serving backend.
type timedBackend struct {
	inner serve.Backend
	p     *probes
}

func (p *probes) backend(b serve.Backend) serve.Backend { return &timedBackend{inner: b, p: p} }

func (b *timedBackend) ID() string { return b.inner.ID() }

func (b *timedBackend) Infer(batch []*tensor.Tensor) ([]*tensor.Tensor, float64, error) {
	if !b.p.on.Load() {
		return b.inner.Infer(batch)
	}
	t0 := time.Now()
	outs, kernelMs, err := b.inner.Infer(batch)
	d := time.Since(t0)
	b.p.mu.Lock()
	b.p.inferMs = append(b.p.inferMs, ms(d))
	b.p.inferImgs = append(b.p.inferImgs, len(batch))
	b.p.mu.Unlock()
	return outs, kernelMs, err
}

// fleetSelf is the router's own time per request: its handler span minus
// the node handler span of the same request id.
func (p *probes) fleetSelf() []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []float64
	for rid, rd := range p.routerDur {
		if nd, ok := p.nodeDur[rid]; ok {
			out = append(out, ms(rd-nd))
		}
	}
	return out
}
