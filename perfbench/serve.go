package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"condor"
	"condor/internal/fleet"
	"condor/internal/models"
	"condor/internal/obs"
	"condor/internal/quant"
	"condor/internal/sdaccel"
	"condor/internal/serve"
)

// Serving configuration of the serve workload: the condor-serve defaults,
// with one node of two compute units behind one router.
const (
	localBoard   = "ku115"
	computeUnits = 2
	maxBatch     = 8
	batchWindow  = 2 * time.Millisecond
	queueDepth   = 64
	nodeTimeout  = 2 * time.Second
	// giveUp bounds a request from its due time.
	giveUp = 2 * time.Second
	// maxInflight caps the generator's concurrent requests.
	maxInflight = 4096
	// warmFor is the untimed traffic between set-up and measurement.
	warmFor = time.Second
)

// serveWorkload drives open-loop traffic through router → node → CU
// backends → LeNet fabric over loopback HTTP.
type serveWorkload struct {
	prec quant.Precision
	rate float64 // requests per second
	slo  time.Duration
	pool int // distinct input images
}

// stack is one deployed system under test: a build on a two-CU device, a
// serving node and a router, each HTTP surface on its own loopback listener.
type stack struct {
	dep     *condor.LocalDeployment
	mhz     float64 // the build's achieved kernel clock
	srv     *serve.Server
	router  *fleet.Router
	servers []*http.Server
	wg      sync.WaitGroup
	url     string       // the router's /infer
	conns   atomic.Int64 // connections accepted by the router listener

	errMu    sync.Mutex
	serveErr error
}

// setup builds, deploys and warms one stack, returning the time each of the
// three steps took. Warm-up ends at the first correct reply.
func (w serveWorkload) setup(p *probes, gen genConfig) (*stack, [3]time.Duration, error) {
	var times [3]time.Duration
	t0 := time.Now()
	ir, ws, err := models.LeNet()
	if err != nil {
		return nil, times, err
	}
	f := condor.New()
	build, err := f.BuildAccelerator(condor.Input{IR: ir, Weights: ws, Board: localBoard, Precision: w.prec, ComputeUnits: computeUnits})
	if err != nil {
		return nil, times, fmt.Errorf("build: %w", err)
	}
	if err := checkPEs(build.Spec); err != nil {
		return nil, times, err
	}
	t1 := time.Now()
	s := &stack{mhz: build.Meta.AchievedMHz}
	s.dep, err = f.DeployLocalCUs(build, computeUnits)
	if err != nil {
		return nil, times, fmt.Errorf("deploy: %w", err)
	}
	var pool []serve.Backend
	for _, cb := range s.dep.CUBackends() {
		pool = append(pool, p.backend(cb))
	}
	s.srv, err = serve.New(serve.Config{Backends: pool, MaxBatch: maxBatch, BatchWindow: batchWindow, QueueDepth: queueDepth})
	if err != nil {
		return nil, times, err
	}
	input := serve.InputShape{Channels: ir.Input.Channels, Height: ir.Input.Height, Width: ir.Input.Width}
	nodeURL, err := s.listen(p.handler(false, serve.NewHandler(s.srv, input, nodeTimeout)), false)
	if err != nil {
		return nil, times, s.abort(err)
	}
	s.router = fleet.NewRouter(fleet.RouterConfig{})
	s.router.Start()
	routerURL, err := s.listen(p.handler(true, s.router.Handler()), true)
	if err != nil {
		return nil, times, s.abort(err)
	}
	if _, err := s.router.Membership().Register(nodeURL); err != nil {
		return nil, times, s.abort(err)
	}
	s.url = routerURL + "/infer"
	t2 := time.Now()
	gen.URL = s.url
	for k := 0; ; k++ {
		o := fire(context.Background(), gen, 0, time.Now(), fmt.Sprintf("%s-warm-%d", gen.RIDPrefix, k))
		if o.answered() {
			break
		}
		if o.Wrong != nil {
			return nil, times, s.abort(fmt.Errorf("warm-up reply is wrong: %w", o.Wrong))
		}
		if time.Since(t2) > 10*time.Second {
			return nil, times, s.abort(fmt.Errorf("no correct reply within 10s (status %d, %v)", o.Status, o.Err))
		}
	}
	t3 := time.Now()
	times = [3]time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)}
	return s, times, nil
}

// listen serves h on a fresh loopback listener accepting HTTP/1.1 and
// HTTP/2 cleartext.
func (s *stack) listen(h http.Handler, countConns bool) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, Protocols: h2cProtocols(), ReadHeaderTimeout: 5 * time.Second}
	if countConns {
		hs.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				s.conns.Add(1)
			}
		}
	}
	s.servers = append(s.servers, hs)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			s.errMu.Lock()
			s.serveErr = err
			s.errMu.Unlock()
		}
	}()
	return "http://" + ln.Addr().String(), nil
}

// abort closes a partly built stack and returns err.
func (s *stack) abort(err error) error {
	if cerr := s.close(); cerr != nil {
		return fmt.Errorf("%w (closing: %v)", err, cerr)
	}
	return err
}

// close shuts the stack down front to back: the listeners, the router's
// probe loop, the serving pipeline, then the device's fabric goroutines.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	for i := len(s.servers) - 1; i >= 0; i-- {
		errs = append(errs, s.servers[i].Shutdown(ctx))
	}
	if s.router != nil {
		s.router.Close()
	}
	if s.srv != nil {
		errs = append(errs, s.srv.Shutdown(ctx))
	}
	if s.dep != nil {
		// Detaching the tracer retires each compute unit's resident
		// session, joining its fabric goroutines.
		s.dep.Device.SetTracer(nil)
	}
	s.wg.Wait()
	s.errMu.Lock()
	errs = append(errs, s.serveErr)
	s.errMu.Unlock()
	return errors.Join(errs...)
}

// phase is one measured open-loop pass.
type phase struct {
	outs    []outcome
	wall    time.Duration
	dev     sdaccel.DeviceCounters // deltas over the phase
	router  fleet.RouterStats      // end-of-phase snapshot
	routerB fleet.RouterStats      // start-of-phase snapshot
	node    serve.Stats
	nodeB   serve.Stats
}

func (s *stack) measure(gen genConfig, arrivals []arrival) phase {
	devB := s.dep.Device.Counters()
	ph := phase{routerB: s.router.Stats(), nodeB: s.srv.Stats()}
	t0 := time.Now()
	ph.outs = runOpenLoop(context.Background(), gen, arrivals)
	ph.wall = time.Since(t0)
	devA := s.dep.Device.Counters()
	ph.dev = sdaccel.DeviceCounters{Kernels: devA.Kernels - devB.Kernels, Images: devA.Images - devB.Images, KernelMs: devA.KernelMs - devB.KernelMs}
	ph.router, ph.node = s.router.Stats(), s.srv.Stats()
	return ph
}

// tally counts a phase's outcomes.
type tally struct {
	sent, ok, wrong, non200, sloMiss, transport int64
	firstWrong                                  error
}

func count(outs []outcome, slo time.Duration) tally {
	var t tally
	for i := range outs {
		o := &outs[i]
		t.sent++
		switch {
		case o.Err != nil:
			t.transport++
		case o.Status != http.StatusOK:
			t.non200++
		case o.Wrong != nil:
			t.wrong++
			if t.firstWrong == nil {
				t.firstWrong = fmt.Errorf("request %s (image %d): %w", o.RID, o.Img, o.Wrong)
			}
		case !o.ok(slo):
			t.sloMiss++
		default:
			t.ok++
		}
	}
	return t
}

func (t tally) String() string {
	return fmt.Sprintf(`{"sent":%d,"ok":%d,"failed":%d,"wrong":%d,"non200":%d,"slo_miss":%d,"transport":%d}`,
		t.sent, t.ok, t.sent-t.ok, t.wrong, t.non200, t.sloMiss, t.transport)
}

// latencies returns, in milliseconds, the latency of every request and the
// generator's lateness in sending each request it sent. A request that
// failed (no correct 200 reply) is charged its failure time from due, but
// at least the SLO: it misses every latency limit up to the SLO.
func latencies(outs []outcome, slo time.Duration) (lat, late []float64) {
	for i := range outs {
		d := outs[i].LatencyMs
		if !outs[i].answered() {
			d = max(d, ms(slo))
		}
		lat = append(lat, d)
		if outs[i].Sent {
			late = append(late, outs[i].LateMs)
		}
	}
	return lat, late
}

func (w serveWorkload) run(o runOptions) (*runResult, error) {
	imgs := models.MNISTImages(w.pool, o.seed)
	ir, ws, err := models.LeNet()
	if err != nil {
		return nil, err
	}
	oracleBuild, err := condor.New().BuildAccelerator(condor.Input{IR: ir, Weights: ws, Board: localBoard, Precision: w.prec, ComputeUnits: computeUnits})
	if err != nil {
		return nil, fmt.Errorf("oracle build: %w", err)
	}
	ora, err := newOracle(oracleBuild, imgs)
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, len(imgs))
	for i, img := range imgs {
		if bodies[i], err = json.Marshal(serve.InferRequest{Image: img.Data()}); err != nil {
			return nil, err
		}
	}
	client := h2cClient(giveUp + time.Second)
	gen := genConfig{
		Client: client, Bodies: bodies, SLO: w.slo, GiveUp: giveUp,
		MaxInflight: maxInflight, Check: ora.checkReply, RIDPrefix: fmt.Sprintf("s%d", o.seed),
	}

	p := newProbes()
	var st *stack
	var setups [][3]time.Duration
	var clk calibrated
	clk.begin()
	for k := 0; k < setupRepeats; k++ {
		if st != nil {
			// An open HTTP/2 connection holds the router's graceful
			// shutdown for its GOAWAY timeout.
			client.CloseIdleConnections()
			if err := st.close(); err != nil {
				return nil, fmt.Errorf("closing set-up %d: %w", k, err)
			}
		}
		// Each set-up starts from a collected heap, so neither its time nor
		// the peak resident set depends on the garbage of the one before.
		st = nil
		runtime.GC()
		var times [3]time.Duration
		if st, times, err = w.setup(p, gen); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", k, err)
		}
		setups = append(setups, scaleTimes(times, clk.mark()))
	}
	gen.URL = st.url
	if err := resetPeakRSS(); err != nil {
		return nil, st.abort(err)
	}
	res := &runResult{vals: map[string]float64{}, correct: true}

	warm := runOpenLoop(context.Background(), gen, schedule(o.seed+1, w.rate, warmFor, w.pool))
	res.note(count(warm, w.slo), "warm-up", false)

	arrivals := schedule(o.seed, w.rate, o.phase(), w.pool)
	runtime.GC()
	plain := st.measure(gen, arrivals)
	plainLat, _ := latencies(plain.outs, w.slo)
	d := summarize(plainLat)
	res.note(count(plain.outs, w.slo), "untraced", true)

	if !o.trace {
		t := count(plain.outs, w.slo)
		res.vals["goodput_rps"] = float64(t.ok) / o.phase().Seconds()
		res.vals["latency_p50_ms"] = d.P50
		res.vals["latency_p90_ms"] = d.P90
		printSamples("latency_p50_ms", d, 50)
		printSamples("latency_p90_ms", d, 90)
		printTail("latency", d)
	} else {
		tr := obs.NewTrace()
		p.on.Store(true)
		st.dep.Device.SetTracer(tr)
		runtime.GC()
		traced := st.measure(gen, arrivals)
		p.on.Store(false)
		st.dep.Device.SetTracer(nil) // joins the fabric goroutines before the trace is read
		res.note(count(traced.outs, w.slo), "traced", true)
		tracedLat, late := latencies(traced.outs, w.slo)
		res.vals["trace.overhead_frac"] = summarize(tracedLat).P50/d.P50 - 1
		servePerLayer(res.vals, p, traced, profileFabric(tr), late, st.mhz)
	}
	if n := st.conns.Load(); n > int64(runtime.NumCPU()) {
		return nil, fmt.Errorf("generator opened %d connections, more than nproc=%d", n, runtime.NumCPU())
	}
	client.CloseIdleConnections()
	if err := st.close(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	res.setupTimes(setups)
	return res, nil
}

// servePerLayer fills the traced phase's per-layer metrics of the serving
// path.
func servePerLayer(vals map[string]float64, p *probes, ph phase, fab fabricProfile, late []float64, mhz float64) {
	self := summarize(p.fleetSelf())
	vals["fleet.self_ms_p50"] = self.P50
	vals["fleet.self_ms_p99"] = self.Tail
	ra, fa := routerRefusals(ph.router)
	rb, fb := routerRefusals(ph.routerB)
	vals["fleet.retries"] = float64(ph.router.Retries - ph.routerB.Retries)
	vals["fleet.rejected"] = float64(ra - rb)
	vals["fleet.failed"] = float64(fa - fb)

	p.mu.Lock()
	node := summarize(p.nodeMs)
	infer := summarize(p.inferMs)
	var inferSum, weighted float64
	var imgs int
	for i, d := range p.inferMs {
		inferSum += d
		weighted += d * float64(p.inferImgs[i])
		imgs += p.inferImgs[i]
	}
	batches := len(p.inferMs)
	p.mu.Unlock()

	vals["serve.node_ms_p50"] = node.P50
	vals["serve.node_ms_p99"] = node.Tail
	vals["serve.wait_ms_mean"] = node.Mean - safeDiv(weighted, float64(imgs))
	var bImgs, bCount uint64
	for size, n := range ph.node.BatchSizeHist {
		d := n - ph.nodeB.BatchSizeHist[size]
		bImgs += d * uint64(size)
		bCount += d
	}
	vals["serve.batch_mean"] = safeDiv(float64(bImgs), float64(bCount))
	vals["serve.busy_frac"] = safeDiv(inferSum, ms(ph.wall)*computeUnits)
	vals["serve.rejected"] = float64(ph.node.Rejected - ph.nodeB.Rejected)
	vals["deploy.infer_ms_p50"] = infer.P50
	vals["deploy.infer_ms_p99"] = infer.Tail
	vals["deploy.overhead_ms_mean"] = safeDiv(inferSum-fab.fabricMs(), float64(batches))
	vals["sdaccel.kernels"] = float64(ph.dev.Kernels)
	vals["sdaccel.images"] = float64(ph.dev.Images)

	segs := make([]float64, len(fab.Segments))
	for i, s := range fab.Segments {
		segs[i] = ms(s)
	}
	vals["dataflow.runbatch_ms_p50"] = summarize(segs).P50
	fab.fill(vals)
	// The device reports modeled kernel milliseconds at the achieved clock.
	vals["dataflow.model_cycles_per_img"] = safeDiv(ph.dev.KernelMs*mhz*1000, float64(ph.dev.Images))
	lateDist := summarize(late)
	vals["gen.late_p99_ms"] = lateDist.Tail
	vals["gen.late_max_ms"] = lateDist.Max
}

// routerRefusals sums the router's saturation rejections and failed
// forwards over both priority classes.
func routerRefusals(s fleet.RouterStats) (rejected, failed uint64) {
	for _, c := range s.Classes {
		rejected += c.Rejected
		failed += c.Failed
	}
	return rejected, failed
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
