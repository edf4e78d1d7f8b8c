package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"sync"
	"testing"
	"time"

	"condor/internal/dataflow"
	"condor/internal/serve"
)

func TestScheduleIsDeterministic(t *testing.T) {
	a := schedule(7, 700, 2*time.Second, 64)
	b := schedule(7, 700, 2*time.Second, 64)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed produced two different schedules")
	}
	if c := schedule(8, 700, 2*time.Second, 64); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced the same schedule")
	}
	// 1400 expected arrivals; a Poisson count stays within ±5σ.
	if n := len(a); math.Abs(float64(n)-1400) > 5*math.Sqrt(1400) {
		t.Fatalf("%d arrivals in 2s at 700/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i].Due < a[i-1].Due || a[i].Img < 0 || a[i].Img >= 64 {
			t.Fatalf("arrival %d out of order or out of pool: %+v", i, a[i])
		}
	}
}

// h2cServer serves h on loopback with HTTP/2 cleartext, as the benchmark's
// own listeners do.
func h2cServer(t *testing.T, h http.Handler) string {
	t.Helper()
	srv := httptest.NewUnstartedServer(h)
	srv.Config.Protocols = h2cProtocols()
	srv.Start()
	t.Cleanup(srv.Close)
	return srv.URL
}

func TestStalledHandlerMakesLaterRequestsLate(t *testing.T) {
	// A server that handles one request at a time and stalls on the first:
	// requests due during the stall wait for it, and measured from their
	// due time they carry that wait.
	const stall = 200 * time.Millisecond
	var mu sync.Mutex
	first := true
	url := h2cServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if first {
			first = false
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusOK)
	}))
	arrivals := []arrival{{0, 0}, {20 * time.Millisecond, 0}, {40 * time.Millisecond, 0}, {60 * time.Millisecond, 0}}
	cfg := genConfig{
		URL: url, Client: h2cClient(5 * time.Second), Bodies: [][]byte{[]byte("{}")},
		SLO: time.Second, GiveUp: 5 * time.Second, MaxInflight: 16,
		Check: func(int, []byte) error { return nil }, RIDPrefix: "t",
	}
	outs := runOpenLoop(context.Background(), cfg, arrivals)
	for i, o := range outs {
		if o.Err != nil || o.Status != http.StatusOK {
			t.Fatalf("request %d: status %d, err %v", i, o.Status, o.Err)
		}
		if o.LateMs > 15 {
			t.Errorf("request %d sent %.1fms after its due time: the generator waited on the stall", i, o.LateMs)
		}
		// Request i is released once the stall ends, stall - due(i) after
		// it was due.
		if want := ms(stall - arrivals[i].Due); o.LatencyMs < want-5 {
			t.Errorf("request %d latency %.1fms from due time, want ≥ %.1fms", i, o.LatencyMs, want)
		}
	}
}

func TestGeneratorHoldsAtMostNprocConnections(t *testing.T) {
	var mu sync.Mutex
	conns := 0
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(20 * time.Millisecond)
	}))
	srv.Config.Protocols = h2cProtocols()
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			mu.Lock()
			conns++
			mu.Unlock()
		}
	}
	srv.Start()
	defer srv.Close()
	cfg := genConfig{
		URL: srv.URL, Client: h2cClient(5 * time.Second), Bodies: [][]byte{[]byte("{}")},
		SLO: time.Second, GiveUp: 5 * time.Second, MaxInflight: 256,
		Check: func(int, []byte) error { return nil }, RIDPrefix: "c",
	}
	outs := runOpenLoop(context.Background(), cfg, schedule(1, 2000, 200*time.Millisecond, 1))
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("request %d: %v", i, o.Err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if conns < 1 || conns > runtime.NumCPU() {
		t.Fatalf("generator opened %d connections, want between 1 and nproc=%d", conns, runtime.NumCPU())
	}
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 99}, {7000, 99}, {500, 98}, {100, 90}, {10, 100}, {1, 100}} {
		if got := tailPct(c.n); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("tailPct(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	for _, n := range []int{11, 73, 500, 1000, 1500, 7000} {
		if b := beyond(n, tailPct(n)); b < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the reported tail", n, b)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000..1, unsorted input
	}
	d := summarize(xs)
	if d.N != 1000 || d.P50 != 500 || d.P90 != 900 || d.Tail != 990 || d.TailPct != 99 || d.Max != 1000 {
		t.Fatalf("summarize(1..1000) = %+v", d)
	}

}

func TestFailedRequestsMissTheSLO(t *testing.T) {
	// 1000 requests: 985 answered in 10 ms, 15 failed. Failures are
	// charged their failure time from due, at least the SLO, so they
	// reach the p99 of the whole run.
	const slo = 100 * time.Millisecond
	outs := make([]outcome, 1000)
	for i := range outs {
		outs[i] = outcome{Sent: true, Status: http.StatusOK, LatencyMs: 10}
	}
	for i := 0; i < 5; i++ {
		outs[i*200].Status = http.StatusGatewayTimeout // a fast 504
		outs[i*200].LatencyMs = 1
		outs[i*200+1].Err, outs[i*200+1].LatencyMs = errOverflow, 0
		outs[i*200+2].Wrong = errors.New("wrong output")
	}
	lat, late := latencies(outs, slo)
	if len(lat) != 1000 || len(late) != 1000 {
		t.Fatalf("%d latencies and %d lateness samples of 1000 requests", len(lat), len(late))
	}
	d := summarize(lat)
	if d.P50 != 10 || d.Tail != 100 {
		t.Fatalf("p50 %g, p99 %g: want 10 and the 100 ms SLO", d.P50, d.Tail)
	}
}

func TestReferenceClock(t *testing.T) {
	if got := refScale(calRefMs/2, calRefMs*3/2); got != 1 {
		t.Fatalf("refScale around the reference = %g, want 1", got)
	}
	if got := refScale(2*calRefMs, 2*calRefMs); got != 0.5 {
		t.Fatalf("refScale on a host at half speed = %g, want 0.5", got)
	}
	var c calibrated
	c.begin()
	if f := c.mark(); len(c.cals) != 2 || c.cals[0] <= 0 || f != refScale(c.cals[0], c.cals[1]) {
		t.Fatalf("calibrations %v, factor %g", c.cals, f)
	}
}

func TestBatchRateCountsTheWholeRun(t *testing.T) {
	// 100 calls of 100 ms, ten of them stalled at 1 s, and one failed call
	// whose images do not count: 99·64 images in 19 s.
	ph := batchPhase{images: 99 * 64}
	for i := 0; i < 100; i++ {
		d := 100.0
		if i >= 30 && i < 40 {
			d = 1000
		}
		ph.callMs = append(ph.callMs, d)
	}
	if got, want := ph.rate(), 99*64/19.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("rate = %g img/s, want %g", got, want)
	}
}

func TestPeakRSSRestartsAfterReset(t *testing.T) {
	big := make([]byte, 32<<20)
	for i := range big {
		big[i] = 1
	}
	before, err := peakRSSMB()
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(big)
	big = nil
	if err := resetPeakRSS(); err != nil {
		t.Fatal(err)
	}
	after, err := peakRSSMB()
	if err != nil {
		t.Fatal(err)
	}
	if after <= 0 || after > before-16 {
		t.Fatalf("peak %.1f MiB after reset, %.1f MiB before with 32 MiB freed", after, before)
	}
}

func TestCheckPEs(t *testing.T) {
	spec := &dataflow.Spec{}
	for _, id := range fabricPEs {
		spec.PEs = append(spec.PEs, &dataflow.PE{ID: id})
	}
	if err := checkPEs(spec); err != nil {
		t.Fatal(err)
	}
	spec.PEs = spec.PEs[:5]
	if err := checkPEs(spec); err == nil {
		t.Fatal("a build with five PEs passed")
	}
	spec.PEs = append(spec.PEs, &dataflow.PE{ID: "pe5"}, &dataflow.PE{ID: "pe6"})
	if err := checkPEs(spec); err == nil {
		t.Fatal("a build with seven PEs passed")
	}
}

func TestCheckerRejectsOneULP(t *testing.T) {
	want := []float32{-2.3025851, 0.125, -7.5e-3, 3}
	// The reply travels as JSON: encoding and decoding float32 must
	// restore the exact bits.
	body, err := json.Marshal(serve.InferResponse{Output: want})
	if err != nil {
		t.Fatal(err)
	}
	o := &oracle{want: [][]float32{want}}
	if err := o.checkReply(0, body); err != nil {
		t.Fatalf("exact reply rejected: %v", err)
	}
	for i := range want {
		got := append([]float32(nil), want...)
		got[i] = math.Nextafter32(got[i], float32(math.Inf(1)))
		if err := checkOutput(got, want, 0); err == nil {
			t.Errorf("float32 output perturbed by one ULP at %d accepted", i)
		}
	}
	// int8 replies are held to the quantization bound instead.
	got := []float32{-2.30, 0.13, -7.5e-3, 3.01}
	if err := checkOutput(got, want, 0.02); err != nil {
		t.Errorf("reply within bound rejected: %v", err)
	}
	if err := checkOutput(got, want, 0.001); err == nil {
		t.Error("reply outside bound accepted")
	}
	if err := checkOutput([]float32{float32(math.NaN()), 0.125, -7.5e-3, 3}, want, 1); err == nil {
		t.Error("NaN accepted")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNames(t *testing.T) {
	all := append(append(append([]metricDef(nil), endToEnd...), perLayer()...), pathLayers...)
	seen := map[string]bool{}
	for _, d := range all {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, nameRE)
		}
		if seen[d.Name] {
			t.Errorf("metric %q defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	for name := range workloads {
		if !nameRE.MatchString(name) {
			t.Errorf("workload name %q does not match %s", name, nameRE)
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and the metrics a
// run emits in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the catalogue %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s [%s], catalogue %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer())
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not run by the benchmark", w.Name)
		}
	}
}
