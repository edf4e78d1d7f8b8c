package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"condor/internal/tensor"
)

// fakeBackend echoes inputs after an optional fixed delay and records every
// batch size it executed. It asserts the scheduler's contract that a single
// backend is never invoked concurrently with itself.
type fakeBackend struct {
	id       string
	delay    time.Duration
	kernelMs float64
	gate     chan struct{} // when non-nil, Infer blocks until it is closed
	err      error

	inflight atomic.Int32
	overlap  atomic.Bool

	mu      sync.Mutex
	batches []int
}

func (f *fakeBackend) ID() string { return f.id }

func (f *fakeBackend) Infer(batch []*tensor.Tensor) ([]*tensor.Tensor, float64, error) {
	if f.inflight.Add(1) > 1 {
		f.overlap.Store(true)
	}
	defer f.inflight.Add(-1)
	if f.gate != nil {
		<-f.gate
	}
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	f.mu.Lock()
	f.batches = append(f.batches, len(batch))
	f.mu.Unlock()
	if f.err != nil {
		return nil, 0, f.err
	}
	outs := make([]*tensor.Tensor, len(batch))
	for i, img := range batch {
		t := tensor.New(img.Shape()...)
		copy(t.Data(), img.Data())
		outs[i] = t
	}
	ms := f.kernelMs
	if ms == 0 {
		ms = 1
	}
	return outs, ms, nil
}

func (f *fakeBackend) batchSizes() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int(nil), f.batches...)
}

func img(v float32) *tensor.Tensor {
	t := tensor.New(1, 2, 2)
	for i := range t.Data() {
		t.Data()[i] = v
	}
	return t
}

func mustShutdown(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// Flush-on-size: with an effectively infinite window, batches form only
// when MaxBatch requests have coalesced.
func TestBatcherFlushOnSize(t *testing.T) {
	fb := &fakeBackend{id: "b0"}
	s, err := New(Config{Backends: []Backend{fb}, MaxBatch: 4, BatchWindow: time.Hour, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, _, err := s.Submit(context.Background(), img(float32(i)))
			if err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			if out.Data()[0] != float32(i) {
				t.Errorf("request %d got echo %v", i, out.Data()[0])
			}
		}(i)
	}
	wg.Wait()
	mustShutdown(t, s)
	for _, size := range fb.batchSizes() {
		if size != 4 {
			t.Fatalf("batch sizes %v: want every flush at MaxBatch=4", fb.batchSizes())
		}
	}
	if got := len(fb.batchSizes()); got != 2 {
		t.Fatalf("got %d batches, want 2", got)
	}
}

// Flush-on-deadline: a partial batch is dispatched once the window elapses
// instead of waiting for MaxBatch.
func TestBatcherFlushOnDeadline(t *testing.T) {
	fb := &fakeBackend{id: "b0"}
	s, err := New(Config{Backends: []Backend{fb}, MaxBatch: 16, BatchWindow: 10 * time.Millisecond, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := s.Submit(context.Background(), img(1)); err != nil {
				t.Errorf("Submit: %v", err)
			}
		}()
	}
	wg.Wait()
	mustShutdown(t, s)
	sizes := fb.batchSizes()
	total := 0
	for _, n := range sizes {
		if n >= 16 {
			t.Fatalf("batch of %d dispatched; window flush should fire first", n)
		}
		total += n
	}
	if total != 3 {
		t.Fatalf("served %d images across %v, want 3", total, sizes)
	}
}

// Backpressure: once the bounded queue and the pipeline are saturated,
// Submit rejects immediately with ErrQueueFull, and every admitted request
// still completes once the backend unblocks.
func TestBackpressureRejection(t *testing.T) {
	gate := make(chan struct{})
	fb := &fakeBackend{id: "b0", gate: gate}
	s, err := New(Config{Backends: []Backend{fb}, MaxBatch: 1, BatchWindow: time.Millisecond, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	const clients = 12
	var completed, rejected atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := s.Submit(context.Background(), img(1))
			switch {
			case err == nil:
				completed.Add(1)
			case errors.Is(err, ErrQueueFull):
				rejected.Add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	// Let the pipeline saturate against the gated backend, then release.
	for deadline := time.Now().Add(5 * time.Second); s.Stats().Rejected == 0; {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	mustShutdown(t, s)
	if rejected.Load() == 0 {
		t.Fatal("no request saw backpressure despite a saturated queue")
	}
	if completed.Load()+rejected.Load() != clients {
		t.Fatalf("completed %d + rejected %d != %d clients", completed.Load(), rejected.Load(), clients)
	}
	st := s.Stats()
	if st.Admitted != st.Completed {
		t.Fatalf("admitted %d != completed %d: requests were dropped", st.Admitted, st.Completed)
	}
}

// Drain-on-shutdown: requests in the queue and in flight when Shutdown is
// called all receive replies; nothing is silently dropped.
func TestDrainOnShutdown(t *testing.T) {
	fb := &fakeBackend{id: "b0", delay: 2 * time.Millisecond}
	s, err := New(Config{Backends: []Backend{fb}, MaxBatch: 4, BatchWindow: time.Millisecond, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	const clients = 24
	outcomes := make(chan error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := s.Submit(context.Background(), img(1))
			outcomes <- err
		}()
	}
	time.Sleep(time.Millisecond) // let some requests enter the pipeline
	mustShutdown(t, s)
	wg.Wait()
	close(outcomes)
	var completed, closed int
	for err := range outcomes {
		switch {
		case err == nil:
			completed++
		case errors.Is(err, ErrClosed):
			closed++
		default:
			t.Fatalf("request dropped with unexpected error: %v", err)
		}
	}
	if completed+closed != clients {
		t.Fatalf("completed %d + closed %d != %d", completed, closed, clients)
	}
	st := s.Stats()
	if st.Admitted != st.Completed {
		t.Fatalf("admitted %d but completed %d: drain dropped in-flight requests", st.Admitted, st.Completed)
	}
	// Post-shutdown submits fail explicitly.
	if _, _, err := s.Submit(context.Background(), img(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after shutdown: %v, want ErrClosed", err)
	}
}

// A request whose deadline passes while it waits behind a busy backend gets
// an explicit context error, not a hang.
func TestDeadlineWhileQueued(t *testing.T) {
	gate := make(chan struct{})
	fb := &fakeBackend{id: "b0", gate: gate}
	s, err := New(Config{Backends: []Backend{fb}, MaxBatch: 1, BatchWindow: time.Millisecond, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // occupies the only backend
		defer wg.Done()
		s.Submit(context.Background(), img(1)) //nolint:errcheck
	}()
	time.Sleep(2 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, _, err = s.Submit(ctx, img(2))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Submit with expired deadline: %v, want DeadlineExceeded", err)
	}
	close(gate)
	wg.Wait()
	mustShutdown(t, s)
}

// The scheduler picks the least-loaded free backend and never overlaps
// calls on one backend.
func TestSchedulerLeastLoaded(t *testing.T) {
	sc := newScheduler([]Backend{&fakeBackend{id: "a"}, &fakeBackend{id: "b"}})
	first := sc.acquire()
	sc.release(first, 100, 1, false) // "a" now carries 100ms of load
	second := sc.acquire()
	if second.backend.ID() == first.backend.ID() {
		t.Fatalf("scheduler picked the loaded backend %q over an idle one", first.backend.ID())
	}
	sc.release(second, 1, 1, false)
	// With "a" at 100ms and "b" at 1ms, the next pick is "b" again.
	third := sc.acquire()
	if third.backend.ID() != second.backend.ID() {
		t.Fatalf("scheduler picked %q, want least-loaded %q", third.backend.ID(), second.backend.ID())
	}
	sc.release(third, 1, 1, false)
}

// Backend errors propagate to every request of the failed batch with the
// backend identified.
func TestBackendErrorPropagates(t *testing.T) {
	fb := &fakeBackend{id: "flaky", err: errors.New("kernel fault")}
	s, err := New(Config{Backends: []Backend{fb}, MaxBatch: 2, BatchWindow: time.Millisecond, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = s.Submit(context.Background(), img(1))
	if err == nil || !errors.Is(err, fb.err) {
		t.Fatalf("Submit: %v, want wrapped %v", err, fb.err)
	}
	mustShutdown(t, s)
	if st := s.Stats(); st.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", st.Failed)
	}
}

// Concurrent-client race test: many clients over a mixed-speed pool under
// -race. Every request must settle with an explicit outcome, the batch
// histogram must account for every dispatched image, and no backend may
// observe overlapping calls.
func TestConcurrentClientsRace(t *testing.T) {
	pool := []Backend{
		&fakeBackend{id: "fast0", kernelMs: 0.2},
		&fakeBackend{id: "fast1", kernelMs: 0.3},
		&fakeBackend{id: "slow0", kernelMs: 2, delay: time.Millisecond},
	}
	s, err := New(Config{Backends: pool, MaxBatch: 8, BatchWindow: 2 * time.Millisecond, QueueDepth: 256})
	if err != nil {
		t.Fatal(err)
	}
	const clients, perClient = 64, 4
	var completed, rejected, expired atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				ctx := context.Background()
				if c%8 == 0 { // a slice of clients runs with tight deadlines
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, 3*time.Millisecond)
					defer cancel()
				}
				_, _, err := s.Submit(ctx, img(float32(c)))
				switch {
				case err == nil:
					completed.Add(1)
				case errors.Is(err, ErrQueueFull):
					rejected.Add(1)
				case errors.Is(err, context.DeadlineExceeded):
					expired.Add(1)
				default:
					t.Errorf("client %d: unexpected error %v", c, err)
				}
			}
		}(c)
	}
	wg.Wait()
	mustShutdown(t, s)
	if got := completed.Load() + rejected.Load() + expired.Load(); got != clients*perClient {
		t.Fatalf("settled %d of %d requests", got, clients*perClient)
	}
	for _, b := range pool {
		if b.(*fakeBackend).overlap.Load() {
			t.Fatalf("backend %s saw overlapping Infer calls", b.ID())
		}
	}
	st := s.Stats()
	var histImages uint64
	for size, count := range st.BatchSizeHist {
		histImages += uint64(size) * count
	}
	if histImages < st.Completed {
		t.Fatalf("batch histogram covers %d images, %d completed", histImages, st.Completed)
	}
	if st.Completed == 0 {
		t.Fatal("no request completed")
	}
}

// Admission race stress: with an instant backend, MaxBatch 1 and half the
// requests already cancelled (the batcher settles those on receipt), a
// request can be finished before its submitter returns from the queue send.
// Admission must be counted before the send, or finish drives the admission
// WaitGroup negative and the node panics. Every request must end admitted
// or rejected, and every admitted one settled.
func TestAdmissionRaceStress(t *testing.T) {
	s, err := New(Config{
		Backends: []Backend{&fakeBackend{id: "instant0"}, &fakeBackend{id: "instant1"}},
		MaxBatch: 1, QueueDepth: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	const clients, perClient = 16, 400
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				ctx := context.Background()
				if r%2 == 0 {
					ctx = cancelled
				}
				_, err := s.SubmitDetailed(ctx, img(float32(c)))
				if err != nil && !errors.Is(err, ErrQueueFull) && !errors.Is(err, context.Canceled) {
					t.Errorf("client %d: unexpected error %v", c, err)
				}
			}
		}(c)
	}
	wg.Wait()
	mustShutdown(t, s)
	st := s.Stats()
	if settled := st.Completed + st.Expired + st.Failed; st.Admitted != settled {
		t.Fatalf("admitted %d, settled %d (completed %d, expired %d, failed %d)",
			st.Admitted, settled, st.Completed, st.Expired, st.Failed)
	}
	if st.Admitted+st.Rejected != clients*perClient {
		t.Fatalf("admitted %d + rejected %d, want %d requests", st.Admitted, st.Rejected, clients*perClient)
	}
	if st.Completed == 0 {
		t.Fatal("no request completed")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with no backends should fail")
	}
}

func TestQuantiles(t *testing.T) {
	var samples []float64
	for i := 1; i <= 100; i++ {
		samples = append(samples, float64(i))
	}
	q := quantiles(samples)
	if q[0] < 49 || q[0] > 51 || q[1] < 94 || q[1] > 96 || q[2] < 98 || q[2] > 100 {
		t.Fatalf("quantiles of 1..100 = %v", q)
	}
	if z := quantiles(nil); z != [3]float64{} {
		t.Fatalf("quantiles(nil) = %v", z)
	}
}

func TestStatsUtilization(t *testing.T) {
	fb := &fakeBackend{id: "b0", kernelMs: 5}
	s, err := New(Config{Backends: []Backend{fb}, MaxBatch: 2, BatchWindow: time.Millisecond, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, _, err := s.Submit(context.Background(), img(1)); err != nil {
			t.Fatal(err)
		}
	}
	mustShutdown(t, s)
	st := s.Stats()
	if len(st.Backends) != 1 || st.Backends[0].Images != 4 {
		t.Fatalf("backend stats %+v, want 4 images on b0", st.Backends)
	}
	if st.Backends[0].BusyMs != 5*float64(st.Backends[0].Batches) {
		t.Fatalf("busy ms %v for %d batches of kernelMs=5", st.Backends[0].BusyMs, st.Backends[0].Batches)
	}
	if st.KernelMsP50 != 5 {
		t.Fatalf("kernel p50 %v, want 5", st.KernelMsP50)
	}
}

func ExampleServer() {
	fb := &fakeBackend{id: "board0"}
	s, _ := New(Config{Backends: []Backend{fb}, MaxBatch: 4, BatchWindow: time.Millisecond})
	out, _, err := s.Submit(context.Background(), img(7))
	fmt.Println(err == nil, out.Data()[0])
	s.Shutdown(context.Background()) //nolint:errcheck
	// Output: true 7
}
