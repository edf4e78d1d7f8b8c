package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"condor/internal/fleet"
	"condor/internal/obs"
)

// arrival is one scheduled request: when it is due, relative to the start
// of the run, and which pool image it carries.
type arrival struct {
	Due time.Duration
	Img int
}

// schedule draws an open-loop Poisson arrival schedule at rate requests per
// second over window, with each request's pool image, from seed alone. The
// same seed always yields the same schedule.
func schedule(seed int64, rate float64, window time.Duration, pool int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= window {
			return out
		}
		out = append(out, arrival{Due: due, Img: rng.Intn(pool)})
	}
}

// genConfig describes one open-loop run against an /infer endpoint.
type genConfig struct {
	URL    string
	Client *http.Client
	Bodies [][]byte // pre-encoded request body per pool image
	SLO    time.Duration
	// GiveUp bounds each request from its due time.
	GiveUp time.Duration
	// MaxInflight bounds concurrent requests; an arrival beyond it fails
	// without being sent.
	MaxInflight int
	// Check validates the body of a 200 reply for a pool image.
	Check func(img int, body []byte) error
	// RIDPrefix names the run in each request's X-Condor-Request-ID.
	RIDPrefix string
}

// outcome is one request's record. Times are measured from the request's
// due time, not from when it was sent, so a stall that delays later
// requests is charged to them.
type outcome struct {
	Img       int
	RID       string
	Sent      bool
	LateMs    float64 // send time minus due time: the generator's own lag
	LatencyMs float64 // reply or transport-error time minus due time
	Status    int
	Err       error // transport error or generator overflow
	Wrong     error // output check failure on a 200 reply
}

var errOverflow = errors.New("generator: too many requests in flight")

// ok reports a correct 200 reply within the SLO.
func (o *outcome) ok(slo time.Duration) bool {
	return o.Err == nil && o.Status == http.StatusOK && o.Wrong == nil &&
		o.LatencyMs <= float64(slo)/float64(time.Millisecond)
}

// answered reports a correct 200 reply, whatever its latency.
func (o *outcome) answered() bool {
	return o.Err == nil && o.Status == http.StatusOK && o.Wrong == nil
}

// runOpenLoop sends every arrival at its absolute due time, measured from a
// common start, and waits for all replies. Sends never wait for replies.
func runOpenLoop(ctx context.Context, cfg genConfig, arrivals []arrival) []outcome {
	outs := make([]outcome, len(arrivals))
	sem := make(chan struct{}, cfg.MaxInflight)
	var wg sync.WaitGroup
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	start := time.Now()
	for i, a := range arrivals {
		due := start.Add(a.Due)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				for j := i; j < len(arrivals); j++ {
					outs[j] = outcome{Img: arrivals[j].Img, Err: ctx.Err()}
				}
				wg.Wait()
				return outs
			}
		}
		select {
		case sem <- struct{}{}:
		default:
			outs[i] = outcome{Img: a.Img, Err: errOverflow}
			continue
		}
		wg.Add(1)
		go func(i int, img int, due time.Time) {
			defer wg.Done()
			outs[i] = fire(ctx, cfg, img, due, fmt.Sprintf("%s-%d", cfg.RIDPrefix, i))
			<-sem
		}(i, a.Img, due)
	}
	wg.Wait()
	return outs
}

// fire sends one request and classifies its reply.
func fire(ctx context.Context, cfg genConfig, img int, due time.Time, rid string) outcome {
	o := outcome{Img: img, RID: rid}
	ctx, cancel := context.WithDeadline(ctx, due.Add(cfg.GiveUp))
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cfg.URL, bytes.NewReader(cfg.Bodies[img]))
	if err != nil {
		o.Err = err
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, rid)
	req.Header.Set(fleet.DeadlineHeader, strconv.FormatInt(cfg.SLO.Milliseconds(), 10))
	o.Sent, o.LateMs = true, ms(time.Since(due))
	resp, err := cfg.Client.Do(req)
	if err != nil {
		o.Err, o.LatencyMs = err, ms(time.Since(due))
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.LatencyMs = ms(time.Since(due))
	o.Status = resp.StatusCode
	switch {
	case err != nil:
		o.Err = err
	case o.Status == http.StatusOK:
		o.Wrong = cfg.Check(img, body)
	}
	return o
}

// h2cClient multiplexes in-flight requests over HTTP/2 cleartext (prior
// knowledge) connections, at most nproc of them however many requests are
// in flight.
func h2cClient(timeout time.Duration) *http.Client {
	var p http.Protocols
	p.SetUnencryptedHTTP2(true)
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			Protocols:       &p,
			MaxConnsPerHost: runtime.NumCPU(),
		},
	}
}

// h2cProtocols lets a server accept both HTTP/1.1 and HTTP/2 cleartext.
func h2cProtocols() *http.Protocols {
	var p http.Protocols
	p.SetHTTP1(true)
	p.SetUnencryptedHTTP2(true)
	return &p
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
