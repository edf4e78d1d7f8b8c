package main

import (
	"sort"
	"strings"
	"time"

	"condor/internal/obs"
)

// fabricProfile is the per-layer view of the fabric spans one traced phase
// recorded through the program's own tracer (Device.SetTracer or
// CUPool.SetTracer): per-PE wall time and modeled cycles, feeder and
// collector wall time, and the busy segments of every compute unit.
type fabricProfile struct {
	Images      int64
	PEWall      map[string]time.Duration // includes time blocked on FIFOs
	PECycles    map[string]int64
	FeedWall    time.Duration
	CollectWall time.Duration
	// Segments are the disjoint intervals during which a compute unit had
	// an image between its feeder and its collector: one per batch the
	// unit ran, since a unit finishes a batch before it accepts the next.
	Segments []time.Duration
}

// profileFabric reads a trace whose fabric goroutines have all been joined.
// Track names are "<pe>", "feeder" and "collector", prefixed "cuN/" on
// replicated fabrics; compute units are folded together.
func profileFabric(tr *obs.Trace) fabricProfile {
	p := fabricProfile{PEWall: map[string]time.Duration{}, PECycles: map[string]int64{}}
	for _, st := range tr.Summary() {
		_, elem := splitCU(st.Track)
		switch elem {
		case "feeder":
			p.Images += st.Count
			p.FeedWall += st.Wall
		case "collector":
			p.CollectWall += st.Wall
		default:
			p.PEWall[elem] += st.Wall
			p.PECycles[elem] += st.Cycles
		}
	}
	feeds := map[string][]obs.Span{}
	collects := map[string][]obs.Span{}
	for _, t := range tr.Tracks() {
		cu, elem := splitCU(t.Name())
		switch elem {
		case "feeder":
			feeds[cu] = append(feeds[cu], t.Spans()...)
		case "collector":
			collects[cu] = append(collects[cu], t.Spans()...)
		}
	}
	for cu, f := range feeds {
		p.Segments = append(p.Segments, busySegments(f, collects[cu])...)
	}
	return p
}

// add folds q, the profile of another fabric, into p.
func (p *fabricProfile) add(q fabricProfile) {
	if p.PEWall == nil {
		p.PEWall, p.PECycles = map[string]time.Duration{}, map[string]int64{}
	}
	p.Images += q.Images
	p.FeedWall += q.FeedWall
	p.CollectWall += q.CollectWall
	for pe, d := range q.PEWall {
		p.PEWall[pe] += d
	}
	for pe, c := range q.PECycles {
		p.PECycles[pe] += c
	}
	p.Segments = append(p.Segments, q.Segments...)
}

// splitCU separates a "cuN/" track prefix from the element name.
func splitCU(track string) (cu, elem string) {
	if i := strings.IndexByte(track, '/'); i >= 0 {
		return track[:i], track[i+1:]
	}
	return "", track
}

// busySegments merges each image's [feed start, collect end] interval on
// one compute unit into disjoint busy intervals. The feeder and collector
// handle images in order, so the k-th spans of each belong to one image.
func busySegments(feeds, collects []obs.Span) []time.Duration {
	n := min(len(feeds), len(collects))
	type iv struct{ lo, hi time.Time }
	ivs := make([]iv, n)
	for k := 0; k < n; k++ {
		ivs[k] = iv{feeds[k].Start, collects[k].End}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var out []time.Duration
	for i := 0; i < len(ivs); {
		lo, hi := ivs[i].lo, ivs[i].hi
		j := i + 1
		for ; j < len(ivs) && !ivs[j].lo.After(hi); j++ {
			if ivs[j].hi.After(hi) {
				hi = ivs[j].hi
			}
		}
		out = append(out, hi.Sub(lo))
		i = j
	}
	return out
}

// fill sets the per-image feeder, collector and per-PE metrics.
func (p fabricProfile) fill(vals map[string]float64) {
	per := func(d time.Duration) float64 {
		if p.Images == 0 {
			return 0
		}
		return float64(d) / float64(time.Microsecond) / float64(p.Images)
	}
	vals["dataflow.feed.wall_us_per_img"] = per(p.FeedWall)
	vals["dataflow.collect.wall_us_per_img"] = per(p.CollectWall)
	for _, pe := range fabricPEs {
		vals["dataflow."+pe+".wall_us_per_img"] = per(p.PEWall[pe])
		cycles := 0.0
		if p.Images > 0 {
			cycles = float64(p.PECycles[pe]) / float64(p.Images)
		}
		vals["dataflow."+pe+".cycles_per_img"] = cycles
	}
}

// fabricMs is the summed length of the busy segments in milliseconds.
func (p fabricProfile) fabricMs() float64 {
	var total time.Duration
	for _, s := range p.Segments {
		total += s
	}
	return ms(total)
}
