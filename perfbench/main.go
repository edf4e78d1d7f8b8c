// Command perfbench is Condor's benchmark: one workload per run, measured
// end to end with tracing off, or layer by layer with the program's tracers
// and the benchmark's own probes on.
//
//	bash perfbench/run.sh --workload serve-lenet --seed 1 --seconds 50 --trace 0
//
// The system under test runs in this process and serves real loopback
// HTTP; every output is checked against the RunWords oracle. The last line
// of standard output is the JSON result. See NOTES.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"condor/internal/quant"
)

// setupRepeats is how many times a run builds, deploys and warms the system;
// setup_s is the median.
const setupRepeats = 15

// workloads are the benchmark's workloads by name, as BENCHMARK.json lists
// them.
var workloads = map[string]interface {
	run(runOptions) (*runResult, error)
}{
	"serve-lenet": serveWorkload{prec: quant.Int8, rate: 60, slo: 100 * time.Millisecond, pool: 32},
	"batch-lenet": batchWorkload{precs: []quant.Precision{quant.Float32, quant.Int8}, pool: 32, batch: 64},
}

// runOptions are a run's command-line settings.
type runOptions struct {
	seed   int64
	window time.Duration
	trace  bool
}

// phase is how long one measured phase lasts: the whole window untraced,
// or half of it for each of the untraced and traced phases of a traced run.
func (o runOptions) phase() time.Duration {
	if o.trace {
		return o.window / 2
	}
	return o.window
}

func main() { os.Exit(mainErr()) }

func mainErr() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), " | "))
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Int("seconds", 10, "measured seconds per phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced phase")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds ≥ 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	st, err := json.Marshal(hostStamp(*name, *seed, *seconds, *trace))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("stamp %s\n", st)

	steal0, total0, stealOK := cpuSteal()
	res, err := w.run(runOptions{seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// Time the hypervisor gave to other guests during the run: runs with
	// very different shares measured a different host.
	if steal1, total1, ok := cpuSteal(); ok && stealOK && total1 > total0 {
		fmt.Printf("host steal_frac=%.4f\n", float64(steal1-steal0)/float64(total1-total0))
	}
	if res.vals["peak_rss_mb"], err = peakRSSMB(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, d := range pathLayers {
		if v, ok := res.vals[d.Name]; ok {
			fmt.Printf("layer  %-36s %14.6f %s\n", d.Name, v, d.Unit)
		}
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer()
	}
	for _, d := range defs {
		fmt.Printf("metric %-36s %14.6f %s\n", d.Name, res.vals[d.Name], d.Unit)
	}
	if err := emit(os.Stdout, defs, res.vals, res.correct, res.attempted, res.failed); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// runResult accumulates a run's metric values and operation counts.
type runResult struct {
	vals      map[string]float64
	correct   bool
	attempted int64
	failed    int64
}

// note prints a serve phase's counts. A wrong output in any phase makes the
// run incorrect; measured phases count toward attempted and failed.
func (r *runResult) note(t tally, label string, measured bool) {
	fmt.Printf("counts %s %s\n", label, t)
	if t.wrong > 0 {
		r.correct = false
		fmt.Printf("wrong output: %v\n", t.firstWrong)
	}
	if measured {
		r.attempted += t.sent
		r.failed += t.sent - t.ok
	}
}

// noteBatch is note for a batch phase; an operation is one RunBatch call.
func (r *runResult) noteBatch(ph batchPhase, label string, measured bool, batch int) {
	fmt.Printf("counts %s {\"calls\":%d,\"images\":%d,\"failed\":%d,\"batch\":%d}\n", label, ph.calls, ph.images, ph.failed, batch)
	if ph.wrong != nil {
		r.correct = false
		fmt.Printf("wrong output: %v\n", ph.wrong)
	}
	if measured {
		r.attempted += ph.calls
		r.failed += ph.failed
	}
}

// printSamples states how a timing metric was taken: the number of
// samples, the percentile and how many samples lie beyond it.
func printSamples(name string, d dist, pct float64) {
	fmt.Printf("samples %s n=%d percentile=%.2f beyond=%d\n", name, d.N, pct, beyond(d.N, pct))
}

// scaleTimes puts set-up step times on the reference clock (calib.go).
func scaleTimes(t [3]time.Duration, scale float64) [3]time.Duration {
	for i := range t {
		t[i] = time.Duration(float64(t[i]) * scale)
	}
	return t
}

// printTail prints the highest percentile the sample-count rule allows.
// It is not gated: on a shared host it follows the hypervisor's stalls
// (NOTES.md, Design choices).
func printTail(name string, d dist) {
	fmt.Printf("tail %s_ms=%.4f percentile=%.2f n=%d beyond=%d\n", name, d.Tail, d.TailPct, d.N, beyond(d.N, d.TailPct))
}

// setupTimes records the median of each set-up step and of their total.
func (r *runResult) setupTimes(setups [][3]time.Duration) {
	var build, deploy, warm, total []float64
	for _, s := range setups {
		build = append(build, s[0].Seconds())
		deploy = append(deploy, s[1].Seconds())
		warm = append(warm, s[2].Seconds())
		total = append(total, (s[0] + s[1] + s[2]).Seconds())
	}
	r.vals["setup_s"] = summarize(total).P50
	r.vals["setup.build_s"] = summarize(build).P50
	r.vals["setup.deploy_s"] = summarize(deploy).P50
	r.vals["setup.warm_s"] = summarize(warm).P50
}
