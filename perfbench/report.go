package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"

	"condor/internal/dataflow"
)

// metricDef is one reported metric: its name and unit.
type metricDef struct{ Name, Unit string }

// endToEnd lists the metrics a user of the system sees, in the result of
// every untraced run on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"goodput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
}

// fabricPEs are the processing elements LeNet maps to; per-PE metrics are
// reported under these ids. checkPEs holds every build to them.
var fabricPEs = []string{"pe0", "pe1", "pe2", "pe3", "pe4", "pe5"}

// checkPEs fails a build whose processing elements are not fabricPEs, so a
// design that regroups PEs stops the run instead of reporting zeros for
// missing PEs and dropping new ones.
func checkPEs(spec *dataflow.Spec) error {
	var ids []string
	for _, pe := range spec.PEs {
		ids = append(ids, pe.ID)
	}
	if !slices.Equal(ids, fabricPEs) {
		return fmt.Errorf("the build has PEs %v, the benchmark reports %v", ids, fabricPEs)
	}
	return nil
}

// perLayer lists the per-layer metrics every workload measures, in the
// result of every traced run.
func perLayer() []metricDef {
	defs := []metricDef{
		{"dataflow.runbatch_ms_p50", "ms"},
		{"dataflow.model_cycles_per_img", "cycles"},
		{"dataflow.feed.wall_us_per_img", "us"},
		{"dataflow.collect.wall_us_per_img", "us"},
	}
	for _, pe := range fabricPEs {
		defs = append(defs,
			metricDef{"dataflow." + pe + ".wall_us_per_img", "us"},
			metricDef{"dataflow." + pe + ".cycles_per_img", "cycles"})
	}
	return append(defs,
		metricDef{"setup.build_s", "s"},
		metricDef{"setup.deploy_s", "s"},
		metricDef{"setup.warm_s", "s"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
}

// pathLayers are per-layer metrics of layers only some workloads pass
// through. A traced run prints those it measured beside the result; the
// result itself holds only perLayer, which every workload reports.
var pathLayers = []metricDef{
	{"fleet.self_ms_p50", "ms"},
	{"fleet.self_ms_p99", "ms"},
	{"fleet.retries", "count"},
	{"fleet.rejected", "count"},
	{"fleet.failed", "count"},
	{"serve.node_ms_p50", "ms"},
	{"serve.node_ms_p99", "ms"},
	{"serve.wait_ms_mean", "ms"},
	{"serve.batch_mean", "img"},
	{"serve.busy_frac", "ratio"},
	{"serve.rejected", "count"},
	{"deploy.infer_ms_p50", "ms"},
	{"deploy.infer_ms_p99", "ms"},
	{"deploy.overhead_ms_mean", "ms"},
	{"sdaccel.kernels", "count"},
	{"sdaccel.images", "count"},
	{"gen.late_p99_ms", "ms"},
	{"gen.late_max_ms", "ms"},
	{"fifo.bursts_per_img", "count"},
	{"dataflow.img_per_s_f32", "1/s"},
	{"dataflow.img_per_s_int8", "1/s"},
}

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit writes the result as one JSON line holding exactly the metrics of
// defs, each of which must have been measured.
func emit(w io.Writer, defs []metricDef, vals map[string]float64, correct bool, attempted, failed int64) error {
	r := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// stamp identifies the host and run a result came from. Results whose
// stamps differ in anything but the seed are not comparable.
type stamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Seed       int64  `json:"seed"`
	Workload   string `json:"workload"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
}

func hostStamp(workload string, seed int64, seconds, trace int) stamp {
	return stamp{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Seed:       seed,
		Workload:   workload,
		Seconds:    seconds,
		Trace:      trace,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown (" + runtime.GOARCH + ")"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown (" + runtime.GOARCH + ")"
}

// resetPeakRSS returns the heap's free pages to the OS and restarts the
// kernel's record of the process's peak resident set, so that peakRSSMB
// covers only what runs after it. Runs call it at the end of set-up: the
// peak of the repeated builds is a transient whose height follows when the
// collector happens to run, and it spread 26–35 MB between runs of the same
// code.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak resident set: %w", err)
	}
	return nil
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MiB since
// the last resetPeakRSS.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// cpuSteal reads the host-wide CPU time counters of /proc/stat: the time
// the hypervisor ran other guests on this machine's CPUs, and the total.
func cpuSteal() (steal, total uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, v := range fields[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, true
}
