// perfbench is the end-to-end and per-layer benchmark of palirria: HTTP
// jobs against a palirria-serve child process, structured jobs and
// batches against the same server, fork/join trees on the in-process
// work-stealing runtime, and the paper's simulator suite.
//
// One run measures one workload:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// It prints every metric by name with its unit, the attempted and failed
// operation counts, the host fingerprint, and, as its last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics; --trace 1 reports the per-layer metrics and the
// tracing overhead against an untraced run of the same length.
//
//	perfbench --steady <N> [--seconds s] [--trace 0|1]
//
// runs every workload N times with seeds 1..N and prints the median and
// quartiles of every metric with the host fingerprint (see README.md).
// run.sh builds this program and the server from the checkout first.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// e2eMetrics are reported by every untraced run of every workload; the
// README gives each one's meaning per workload. They are CPU time, memory,
// set-up time and simulated cycles: on a small shared host a neighbour's
// burst stretches wall-clock figures 1.5-2x for a minute at a time, while
// CPU time moves by a fifth at most (see README.md).
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_job", "ms"},
	{"rss_mb", "MB"},
	{"cpu_ms_per_pass", "ms"},
	{"sim_exec_mcycles", "Mcycles"},
	{"sim_worker_mcycles", "Mcycles"},
}

// wallMetrics are the job latencies, throughput and pass times. Too
// unsteady on a small shared host to bound (see README.md), they are kept
// with the per-layer metrics, where nothing gates on them: a traced run
// takes them from its untraced half, and an untraced run prints them
// above its result line.
var wallMetrics = []metricDef{
	{"job_p50_ms", "ms"},
	{"job_p99_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"pass_ms", "ms"},
	{"worker_ms_per_pass", "ms"},
}

// layerMetrics are reported by every traced run. A layer the workload
// does not pass through reads 0.
var layerMetrics = slices.Concat(wallMetrics, []metricDef{
	{"palirria-serve.http_us_p50", "us"},
	{"serve.queue_us_p50", "us"},
	{"serve.queue_us_p99", "us"},
	{"serve.run_us_p50", "us"},
	{"serve.batch_ms_p50", "ms"},
	{"serve.dag_ms_p50", "ms"},
	{"serve.rejected", "count"},
	{"serve.events_per_job", "count"},
	{"wsrt.idle_cpu_ms_per_s", "ms/s"},
	{"wsrt.useful_ms_per_job", "ms"},
	{"wsrt.search_ms_per_job", "ms"},
	{"wsrt.idle_ms_per_job", "ms"},
	{"wsrt.parks_per_job", "count"},
	{"wsrt.wakeups_per_job", "count"},
	{"wsrt.steals_per_job", "count"},
	{"wsrt.failed_probes_per_job", "count"},
	{"wsrt.steal_hit_ratio", "ratio"},
	{"wsrt.shard_steals_per_job", "count"},
	{"wsrt.start_us", "us"},
	{"wsrt.shutdown_us", "us"},
	{"core.allotment_mean", "workers"},
	{"core.desire_mean", "workers"},
	{"core.quanta_per_s", "1/s"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.palirria.wasted_mcycles", "Mcycles"},
	{"sim.palirria.steals", "count"},
	{"sim.palirria.failed_probes", "count"},
	{"sim.asteal.exec_mcycles", "Mcycles"},
	{"sim.asteal.worker_mcycles", "Mcycles"},
	{"sim.asteal.wasted_mcycles", "Mcycles"},
	{"workload.build_ms", "ms"},
	{"trace.overhead_pct", "%"},
})

// env is what one run is given.
type env struct {
	seed     uint64
	dur      time.Duration
	traced   bool
	serveBin string
	outDir   string
	nproc    int
}

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted, failed int64
	e2e, layer        map[string]float64
	bad               []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// check records a failed output check.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.bad = append(o.bad, fmt.Sprintf(format, args...))
	}
}

// overhead records the tracing overhead: how much worse the traced
// segment's primary figure is than the untraced one's, in percent.
func (o *outcome) overhead(untraced, traced float64) {
	if untraced > 0 {
		o.layer["trace.overhead_pct"] = 100 * (traced - untraced) / untraced
	}
}

var workloads = []struct {
	name string
	run  func(*env) (*outcome, error)
}{
	{"http-jobs", runHTTPJobs},
	{"http-structured", runHTTPStructured},
	{"forkjoin", runForkJoin},
	{"sim-paper", runSimPaper},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		wl       = flag.String("workload", "", "workload to run: http-jobs, http-structured, forkjoin or sim-paper")
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 25, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
		serveBin = flag.String("serve-bin", ".bench_build/palirria-serve", "prebuilt palirria-serve binary")
		outDir   = flag.String("out-dir", ".bench_build", "directory for spans and steadiness records")
		steady   = flag.Int("steady", 0, "run every workload this many times (seeds 1..N) and print medians and quartiles")
	)
	flag.Parse()
	if *steady > 0 {
		if err := runSteady(*steady, *seconds, *trace, *serveBin, *outDir, os.Args[0]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := runOne(*wl, &env{
		seed: *seed, dur: time.Duration(*seconds) * time.Second, traced: *trace == 1,
		serveBin: *serveBin, outDir: *outDir, nproc: runtime.NumCPU(),
	}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runOne(name string, e *env) error {
	if e.dur <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	var run func(*env) (*outcome, error)
	for _, w := range workloads {
		if w.name == name {
			run = w.run
		}
	}
	if run == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	o, err := run(e)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	defs, vals := e2eMetrics, o.e2e
	if e.traced {
		defs, vals = layerMetrics, o.layer
	}
	res := result{
		Correct:   len(o.bad) == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !e.traced {
			return fmt.Errorf("%s: end-to-end metric %s was not measured", name, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("%-32s %14.4f %s\n", d.name, v, d.unit)
	}
	if !e.traced {
		for _, d := range wallMetrics {
			fmt.Printf("%-32s %14.4f %s (not bounded)\n", d.name, o.layer[d.name], d.unit)
		}
	}
	fmt.Printf("workload %s seed %d: attempted %d failed %d\n", name, e.seed, o.attempted, o.failed)
	for _, b := range o.bad {
		fmt.Fprintln(os.Stderr, "check failed:", b)
	}
	fp, _ := json.Marshal(fingerprint())
	fmt.Printf("host %s\n", fp)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// fingerprint identifies the host a figure was measured on.
func fingerprint() map[string]any {
	fp := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp["kernel"] = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	return fp
}

// runSteady runs each workload n times, seeds 1..n, each in a fresh
// process of this program, and prints the median, quartiles and relative
// spread ((q3-q1)/median) of every metric, plus the failed share.
func runSteady(n int, seconds, trace int, serveBin, outDir, self string) error {
	fp, _ := json.Marshal(fingerprint())
	fmt.Printf("host %s\n", fp)
	defs := e2eMetrics
	if trace == 1 {
		defs = layerMetrics
	}
	record := map[string][]result{}
	for _, w := range workloads {
		name := w.name
		var runs []result
		for s := 1; s <= n; s++ {
			cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(s),
				"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace),
				"--serve-bin", serveBin, "--out-dir", outDir)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, s, err)
			}
			r, err := lastResult(out)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, s, err)
			}
			if !r.Correct {
				fmt.Printf("%s seed %d: output checks FAILED\n", name, s)
			}
			runs = append(runs, r)
		}
		record[name] = runs
		fmt.Printf("\n%s: %d runs of %d s\n", name, n, seconds)
		fmt.Printf("  %-32s %12s %12s %12s %8s\n", "metric", "q1", "median", "q3", "spread")
		for _, d := range defs {
			var xs []float64
			for _, r := range runs {
				xs = append(xs, r.Metrics[d.name].Value)
			}
			q1, q2, q3 := quartiles(xs)
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			fmt.Printf("  %-32s %12.4f %12.4f %12.4f %7.1f%% %s\n", d.name, q1, q2, q3, 100*spread, d.unit)
		}
		var att, fail int64
		for _, r := range runs {
			att += r.Attempted
			fail += r.Failed
		}
		fmt.Printf("  attempted %d failed %d\n", att, fail)
	}
	b, err := json.MarshalIndent(map[string]any{"host": fingerprint(), "runs": record}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, fmt.Sprintf("steady-trace%d.json", trace)), b, 0o644)
}

// lastResult parses the final JSON line of a run's standard output.
func lastResult(out []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if l := bytes.TrimSpace(sc.Bytes()); len(l) > 0 {
			last = append(last[:0], l...)
		}
	}
	var r result
	if err := json.Unmarshal(last, &r); err != nil {
		return r, fmt.Errorf("no result line: %w", err)
	}
	return r, nil
}
