// Command perfbench is the repository's host-time benchmark. It generates
// every input from a workload seed, drives the chgraph packages through
// their public functions, checks every output, and prints one JSON result
// line naming each metric with its unit. See README.md for the workloads,
// the metrics and how to run it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"
)

// endToEnd and perLayer name the unit of every metric the benchmark
// reports. End-to-end metrics (printed with -trace 0) are timed with
// tracing off; per-layer metrics (printed with -trace 1) come from a traced
// run. A per-layer metric of a layer a workload bypasses reads 0.
var endToEnd = map[string]string{
	"setup_s":       "s",
	"run_p50_ms":    "ms",
	"run_tail_ms":   "ms",
	"cpu_ms_per_op": "ms",
	"rss_peak_mb":   "MiB",
	"edges_per_s":   "1/s",
	"sim_cycles":    "cycles",
	"dram_accesses": "lines",
	"ok_ratio":      "ratio",
}

var perLayer = map[string]string{
	"gen.ms":                    "ms",
	"hypergraph.build_ms":       "ms",
	"hypergraph.bytes_per_edge": "bytes",
	"hypergraph.codec_bytes":    "bytes",
	"oag.build_ms":              "ms",
	"oag.update_ms":             "ms",
	"oag.edges":                 "count",
	"oag.storage_bytes":         "bytes",
	"core.gen_ns_per_node":      "ns",
	"core.chains_generated":     "count",
	"core.replay_ratio":         "ratio",
	"engine.compile_ms":         "ms",
	"engine.apply_ms":           "ms",
	"engine.commit_ms":          "ms",
	"engine.stitch_ms":          "ms",
	"engine.phases":             "count",
	"sim.replay_ms":             "ms",
	"sim.ns_per_access":         "ns",
	"sim.l1_hit_ratio":          "ratio",
	"sim.l2_hit_ratio":          "ratio",
	"sim.l3_hit_ratio":          "ratio",
	"sim.mem_stall_frac":        "ratio",
	"sim.fifo_stall_frac":       "ratio",
	"shard.partition_ms":        "ms",
	"shard.replication_factor":  "ratio",
	"shard.skew_ms":             "ms",
	"dist.prepare_ms":           "ms",
	"dist.step_ms":              "ms",
	"dist.commit_ms":            "ms",
	"dist.handler_ms":           "ms",
	"dist.rpcs":                 "count",
	"dist.wire_bytes":           "bytes",
	"dist.retries":              "count",
	"serve.run_handler_p50_ms":  "ms",
	"serve.run_handler_p99_ms":  "ms",
	"serve.run_p99_ms":          "ms",
	"serve.mutate_handler_ms":   "ms",
	"serve.mutate_p50_ms":       "ms",
	"serve.mutate_p90_ms":       "ms",
	"serve.upload_ms":           "ms",
	"serve.cache_hit_ratio":     "ratio",
	"serve.cache_builds":        "count",
	"serve.coalesced":           "count",
	"serve.rejected":            "count",
	"obs.trace_overhead":        "ratio",
	"loadgen.lag_p99_ms":        "ms",
	"loadgen.conn_wait_ms":      "ms",
	"host.calib_ms":             "ms",
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// params are the command-line settings every workload receives.
type params struct {
	seed    int64
	seconds float64
	trace   bool
}

// report is what a workload hands back: operation counts, output-check
// failures, and metric values by name.
type report struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
}

func newReport() *report { return &report{values: map[string]float64{}} }

// fail records a failed output check.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, params) (*report, error){
	"dense-replay": runDense,
	"sparse-dist":  runSparse,
	"served-mix":   runServed,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: dense-replay, sparse-dist or served-mix")
	seed := fs.Int64("seed", 1, "workload seed; every input is generated from it")
	seconds := fs.Float64("seconds", 28, "length of the measured window in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs traced and prints per-layer metrics; 0 prints end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload dense-replay|sparse-dist|served-mix, -seconds > 0 and -trace 0|1")
		return 2
	}
	p := params{seed: *seed, seconds: *seconds, trace: *traceFlag == 1}
	rep, err := drive(context.Background(), p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	units := endToEnd
	if p.trace {
		units = perLayer
	}
	res := result{Correct: len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	for k, unit := range units {
		v, ok := rep.values[k]
		if !ok && !p.trace {
			fmt.Fprintf(os.Stderr, "perfbench: %s: end-to-end metric %s not measured\n", *name, k)
			return 1
		}
		if math.IsInf(v, 1) {
			v = math.MaxFloat64 // a failed request's latency: over any limit
		}
		res.Metrics[k] = metric{Value: v, Unit: unit}
	}
	for i, msg := range rep.problems {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more check failures\n", len(rep.problems)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", msg)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

const (
	// setupReps is how many times each workload sets up; setup_s is the
	// median.
	setupReps = 5
	// Pass-based workloads measure at least minPasses passes and report
	// the median pass and the 66th percentile, the highest with ten
	// samples beyond it at minPasses.
	minPasses = 30
	passTailQ = 0.66
)

// passMetrics fills the end-to-end metrics of a pass-based workload, host
// times brought to the reference speed by scale.
func passMetrics(rep *report, walls []float64, cpu time.Duration, edgesPerPass uint64, setup []float64, scale float64) error {
	p50, n, ok := percentile(walls, 0.5)
	tail, _, okTail := percentile(walls, passTailQ)
	if !ok || !okTail {
		return fmt.Errorf("only %d passes measured, need %d", n, minPasses)
	}
	rep.values["setup_s"] = median(setup) * scale
	rep.values["run_p50_ms"] = p50 * scale
	rep.values["run_tail_ms"] = tail * scale
	rep.values["cpu_ms_per_op"] = ms(cpu) / float64(len(walls)) * scale
	rep.values["edges_per_s"] = float64(edgesPerPass) / (p50 * scale / 1000)
	rep.values["ok_ratio"] = 1 - float64(rep.failed)/float64(rep.attempted)
	return nil
}

// window reports whether a measured loop that started at start should run
// another iteration: until the window has elapsed and at least minOps
// operations are done, so every reported percentile has enough samples.
func window(start time.Time, seconds float64, done, minOps int) bool {
	return done < minOps || time.Since(start).Seconds() < seconds
}
