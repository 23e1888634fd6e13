// Command perfbench is the padc repository benchmark: one command that
// runs a named workload against the simulator's public API, checks the
// simulated outputs, and prints every metric by name with its unit.
//
//	bash perfbench/run.sh --workload mix8-tiered-observed --seed 1 --seconds 45 --trace 0
//
// --trace 0 is the timed run and prints the end-to-end metrics; --trace 1
// is the separate traced run (CPU profile, layer probes, simulated
// counters) and prints the per-layer metrics. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. See README.md for the workloads and the metric tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool // shrink every job list (the benchmark's own tests)
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run prints.
type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	record    map[string]any // seed, host fingerprint, digest, sample counts
}

func (r *report) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	var scale string
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are drawn from")
	fs.Float64Var(&o.seconds, "seconds", 40, "seconds of timed passes")
	fs.IntVar(&traceFlag, "trace", 0, "0: timed run (end-to-end metrics); 1: traced run (per-layer metrics)")
	fs.StringVar(&scale, "scale", "full", "full, or tiny for a seconds-long smoke run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	o.tiny = scale == "tiny"
	if (traceFlag != 0 && traceFlag != 1) || (scale != "full" && scale != "tiny") || o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --trace takes 0 or 1, --scale full or tiny, --seconds a positive number")
		return 2
	}
	rep, err := runWorkload(o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := writeReport(stdout, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// writeReport prints one "name value unit" line per metric, the run
// record, and the result object as the last line.
func writeReport(w io.Writer, rep *report) error {
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.metrics[n]
		fmt.Fprintf(w, "%-34s %16.6g %s\n", n, m.Value, m.Unit)
	}
	rec, err := json.Marshal(rep.record)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "record %s\n", rec)
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}
