// Command perfbench is the repository's benchmark. It runs one workload
// against the orchestration stack built from the checkout it sits in, checks
// that the stack's outputs are correct, and prints every metric named in
// BENCHMARK.json with its unit; the last line of its output is one JSON
// object. With --trace 0 it prints the end-to-end metrics, measured without
// tracing; with --trace 1 it runs the workload twice, untraced and traced,
// and prints the per-layer metrics of the traced run.
//
// Run it through run.sh, which builds escaped and this program first:
//
//	bash perfbench/run.sh --workload hier-churn --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and the metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type benchDef struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

var workloads = map[string]*workload{
	"hier-churn":   hierChurn,
	"scenario-100": scenario100,
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: hier-churn | scenario-100")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Int("seconds", 20, "length of the measured part of the run")
		trace   = flag.Int("trace", 0, "1: run untraced then traced, and print the per-layer metrics")
		escaped = flag.String("escaped", "", "path of the escaped binary built from this checkout")
		work    = flag.String("work", "", "scratch directory inside the checkout")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *escaped == "" || *work == "" {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload (hier-churn, scenario-100), --seconds ≥ 1, --trace 0|1, --escaped and --work")
		return 2
	}
	bd, err := readDef("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e := &env{escaped: *escaped, work: *work}
	dur := time.Duration(*seconds) * time.Second

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%d trace=%d nproc=%d go=%s kernel=%s\n",
		w.name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.Version(), kernel())

	var (
		metrics map[string]float64
		defs    []metricDef
		last    *pass
	)
	if *trace == 0 {
		ps, err := measure(ctx, w, e, *seed, dur, false, 7)
		if err != nil {
			return fail(err)
		}
		metrics, defs, last = ps.e2e, bd.EndToEnd, ps
	} else {
		// Two passes of half the run each keep a traced run as long as an
		// untraced one.
		base, err := measure(ctx, w, e, *seed, dur/2, false, 1)
		if err != nil {
			return fail(err)
		}
		tr, err := measure(ctx, w, e, *seed, dur/2, true, 1)
		if err != nil {
			return fail(err)
		}
		if metrics, err = perLayer(w, base, tr); err != nil {
			return fail(err)
		}
		path := filepath.Join(*work, fmt.Sprintf("spans-%s-%d.jsonl", w.name, *seed))
		if err := (&spanLog{spans: tr.spans}).write(path); err != nil {
			return fail(err)
		}
		fmt.Fprintf(out, "# %d spans written to %s\n", len(tr.spans), path)
		defs, last = bd.PerLayer, tr
	}

	res := last.res
	fmt.Fprintf(out, "# operations: attempted=%d failed=%d", res.attempted, res.failed)
	reasons := make([]string, 0, len(res.failures))
	for r := range res.failures {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		fmt.Fprintf(out, " [%s ×%d]", r, res.failures[r])
	}
	fmt.Fprintln(out)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := map[string]value{}
	for _, d := range defs {
		v, ok := metrics[d.Name]
		note := ""
		if !ok {
			if *trace == 0 {
				return fail(fmt.Errorf("workload %s produced no %s", w.name, d.Name))
			}
			note = "  (layer not on this workload's path)"
		}
		vals[d.Name] = value{Value: v, Unit: d.Unit}
		out.WriteString(formatRow(d.Name, v, d.Unit+note))
	}
	if *trace == 0 {
		// Measured but not gated: every metric the run has beyond the list.
		var extra []string
		for name := range metrics {
			if !declared(defs, name) {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		for _, name := range extra {
			out.WriteString(formatRow(name, metrics[name], "ms  (not gated)"))
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{true, res.attempted, res.failed, vals})
	if err != nil {
		return fail(err)
	}
	out.Write(line)
	out.WriteString("\n")
	return 0
}

func fail(err error) int {
	if errors.Is(err, errViolation) {
		fmt.Fprintln(os.Stderr, "perfbench: run failed its correctness check; no result")
	} else {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	return 1
}

func readDef(path string) (*benchDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bd benchDef
	if err := json.Unmarshal(b, &bd); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bd, nil
}

func declared(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}

func formatRow(name string, v float64, unit string) string {
	return fmt.Sprintf("%-34s %14.4f %s\n", name, v, unit)
}

func kernel() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
