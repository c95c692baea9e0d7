// Command e2ebench is ffsage's end-to-end benchmark. It measures the
// program from outside: on inputs made from a seed it runs the
// program's own entry points (repro, tournament, agesrv over HTTP, the
// standalone tools), one process and one worker at a time, and checks
// their outputs against computations it makes in-process from the
// layers' public functions. The last line of its standard output is one
// JSON object: whether the outputs were correct, the operations
// attempted and failed, and the metrics.
//
//	e2ebench -bin DIR -work DIR -workload NAME -seed N -seconds S -trace 0|1
//	e2ebench -bin DIR -work DIR -workload NAME -seed N -seconds S -steady 10
//
// With -trace 0 it prints the end-to-end metrics. With -trace 1 it times
// each layer through its public functions instead and prints the
// per-layer metrics, whose self times add up to the traced wall time.
// With -steady N it runs itself N times, on seeds -seed, -seed+1, ..., and prints
// each end-to-end metric's median, quartiles and spread, and how each
// timing tracks the host's CPU steal. run.sh builds the program and
// this command and runs it; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"ffsage/internal/runner"
)

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func() benchmark{
	"paper-repro":      func() benchmark { return &reproBench{} },
	"tournament-quick": func() benchmark { return &tournamentBench{} },
	"agesrv-jobs":      func() benchmark { return &agesrvBench{} },
	"tools-pipeline":   func() benchmark { return &toolsBench{} },
}

func main() {
	var (
		bin      = flag.String("bin", "", "directory holding the built ffsage commands")
		work     = flag.String("work", "", "scratch directory for the runs")
		name     = flag.String("workload", "", "workload: paper-repro, tournament-quick, agesrv-jobs or tools-pipeline")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 15, "how long to measure")
		traceArg = flag.Int("trace", 0, "1 = time each layer instead of the end-to-end run")
		steady   = flag.Int("steady", 0, "run the workload this many times on successive seeds and summarize")
	)
	flag.Parse()
	if err := run(*bin, *work, *name, *seed, *seconds, *traceArg, *steady); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(bin, work, name string, seed int64, seconds float64, traceArg, steady int) error {
	mk, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if bin == "" || work == "" {
		return fmt.Errorf("-bin and -work are required")
	}
	if traceArg != 0 && traceArg != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", traceArg)
	}
	if steady > 0 {
		return steadiness(bin, work, name, seed, seconds, steady)
	}
	for _, dir := range []*string{&bin, &work} {
		abs, err := filepath.Abs(*dir)
		if err != nil {
			return err
		}
		*dir = abs
	}
	b := mk()
	defer b.close()
	e := &env{bin: bin, work: filepath.Join(work, name), seed: seed, inputs: b.shape().inputs}
	if err := os.RemoveAll(e.work); err != nil {
		return err
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return err
	}
	// One worker, as the program's own calls run with.
	runner.SetWorkers(1)

	var res *result
	var nz noise
	var wall map[string]metric
	var err error
	if traceArg == 1 {
		res, nz, err = traced(b, e)
	} else {
		res, nz, wall, err = measure(b, e, seconds)
	}
	if err != nil {
		return err
	}
	if err := os.RemoveAll(e.work); err != nil {
		return err
	}
	nzLine, err := json.Marshal(nz)
	if err != nil {
		return err
	}
	fmt.Printf("noise: %s\n", nzLine)
	if wall != nil {
		wallLine, err := json.Marshal(wall)
		if err != nil {
			return err
		}
		fmt.Printf("wall: %s\n", wallLine)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: outputs are not correct", name)
	}
	return nil
}
