package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ffsage/internal/stats"
)

// env is what a workload needs to run the program: where the built
// commands are, a scratch directory of its own, the seed, and how many
// inputs the rounds cycle through.
type env struct {
	bin    string
	work   string
	seed   int64
	inputs int
}

// input is which of the run's inputs round r works on.
func (e *env) input(r int) int { return r % e.inputs }

// roundSeed is the seed round r's input is made from: distinct for
// every input of every run seed below 2^53/1000.
func (e *env) roundSeed(r int) int64 { return e.seed*1000 + int64(e.input(r)) }

// usage is what one program process cost.
type usage struct {
	wall   time.Duration
	cpu    time.Duration
	maxRSS int64 // KiB
	nivcsw int64 // involuntary context switches
}

// command runs one of the program's commands to completion and returns
// its standard output and resource usage. A non-zero exit is an error
// carrying the tail of its standard error.
func (e *env) command(name string, args ...string) ([]byte, usage, error) {
	cmd := exec.Command(filepath.Join(e.bin, name), args...)
	cmd.Dir = e.work
	var out, errOut bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errOut
	start := time.Now()
	err := cmd.Run()
	u := usage{wall: time.Since(start)}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			u.cpu = time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
			u.maxRSS = ru.Maxrss
			u.nivcsw = ru.Nivcsw
		}
	}
	if err != nil {
		msg := errOut.String()
		if len(msg) > 400 {
			msg = msg[len(msg)-400:]
		}
		return out.Bytes(), u, fmt.Errorf("%s %s: %v: %s", name, strings.Join(args, " "), err, strings.TrimSpace(msg))
	}
	return out.Bytes(), u, nil
}

// round is one timed repetition of a workload's program calls.
type round struct {
	wall      time.Duration
	cpu       time.Duration
	maxRSS    int64
	nivcsw    int64
	latencies []float64 // seconds, one per operation (process or job)
}

func (r *round) addProcess(u usage) {
	r.cpu += u.cpu
	r.nivcsw += u.nivcsw
	r.maxRSS = max(r.maxRSS, u.maxRSS)
	r.latencies = append(r.latencies, u.wall.Seconds())
}

// verdict is the outcome of checking one operation's outputs. known
// marks a failure whose outputs are exactly those of a documented
// fault in the program; any other failure makes the run incorrect.
type verdict struct {
	op    string
	err   error
	known bool
}

// shape is how a workload's runs are laid out.
type shape struct {
	// setups is how many times set-up is timed; the median is setup_s.
	setups int
	// inputs is how many distinct inputs the rounds cycle through.
	inputs int
	// tracedRound: a traced run traces the round, whose program calls
	// are layers; otherwise the round runs after the traced window,
	// only to be checked.
	tracedRound bool
}

// benchmark is one workload. Round r of a run works on the input made
// from the seed e.roundSeed(r); the rounds cycle through a few inputs,
// so a run's timings average over several seeds' inputs while the
// checks compute each input's outputs once.
type benchmark interface {
	shape() shape
	// setup prepares the program for the timed rounds and returns the
	// program's CPU time in it. The rounds after a call use its state.
	setup(e *env) (time.Duration, error)
	// round runs the workload's program calls once, recording them as
	// spans under a tracer.
	round(e *env, tr *tracer, r int) (*round, error)
	// model computes the outputs of inputs 0..n-1 in-process from the
	// layers' public functions, traced when tr is non-nil.
	model(e *env, tr *tracer, n int) error
	// simOps is the simulated file-system ops round r replays.
	simOps(r int) int
	// check compares every round's outputs with the model, one verdict
	// per operation of a round.
	check(e *env) ([]verdict, error)
	// close stops whatever the workload started.
	close()
}

// noise is the host interference over a run: CPU time stolen by the
// hypervisor and the program's involuntary context switches.
type noise struct {
	StealS  float64 `json:"steal_s"`
	Nivcsw  int64   `json:"nivcsw"`
	ProbeMS float64 `json:"probe_ms"` // host speed: a fixed computation's time
}

// probe times a fixed CPU-bound computation (SHA-256 of 8 MiB, the
// median of five), a gauge of how fast the host runs right now.
func probe() float64 {
	buf := make([]byte, 8<<20)
	var ts []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		sha256.Sum256(buf)
		ts = append(ts, float64(time.Since(start))/1e6)
	}
	return stats.Median(ts)
}

// stealSeconds reads the host's cumulative steal time from /proc/stat.
func stealSeconds() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0 // not Linux: no steal to report
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// procStat reads a live process's involuntary context switches and
// peak resident set (KiB) from /proc: the process's status has its
// peak, each thread's its switches.
func procStat(pid int) (nivcsw, peakKiB int64) {
	peakKiB = statusField(fmt.Sprintf("/proc/%d/status", pid), "VmHWM:")
	threads, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	for _, path := range threads {
		nivcsw += statusField(path, "nonvoluntary_ctxt_switches:")
	}
	return nivcsw, peakKiB
}

// schedCPU reads a live process's CPU time to the nanosecond: the sum of
// its threads' run times in /proc/PID/task/*/schedstat. It serves where
// the 10 ms ticks of /proc/PID/stat are too coarse, as for a start-up
// of a few milliseconds.
func schedCPU(pid int) time.Duration {
	var ns int64
	paths, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			continue // the thread has exited
		}
		if f := strings.Fields(string(data)); len(f) > 0 {
			n, _ := strconv.ParseInt(f[0], 10, 64)
			ns += n
		}
	}
	return time.Duration(ns)
}

// statusField reads one numeric field of a /proc status file (0 if the
// file or the field is gone).
func statusField(path, field string) int64 {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, field); ok {
			n, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return n
		}
	}
	return 0
}

// measure runs the untraced benchmark: whole rounds for about the
// given time, with the set-ups spread evenly over the run, then the
// model and the checks. Spreading the set-ups makes setup_s sample the
// host over the whole run, as the rounds do, not only its first
// seconds.
//
// It returns the result, whose metrics are the program's CPU time per
// round and per set-up and its resident set, and beside it the
// wall-clock figures, which follow the host's load more than the
// program (see README.md).
func measure(b benchmark, e *env, seconds float64) (*result, noise, map[string]metric, error) {
	probe0 := probe()
	steal0 := stealSeconds()
	setups := b.shape().setups
	var setupCPU []float64
	setUp := func() error {
		cpu, err := b.setup(e)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupCPU = append(setupCPU, cpu.Seconds())
		return nil
	}

	var rounds []*round
	var walls []float64
	var measured float64 // time spent in rounds, set-ups excluded
	for r := 0; ; r++ {
		for len(setupCPU) < setups && measured >= float64(len(setupCPU))*seconds/float64(setups) {
			if err := setUp(); err != nil {
				return nil, noise{}, nil, err
			}
		}
		start := time.Now()
		rd, err := b.round(e, nil, r)
		if err != nil {
			return nil, noise{}, nil, err
		}
		measured += time.Since(start).Seconds()
		rounds = append(rounds, rd)
		walls = append(walls, rd.wall.Seconds())
		// Stop before a round that would end past the run length.
		if measured+stats.Median(walls) > seconds {
			break
		}
	}
	for len(setupCPU) < setups {
		if err := setUp(); err != nil {
			return nil, noise{}, nil, err
		}
	}
	b.close()
	steal := stealSeconds() - steal0

	if err := b.model(e, nil, min(len(rounds), e.inputs)); err != nil {
		return nil, noise{}, nil, fmt.Errorf("model: %w", err)
	}
	res, err := verify(b, e, len(rounds))
	if err != nil {
		return nil, noise{}, nil, err
	}

	// peak_rss_mb is the median of the rounds' peaks: the largest over
	// the whole run would grow with the number of processes sampled.
	var cpus, lat, opsRate, peaks []float64
	var nivcsw int64
	for r, rd := range rounds {
		cpus = append(cpus, rd.cpu.Seconds())
		opsRate = append(opsRate, float64(b.simOps(r))/rd.wall.Seconds())
		peaks = append(peaks, float64(rd.maxRSS)/1024)
		nivcsw += rd.nivcsw
		lat = append(lat, rd.latencies...)
	}
	res.Metrics = map[string]metric{
		"cpu_s":       {stats.Median(cpus), "s"},
		"peak_rss_mb": {stats.Median(peaks), "MB"},
		"setup_s":     {stats.Median(setupCPU), "s"},
	}
	wall := map[string]metric{
		"wall_s":            {stats.Median(walls), "s"},
		"sim_ops_per_s":     {stats.Median(opsRate), "1/s"},
		"jobs_per_s":        {float64(len(lat)) / measured, "1/s"},
		"job_latency_p50_s": {stats.Median(lat), "s"},
	}
	// A tail needs ten operations beyond it: the gated workloads make
	// well over forty per run, paper-repro and tournament-quick a few.
	if len(lat) >= 40 {
		wall["job_latency_tail_s"] = metric{tail(lat), "s"}
	}
	return res, noise{StealS: steal, Nivcsw: nivcsw, ProbeMS: (probe0 + probe()) / 2}, wall, nil
}

// traced runs the per-layer benchmark: one set-up, then the traced
// window (the model, and the round where the program calls are layers),
// then the checks.
func traced(b benchmark, e *env) (*result, noise, error) {
	steal0 := stealSeconds()
	if _, err := b.setup(e); err != nil {
		return nil, noise{}, fmt.Errorf("set-up: %w", err)
	}
	var nivcsw int64
	tr := newTracer()
	if b.shape().tracedRound {
		rd, err := b.round(e, tr, 0)
		if err != nil {
			return nil, noise{}, err
		}
		nivcsw = rd.nivcsw
	}
	if err := b.model(e, tr, 1); err != nil {
		return nil, noise{}, fmt.Errorf("model: %w", err)
	}
	if err := tr.finish(); err != nil {
		return nil, noise{}, err
	}
	if !b.shape().tracedRound {
		rd, err := b.round(e, nil, 0)
		if err != nil {
			return nil, noise{}, err
		}
		nivcsw = rd.nivcsw
	}
	b.close()
	steal := stealSeconds() - steal0
	res, err := verify(b, e, 1)
	if err != nil {
		return nil, noise{}, err
	}
	if res.Metrics, err = tr.metrics(); err != nil {
		return nil, noise{}, err
	}
	return res, noise{StealS: steal, Nivcsw: nivcsw}, nil
}

// verify checks the rounds' outputs and counts the operations.
func verify(b benchmark, e *env, rounds int) (*result, error) {
	verdicts, err := b.check(e)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	res := &result{Correct: true, Attempted: len(verdicts)}
	if len(verdicts)%rounds != 0 {
		return nil, fmt.Errorf("check: %d verdicts for %d rounds", len(verdicts), rounds)
	}
	for _, v := range verdicts {
		if v.err == nil {
			continue
		}
		res.Failed++
		if v.known {
			fmt.Fprintf(os.Stderr, "e2ebench: known failure: %s: %v\n", v.op, v.err)
			continue
		}
		res.Correct = false
		fmt.Fprintf(os.Stderr, "e2ebench: FAILED: %s: %v\n", v.op, v.err)
	}
	return res, nil
}
