package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"ffsage/internal/stats"
)

// steadiness runs the workload n times, each in its own process on its
// own seed, and prints for every end-to-end metric, and every
// wall-clock figure reported beside them, the median, the quartiles,
// the spread (quartile distance over median) and the correlation of
// the metric with the host CPU steal of each run. The bounds in
// BENCHMARK.json are set from these spreads.
func steadiness(bin, work, name string, seed int64, seconds float64, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var steal []float64
	var failedShare []float64
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "-bin", bin, "-work", work, "-workload", name,
			"-seed", strconv.FormatInt(s, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		res, nz, wall, err := parseRun(out.String())
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		for _, ms := range []map[string]metric{res.Metrics, wall} {
			for _, k := range sortedKeys(ms) {
				values[k] = append(values[k], ms[k].Value)
				units[k] = ms[k].Unit
			}
		}
		steal = append(steal, nz.StealS)
		failedShare = append(failedShare, float64(res.Failed)/float64(res.Attempted))
		fmt.Printf("seed %d: attempted %d, failed %d, steal %.2f s, nivcsw %d, probe %.2f ms, wall %.4f s, cpu %.4f s\n",
			s, res.Attempted, res.Failed, nz.StealS, nz.Nivcsw, nz.ProbeMS, wall["wall_s"].Value, res.Metrics["cpu_s"].Value)
	}
	fmt.Printf("\n%s, %d runs of %g s\n", name, n, seconds)
	fmt.Printf("%-20s %-5s %12s %12s %12s %8s %10s\n", "metric", "unit", "q1", "median", "q3", "spread", "r(steal)")
	for _, k := range sortedKeys(values) {
		xs := values[k]
		q1, q3 := quartiles(xs)
		med := stats.Median(xs)
		fmt.Printf("%-20s %-5s %12.6g %12.6g %12.6g %8.4f %10.2f\n",
			k, units[k], q1, med, q3, (q3-q1)/med, pearson(xs, steal))
	}
	fmt.Printf("failed share: min %.6f max %.6f\n", stats.Min(failedShare), stats.Max(failedShare))
	return nil
}

// parseRun reads a run's noise and wall-clock lines and its closing
// result line.
func parseRun(out string) (*result, noise, map[string]metric, error) {
	var res result
	var nz noise
	var wall map[string]metric
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, nz, nil, fmt.Errorf("result line: %w", err)
	}
	for _, l := range lines {
		if v, ok := strings.CutPrefix(l, "noise: "); ok {
			if err := json.Unmarshal([]byte(v), &nz); err != nil {
				return nil, nz, nil, fmt.Errorf("noise line: %w", err)
			}
		}
		if v, ok := strings.CutPrefix(l, "wall: "); ok {
			if err := json.Unmarshal([]byte(v), &wall); err != nil {
				return nil, nz, nil, fmt.Errorf("wall line: %w", err)
			}
		}
	}
	if res.Attempted < 1 {
		return nil, nz, nil, fmt.Errorf("result attempted no operations")
	}
	return &res, nz, wall, nil
}

// quartiles returns the first and third quartiles by the exclusive
// method (Python's statistics.quantiles(xs, n=4)), the one the bounds
// are checked with. That method puts quantile p at 1-based position
// p(n+1); stats.Percentile interpolates at 1-based position 1+q(n-1),
// so q is chosen to land on the same position. With fewer than three
// values, where the exclusive method extrapolates, it returns the
// smallest and the largest.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 3 {
		return stats.Min(xs), stats.Max(xs)
	}
	n := float64(len(xs))
	at := func(p float64) float64 { return stats.Percentile(xs, 100*(p*(n+1)-1)/(n-1)) }
	return at(0.25), at(0.75)
}

// pearson is the correlation coefficient of xs and ys (0 when either
// is constant).
func pearson(xs, ys []float64) float64 {
	mx, my := stats.Mean(xs), stats.Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
