package main

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"ffsage/internal/analysis"
	"ffsage/internal/experiments"
	"ffsage/internal/jobs"
	"ffsage/internal/policy"
	"ffsage/internal/trace"
)

// microSpec is a job at the Micro scale: 64 MB, 6 groups, 16 days.
func microSpec(pol string) jobs.Spec {
	cfg := experiments.Micro(7)
	return jobs.Spec{Policy: pol, Days: cfg.WorkloadCfg.Days, Seed: 7,
		NumCg: cfg.FsParams.NumCg, FsBytes: cfg.FsParams.SizeBytes, CheckpointDays: 1}
}

// fetched is what a correct daemon would serve for sp if it aged the
// job under policy pol, with perturb applied to the image bytes.
func fetched(t *testing.T, sp jobs.Spec, pol string, perturb func([]byte)) fetchedJob {
	t.Helper()
	run := sp
	run.Policy = pol
	m, err := modelJobRun(nil, t.TempDir(), run)
	if err != nil {
		t.Fatal(err)
	}
	img, sum, err := saveImage(nil, m.res.fs)
	if err != nil {
		t.Fatal(err)
	}
	served := append([]byte(nil), img...)
	if perturb != nil {
		perturb(served)
	}
	return fetchedJob{state: "done", attempt: 1, imageSHA: sha(served), imageLen: len(served),
		result: jobs.Result{Policy: sp.Policy, Days: sp.Days, LayoutByDay: m.res.layout, UtilByDay: m.res.util,
			FileCount: m.files, SkippedOps: m.res.skipped, NoSpaceOps: m.res.nospace,
			ImageBytes: len(img), ImageSHA256: sum}}
}

// checkJob runs agesrv-jobs' check on one fetched job.
func checkJob(t *testing.T, sp jobs.Spec, f fetchedJob) error {
	t.Helper()
	m, err := modelJobRun(nil, t.TempDir(), sp)
	if err != nil {
		t.Fatal(err)
	}
	b := &agesrvBench{specs: [][]jobs.Spec{{sp}}, fetched: [][]fetchedJob{{f}}, want: [][]modelJob{{m}}}
	vs, err := b.check(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 {
		t.Fatalf("%d verdicts, want 1", len(vs))
	}
	return vs[0].err
}

func TestJobCheckAcceptsTheDaemonsOutputs(t *testing.T) {
	sp := microSpec("ffs+realloc")
	if err := checkJob(t, sp, fetched(t, sp, sp.Policy, nil)); err != nil {
		t.Fatalf("correct job rejected: %v", err)
	}
}

func TestJobCheckCatchesAFlippedImageByte(t *testing.T) {
	sp := microSpec("ffs+realloc")
	f := fetched(t, sp, sp.Policy, func(img []byte) { img[len(img)/2] ^= 0x20 })
	err := checkJob(t, sp, f)
	if err == nil || !strings.Contains(err.Error(), "fetched image") {
		t.Fatalf("flipped image byte not caught: %v", err)
	}
}

func TestJobCheckCatchesTheWrongPolicy(t *testing.T) {
	sp := microSpec("ffs+realloc")
	if err := checkJob(t, sp, fetched(t, sp, "ffs", nil)); err == nil {
		t.Fatal("job aged under ffs instead of ffs+realloc not caught")
	}
}

func TestJobCheckCatchesADroppedDay(t *testing.T) {
	sp := microSpec("ffs")
	f := fetched(t, sp, sp.Policy, nil)
	day := 5
	f.result.LayoutByDay = append(append([]float64(nil), f.result.LayoutByDay[:day]...), f.result.LayoutByDay[day+1:]...)
	err := checkJob(t, sp, f)
	if err == nil || !strings.Contains(err.Error(), "layout_by_day") {
		t.Fatalf("dropped day not caught: %v", err)
	}
}

func TestSeriesTableCatchesADroppedDay(t *testing.T) {
	series := []float64{0.99, 0.97, 0.96, 0.94, 0.95, 0.93, 0.91, 0.92}
	table := func(s []float64) []string {
		rows := []string{"  day   value"}
		for d := 1; d <= len(s); d += 2 {
			rows = append(rows, fmt.Sprintf("  %4d  %12.3f", d, s[d-1]))
		}
		return append(rows, fmt.Sprintf("  %4d  %12.3f", len(s), s[len(s)-1]))
	}
	if err := checkSeriesTable(table(series), series); err != nil {
		t.Fatalf("matching table rejected: %v", err)
	}
	dropped := append(append([]float64(nil), series[:2]...), series[3:]...)
	if err := checkSeriesTable(table(dropped), series); err == nil {
		t.Fatal("table of a series with a dropped day not caught")
	}
}

// TestTracedReplayMatchesReplay checks that the traced replay, which
// steps ops one at a time, ages exactly as aging.Replay does.
func TestTracedReplayMatchesReplay(t *testing.T) {
	cfg := experiments.Micro(3)
	c, err := compose(nil, cfg.WorkloadCfg, cfg.NFSCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.checkBuild(cfg.WorkloadCfg, cfg.NFSCfg); err != nil {
		t.Fatal(err)
	}
	pol, err := policy.New("ffs+realloc")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := replay(nil, "ffs-realloc", cfg.FsParams, pol, c.recon, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	checkpoints := 0
	stepped, err := replay(tr, "ffs-realloc", cfg.FsParams, pol, c.recon, 4, func(*trace.Checkpoint) error {
		checkpoints++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.finish(); err != nil {
		t.Fatal(err)
	}
	if err := sameSeries("layout", stepped.layout, plain.layout); err != nil {
		t.Fatal(err)
	}
	_, a, _ := saveImage(nil, plain.fs)
	_, b, _ := saveImage(nil, stepped.fs)
	if a != b {
		t.Fatal("stepped replay's image differs from aging.Replay's")
	}
	if want := cfg.WorkloadCfg.Days / 4; checkpoints != want {
		t.Fatalf("%d checkpoints, want %d", checkpoints, want)
	}
	if err := checkImage(stepped.fs); err != nil {
		t.Fatal(err)
	}
	m, err := tr.metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m["aging.replay_s"].Value <= 0 || m["ffs.create_ns"].Value <= 0 || m["aging.day_ms_p50"].Value <= 0 {
		t.Fatalf("traced replay measured nothing: %v", m)
	}
}

func TestTracerCatchesMisnestedSpans(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("layout.report_s")
	inner := tr.begin("bench.hot_s")
	outer()
	inner()
	if err := tr.finish(); err == nil {
		t.Fatal("spans closed out of order not caught")
	}
}

func TestTracerCatchesAnUnspannedCall(t *testing.T) {
	spanned := func(unspanned time.Duration) error {
		tr := newTracer()
		end := tr.begin("layout.report_s")
		inner := tr.begin("bench.hot_s")
		time.Sleep(20 * time.Millisecond)
		inner()
		end()
		time.Sleep(unspanned) // a layer call with no span around it
		if err := tr.finish(); err != nil {
			t.Fatal(err)
		}
		_, err := tr.metrics()
		return err
	}
	if err := spanned(0); err != nil {
		t.Fatalf("fully spanned window rejected: %v", err)
	}
	if err := spanned(5 * time.Millisecond); err == nil {
		t.Fatal("a call outside every span not caught")
	}
}

// TestKnownFailureIsExcusedOnlyForTheKnownFault checks that the
// seqbench failure is excused only when seqbench prints the report of
// the image loaded under ffs+realloc, and that any other wrong report
// makes the run incorrect.
func TestKnownFailureIsExcusedOnlyForTheKnownFault(t *testing.T) {
	const right, fault = "report under ffs\n", "report under ffs+realloc\n"
	verdictFor := func(printed string) verdict {
		b := &toolsBench{
			refSHA:    []string{"x"},
			ops:       [][]toolOp{{{name: knownFault}}},
			got:       [][]toolOut{{{stdout: printed}}},
			want:      []map[string]toolOut{{knownFault: {stdout: right}}},
			refSeqBad: fault,
		}
		vs, err := b.check(nil)
		if err != nil {
			t.Fatal(err)
		}
		return vs[0]
	}
	if v := verdictFor(right); v.err != nil {
		t.Fatalf("right report rejected: %v", v.err)
	}
	if v := verdictFor(fault); v.err == nil || !v.known {
		t.Fatalf("the known fault's report: %+v, want a known failure", v)
	}
	if v := verdictFor("report with another fault\n"); v.err == nil || v.known {
		t.Fatalf("another wrong report: %+v, want an unexcused failure", v)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if math.Abs(q1-2.75) > 1e-12 || math.Abs(q3-8.25) > 1e-12 {
		t.Fatalf("quartiles %v %v, want 2.75 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q3 = quartiles([]float64{4, 1, 2})
	if math.Abs(q1-1) > 1e-12 || math.Abs(q3-4) > 1e-12 {
		t.Fatalf("quartiles %v %v, want 1 4", q1, q3)
	}
}

func TestParseRun(t *testing.T) {
	out := "some progress\nnoise: {\"steal_s\":0.5,\"nivcsw\":3}\n" +
		`wall: {"wall_s":{"value":2.5,"unit":"s"}}` + "\n" +
		`{"correct":true,"attempted":11,"failed":1,"metrics":{"cpu_s":{"value":2.4,"unit":"s"}}}` + "\n"
	res, nz, wall, err := parseRun(out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 11 || res.Failed != 1 || res.Metrics["cpu_s"].Value != 2.4 ||
		wall["wall_s"].Value != 2.5 || nz.StealS != 0.5 {
		t.Fatalf("parsed %+v %+v %+v", res, nz, wall)
	}
	if _, _, _, err := parseRun("no result line\n"); err == nil {
		t.Fatal("missing result line not caught")
	}
}

// TestVetClean runs the repository's whole-program analyzers (ffsvet)
// over this module, as the repository's own TestRepoIsClean does over
// the main module.
func TestVetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go list -export over the module")
	}
	pkgs, err := analysis.LoadPatterns(".", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	for _, d := range analysis.RunProgram(analysis.NewProgram(pkgs), analysis.DefaultSuite()) {
		t.Errorf("%s", d)
	}
}
