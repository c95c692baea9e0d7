package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"ffsage/internal/bench"
	"ffsage/internal/experiments"
	"ffsage/internal/layout"
	"ffsage/internal/policy"
	"ffsage/internal/stats"
	"ffsage/internal/trace"
)

// reproBench is paper-repro: `repro` at paper scale (502 MB, 27
// groups, 300 days), every exhibit and the report, one worker.
type reproBench struct {
	reports []string // markdown report per round
	snaps   []string // metrics snapshot per round

	want []*reproModel // per round
}

// reproModel is one round's reproduction computed in-process.
type reproModel struct {
	cfg  experiments.Config
	c    *composed
	arms map[string]*aged // ffs, ffs-realloc, ground-truth
	seq  map[string][]bench.SeqResult
}

// reproArms are the three aging replays of the paper's method: the
// reconstructed workload under ffs and ffs+realloc, and the ground
// truth under ffs. The snapshot names them age-<slug>.
var reproArms = []struct{ arm, policy, snapshot string }{
	{"ffs", "ffs", "age-ffs"},
	{"ffs-realloc", "ffs+realloc", "age-realloc"},
	{"ground-truth", "ffs", "age-ground-truth"},
}

// sweptArms are the two images the exhibits benchmark.
var sweptArms = []string{"ffs", "ffs-realloc"}

func (b *reproBench) shape() shape { return shape{setups: 9, inputs: 1} }

// setup starts the program once and lets it exit: process start-up and
// package initialization, all there is before repro's first call.
func (b *reproBench) setup(e *env) (time.Duration, error) {
	_, u, err := e.command("repro", "-h")
	return u.cpu, err
}

func (b *reproBench) round(e *env, _ *tracer, r int) (*round, error) {
	dir := filepath.Join(e.work, "repro")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	md, snap := filepath.Join(dir, "report.md"), filepath.Join(dir, "metrics.txt")
	_, u, err := e.command("repro", "-seed", strconv.FormatInt(e.roundSeed(r), 10), "-j", "1", "-md", md, "-metrics", snap)
	if err != nil {
		return nil, err
	}
	rd := &round{wall: u.wall}
	rd.addProcess(u)
	for _, f := range []struct {
		path string
		dst  *[]string
	}{{md, &b.reports}, {snap, &b.snaps}} {
		data, err := os.ReadFile(f.path)
		if err != nil {
			return nil, err
		}
		*f.dst = append(*f.dst, string(data))
	}
	return rd, os.RemoveAll(dir)
}

func (b *reproBench) model(e *env, tr *tracer, n int) error {
	b.want = nil
	for r := 0; r < n; r++ {
		m, err := reproRun(tr, experiments.Full(e.roundSeed(r)))
		if err != nil {
			return err
		}
		b.want = append(b.want, m)
	}
	return nil
}

// reproRun builds the workload, ages the three file systems, and runs
// the exhibits' layout reports and benchmarks on the two aged images.
func reproRun(tr *tracer, cfg experiments.Config) (*reproModel, error) {
	m := &reproModel{cfg: cfg, arms: map[string]*aged{}, seq: map[string][]bench.SeqResult{}}
	var err error
	if m.c, err = compose(tr, cfg.WorkloadCfg, cfg.NFSCfg); err != nil {
		return nil, err
	}
	for _, a := range reproArms {
		pol, err := policy.New(a.policy)
		if err != nil {
			return nil, err
		}
		if m.arms[a.arm], err = replay(tr, a.arm, cfg.FsParams, pol, m.workload(a.arm), 0, nil); err != nil {
			return nil, fmt.Errorf("%s: %w", a.arm, err)
		}
	}
	days := cfg.WorkloadCfg.Days
	hotFrom := days - cfg.HotWindow

	// Figures 3 and 6 and the seek counts of Figure 2's notes.
	end := tr.begin("layout.report_s")
	fpb := cfg.FsParams.FragsPerBlock()
	for _, arm := range sweptArms {
		img := m.arms[arm]
		buckets := stats.PowerOfTwoBuckets(16<<10, 16<<20)
		layout.BySize(layout.AllFiles(img.fs), fpb, buckets)
		layout.BySize(layout.HotFiles(img.fs, hotFrom), fpb, buckets)
		img.seeks = layout.IntraFileSeeks(layout.AllFiles(img.fs), fpb)
	}
	end()

	var requests int64
	start := time.Now()
	end = tr.begin("bench.seq_sweep_s")
	for _, arm := range sweptArms {
		rs, err := bench.SequentialSweep(m.arms[arm].fs, cfg.DiskParams, cfg.BenchSizes, cfg.BenchTotal, days)
		if err != nil {
			end()
			return nil, err
		}
		m.seq[arm] = rs
		for _, r := range rs {
			requests += r.Disk.Reads + r.Disk.Writes
		}
	}
	end()
	end = tr.begin("bench.hot_s")
	for _, arm := range sweptArms {
		hot, err := bench.HotFiles(m.arms[arm].fs, cfg.DiskParams, hotFrom)
		if err != nil {
			end()
			return nil, err
		}
		requests += hot.Disk.Reads + hot.Disk.Writes
	}
	end()
	tr.add("bench.disk_request_ns", float64(time.Since(start)), float64(requests))
	return m, nil
}

// workload is the stream an arm replays.
func (m *reproModel) workload(arm string) *trace.Workload {
	if arm == "ground-truth" {
		return m.c.ref.GroundTruth
	}
	return m.c.recon
}

func (b *reproBench) simOps(r int) int {
	n := 0 // ops replayed
	for _, a := range reproArms {
		n += len(b.want[r%len(b.want)].workload(a.arm).Ops)
	}
	return n
}

func (b *reproBench) check(e *env) ([]verdict, error) {
	var out []verdict
	for r := range b.reports {
		out = append(out, verdict{op: "repro", err: b.want[r%len(b.want)].check(b.reports[r], b.snaps[r])})
	}
	return out, nil
}

// check compares one repro run's report and metrics snapshot with the
// model, and checks the properties the method must have.
func (m *reproModel) check(md, snapText string) error {
	cfg := m.cfg
	var es errs
	es.add(m.c.checkBuild(cfg.WorkloadCfg, cfg.NFSCfg))
	snap := metricsSnapshot(snapText)
	for _, a := range reproArms {
		res := m.arms[a.arm]
		if err := checkImage(res.fs); err != nil {
			es.add(fmt.Errorf("%s image: %w", a.arm, err))
		}
		p := "aging." + a.snapshot + "."
		es.add(expect(snap, p+"ops.total", len(m.workload(a.arm).Ops)))
		es.add(expect(snap, p+"ops.skipped", res.skipped))
		es.add(expect(snap, p+"ops.nospace", res.nospace))
		es.add(expect(snap, p+"days", len(res.layout)))
		es.add(expect(snap, p+"final.layout", last(res.layout)))
		es.add(expect(snap, p+"final.util", last(res.util)))
	}
	ffs, rlc, gt := m.arms["ffs"], m.arms["ffs-realloc"], m.arms["ground-truth"]
	if last(rlc.layout) <= last(ffs.layout) {
		es.add(fmt.Errorf("ffs+realloc ends aging at %.3f, not above ffs at %.3f", last(rlc.layout), last(ffs.layout)))
	}
	rawRead := bench.RawThroughput(cfg.FsParams.SizeBytes, cfg.DiskParams, cfg.BenchTotal, false)
	rawWrite := bench.RawThroughput(cfg.FsParams.SizeBytes, cfg.DiskParams, cfg.BenchTotal, true)
	for _, arm := range sweptArms {
		for _, r := range m.seq[arm] {
			if r.ReadBps > rawRead {
				es.add(fmt.Errorf("%s sweep at %dK reads %.0f B/s, above the raw device's %.0f", arm, r.FileSize>>10, r.ReadBps, rawRead))
			}
		}
	}
	if rows, _, err := mdSection(md, "Figure 1:"); err != nil {
		es.add(err)
	} else {
		es.add(checkSeriesTable(rows, gt.layout, ffs.layout))
	}
	if rows, text, err := mdSection(md, "Figure 2:"); err != nil {
		es.add(err)
	} else {
		es.add(checkSeriesTable(rows, ffs.layout, rlc.layout))
		want := fmt.Sprintf("intra-file disk seeks: %d → %d,", ffs.seeks, rlc.seeks)
		if !containsPrefix(text, want) {
			es.add(fmt.Errorf("Figure 2 notes lack %q", want))
		}
	}
	if rows, text, err := mdSection(md, "Figure 4:"); err != nil {
		es.add(err)
	} else {
		es.add(checkFig4(rows, m.seq["ffs"], m.seq["ffs-realloc"]))
		want := fmt.Sprintf("raw device: read %.2f MB/s, write %.2f MB/s", rawRead/1e6, rawWrite/1e6)
		if !containsPrefix(text, want) {
			es.add(fmt.Errorf("Figure 4 notes lack %q", want))
		}
	}
	return es.err()
}

// checkFig4 checks Figure 4's rows (size, ffs and realloc write MB/s,
// change, ffs and realloc read MB/s, change) against the sweeps.
func checkFig4(rows []string, orig, rlc []bench.SeqResult) error {
	if len(rows) != len(orig)+1 {
		return fmt.Errorf("Figure 4 has %d rows, want %d", len(rows)-1, len(orig))
	}
	byKB := map[string][2]bench.SeqResult{}
	for i := range orig {
		byKB[fmt.Sprintf("%dK", orig[i].FileSize>>10)] = [2]bench.SeqResult{orig[i], rlc[i]}
	}
	for _, row := range rows[1:] {
		f := strings.Fields(row)
		if len(f) != 7 {
			return fmt.Errorf("Figure 4 row %q: want 7 columns", row)
		}
		p, ok := byKB[f[0]]
		if !ok {
			return fmt.Errorf("Figure 4 row %q: no such sweep size", row)
		}
		want := []string{
			fmt.Sprintf("%.2f", p[0].WriteBps/1e6), fmt.Sprintf("%.2f", p[1].WriteBps/1e6),
			fmt.Sprintf("%.2f", p[0].ReadBps/1e6), fmt.Sprintf("%.2f", p[1].ReadBps/1e6),
		}
		if got := []string{f[1], f[2], f[4], f[5]}; strings.Join(got, " ") != strings.Join(want, " ") {
			return fmt.Errorf("Figure 4 row %s: MB/s %v, want %v", f[0], got, want)
		}
	}
	return nil
}

func containsPrefix(lines []string, prefix string) bool {
	for _, l := range lines {
		if strings.HasPrefix(l, prefix) {
			return true
		}
	}
	return false
}

func last(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[len(xs)-1]
}

func (b *reproBench) close() {}
