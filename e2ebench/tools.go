package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"ffsage/internal/bench"
	"ffsage/internal/disk"
	"ffsage/internal/ffs"
	"ffsage/internal/layout"
	"ffsage/internal/policy"
	"ffsage/internal/stats"
	"ffsage/internal/trace"
	"ffsage/internal/workload"
)

// toolsBench is tools-pipeline: the chain of standalone tools, one
// process at a time. mkworkload builds a 60-day workload, agefs ages
// it under ffs and ffs+realloc, and seqbench, hotbench, layoutstat and
// fsck read the images.
//
// seqbench's ffs-aged input is a fixed reference image (seed 1996)
// made at set-up, not the round's: seqbench loads every image under
// ffs+realloc, so on an ffs-aged image it fails every time, and its
// input must not depend on the seed. That failure is excused only when
// seqbench prints exactly the report of the image loaded under
// ffs+realloc.
type toolsBench struct {
	refSHA []string    // reference image per set-up
	ops    [][]toolOp  // per round
	got    [][]toolOut // per round, per op

	want      []map[string]toolOut // per round, per op name
	nOps      []int                // simulated ops per round
	refSeq    string               // seqbench's report on the reference image
	refSeqBad string               // the same under ffs+realloc: the known fault's report
}

// knownFault is the operation that fails because of the documented
// fault in cmd/seqbench.
const knownFault = "seqbench ref-ffs"

// toolOp is one process of the pipeline.
type toolOp struct {
	name string // verdict name
	tool string
	args []string
	file string // an output file to hash, relative to the work directory
}

// toolOut is an op's output; err is a failure the model itself found.
type toolOut struct {
	stdout  string
	fileSHA string
	err     error
}

const (
	toolsDays    = 60
	toolsRefSeed = 1996
	toolsHotFrom = 48 // the last 12 days, as at quick scale
	refImage     = "ref/ffs.img"
)

var (
	seqSizesKB = []int64{16, 64, 96, 1024}
	seqTotal   = int64(8 << 20)
)

// toolImage is an aged image the read-side tools run on, with the
// policy it was aged under.
type toolImage struct{ name, path, policy string }

// inputDir is where the rounds on input k write their files; rounds on
// the same input write the same bytes.
func inputDir(k int) string { return fmt.Sprintf("input-%d", k) }

// roundImages are the two agefs images of the rounds on input k.
func roundImages(k int) []toolImage {
	dir := inputDir(k)
	return []toolImage{{"ffs", dir + "/ffs.img", "ffs"}, {"realloc", dir + "/rlc.img", "ffs+realloc"}}
}

// pipeline is the processes of a round on input k, made from seed.
func pipeline(seed int64, k int) []toolOp {
	sizes := make([]string, len(seqSizesKB))
	for i, kb := range seqSizesKB {
		sizes[i] = strconv.FormatInt(kb, 10)
	}
	seq := []string{"-total", strconv.FormatInt(seqTotal, 10), "-sizes", strings.Join(sizes, ","),
		"-day", strconv.Itoa(toolsDays)}
	imgs := roundImages(k)
	wl := inputDir(k) + "/wl.ffw"
	hot := strconv.Itoa(toolsHotFrom)
	ops := []toolOp{
		{"mkworkload", "mkworkload", []string{"-seed", strconv.FormatInt(seed, 10), "-days", strconv.Itoa(toolsDays), "-out", wl}, wl},
		{"agefs ffs", "agefs", []string{"-workload", wl, "-policy", "ffs", "-image", imgs[0].path, "-q"}, imgs[0].path},
		{"agefs realloc", "agefs", []string{"-workload", wl, "-policy", "ffs+realloc", "-image", imgs[1].path, "-q"}, imgs[1].path},
		{"seqbench realloc", "seqbench", append([]string{"-image", imgs[1].path}, seq...), ""},
		{knownFault, "seqbench", append([]string{"-image", refImage}, seq...), ""},
	}
	for _, img := range imgs {
		ops = append(ops,
			toolOp{"hotbench " + img.name, "hotbench", []string{"-image", img.path, "-fromday", hot}, ""},
			toolOp{"layoutstat " + img.name, "layoutstat", []string{"-image", img.path, "-hotfrom", hot}, ""},
			toolOp{"fsck " + img.name, "fsck", []string{"-policy", img.policy, img.path}, ""})
	}
	return ops
}

func (b *toolsBench) shape() shape {
	return shape{setups: 9, inputs: 3, tracedRound: true}
}

// setup builds the reference ffs-aged image with the program's own
// tools: mkworkload and agefs on seed 1996.
func (b *toolsBench) setup(e *env) (time.Duration, error) {
	if err := os.MkdirAll(filepath.Join(e.work, filepath.Dir(refImage)), 0o755); err != nil {
		return 0, err
	}
	wl := filepath.Dir(refImage) + "/wl.ffw"
	_, u1, err := e.command("mkworkload", "-seed", strconv.Itoa(toolsRefSeed), "-days", strconv.Itoa(toolsDays), "-out", wl)
	if err != nil {
		return 0, err
	}
	_, u2, err := e.command("agefs", "-workload", wl, "-policy", "ffs", "-image", refImage, "-q")
	if err != nil {
		return 0, err
	}
	data, err := os.ReadFile(filepath.Join(e.work, refImage))
	if err != nil {
		return 0, err
	}
	b.refSHA = append(b.refSHA, sha(data))
	return u1.cpu + u2.cpu, nil
}

func (b *toolsBench) round(e *env, tr *tracer, r int) (*round, error) {
	if err := os.MkdirAll(filepath.Join(e.work, inputDir(e.input(r))), 0o755); err != nil {
		return nil, err
	}
	ops := pipeline(e.roundSeed(r), e.input(r))
	rd := &round{}
	var outs []toolOut
	for _, op := range ops {
		end := tr.begin("cmd." + op.tool + "_s")
		stdout, u, err := e.command(op.tool, op.args...)
		end()
		if err != nil {
			return nil, err
		}
		rd.addProcess(u)
		rd.wall += u.wall
		out := toolOut{stdout: string(stdout)}
		if op.file != "" {
			data, err := os.ReadFile(filepath.Join(e.work, op.file))
			if err != nil {
				return nil, err
			}
			out.fileSHA = sha(data)
		}
		outs = append(outs, out)
	}
	b.ops = append(b.ops, ops)
	b.got = append(b.got, outs)
	return rd, nil
}

func (b *toolsBench) model(e *env, tr *tracer, n int) error {
	// seqbench on the reference image: the same in every round.
	ref, err := loadImage(tr, e, toolImage{"ref-ffs", refImage, "ffs"})
	if err != nil {
		return err
	}
	end := tr.begin("bench.seq_sweep_s")
	b.refSeq, _, err = seqbenchOutput(ref)
	end()
	if err != nil {
		return err
	}
	bad, err := loadImage(tr, e, toolImage{"ref-ffs", refImage, "ffs+realloc"})
	if err != nil {
		return err
	}
	end = tr.begin("bench.seq_sweep_s")
	b.refSeqBad, _, err = seqbenchOutput(bad)
	end()
	if err != nil {
		return err
	}
	b.want, b.nOps = nil, nil
	for r := 0; r < n; r++ {
		want, ops, err := toolsRun(tr, e, r)
		if err != nil {
			return fmt.Errorf("input %d: %w", r, err)
		}
		want[knownFault] = toolOut{stdout: b.refSeq}
		b.want = append(b.want, want)
		b.nOps = append(b.nOps, ops)
	}
	return nil
}

// toolsRun computes every tool's output on input k in-process: the
// workload from the workload layer's stages, the images by replay, and
// each read-side tool's numbers on the image the round's agefs wrote,
// loaded under the policy it was aged with.
func toolsRun(tr *tracer, e *env, k int) (map[string]toolOut, int, error) {
	seed := e.roundSeed(k)
	wc := workload.DefaultConfig(seed)
	wc.Days = toolsDays
	c, err := compose(tr, wc, workload.DefaultNFSTraceConfig(seed+1))
	if err != nil {
		return nil, 0, err
	}
	want := map[string]toolOut{}

	// mkworkload: its report and the workload file it wrote, which
	// must decode to the composed workload.
	wlPath := inputDir(k) + "/wl.ffw"
	var wlFile bytes.Buffer
	if err := trace.WriteWorkload(&wlFile, c.recon); err != nil {
		return nil, 0, err
	}
	mk := toolOut{
		stdout: fmt.Sprintf("ground truth:  %v\nreconstructed: %v\nend state: %d files, %.1f MB used\nwrote %s (%d ops)\n",
			c.ref.GroundTruth.Summarize(), c.recon.Summarize(), c.ref.EndLiveFiles,
			float64(c.ref.EndUsedBytes)/(1<<20), wlPath, len(c.recon.Ops)),
		fileSHA: sha(wlFile.Bytes()),
	}
	f, err := os.Open(filepath.Join(e.work, wlPath))
	if err != nil {
		return nil, 0, err
	}
	end := tr.begin("trace.workload_read_s")
	read, err := trace.ReadWorkload(f)
	end()
	f.Close()
	if err != nil {
		return nil, 0, err
	}
	if trace.HashWorkload(read) != trace.HashWorkload(c.recon) {
		mk.err = fmt.Errorf("the workload file does not decode to the composed workload")
	}
	want["mkworkload"] = mk

	var requests int64
	var benchTime time.Duration // in the two benchmarks, for bench.disk_request_ns
	for _, img := range roundImages(k) {
		// agefs: the replay and the image it saves.
		pol, err := policy.Resolve(img.policy)
		if err != nil {
			return nil, 0, err
		}
		res, err := replay(tr, policy.Slug(pol.Name()), ffs.PaperParams(), pol, c.recon, 0, nil)
		if err != nil {
			return nil, 0, err
		}
		_, sum, err := saveImage(tr, res.fs)
		if err != nil {
			return nil, 0, err
		}
		want["agefs "+img.name] = toolOut{
			stdout: fmt.Sprintf("aged %d days under %s: final layout %.3f, utilization %.2f, %d files (%d ops skipped, %d for space)\nwrote %s\n",
				c.recon.Days, pol.Name(), last(res.layout), last(res.util), res.fs.FileCount(), res.skipped, res.nospace, img.path),
			fileSHA: sum,
		}

		// The read-side tools, on the image as the tools load it.
		fsys, err := loadImage(tr, e, img)
		if err != nil {
			return nil, 0, err
		}
		if img.name == "realloc" {
			start := time.Now()
			end := tr.begin("bench.seq_sweep_s")
			out, n, err := seqbenchOutput(fsys)
			end()
			benchTime += time.Since(start)
			if err != nil {
				return nil, 0, err
			}
			requests += n
			want["seqbench "+img.name] = toolOut{stdout: out}
		}
		start := time.Now()
		end := tr.begin("bench.hot_s")
		hot, err := bench.HotFiles(fsys, disk.PaperParams(), toolsHotFrom)
		end()
		benchTime += time.Since(start)
		if err != nil {
			return nil, 0, err
		}
		requests += hot.Disk.Reads + hot.Disk.Writes
		want["hotbench "+img.name] = toolOut{stdout: hotbenchOutput(hot)}

		end = tr.begin("layout.report_s")
		ls := toolOut{stdout: layoutstatOutput(img.path, fsys)}
		scan := layout.FsAggregate(fsys)
		end()
		if inc := fsys.LayoutScore(); math.Abs(inc-scan) > 1e-9 {
			ls.err = fmt.Errorf("incremental layout score %.12f, rescan %.12f", inc, scan)
		}
		want["layoutstat "+img.name] = ls

		end = tr.begin("ffs.check_ms")
		cerr := fsys.Check()
		end()
		fsck := toolOut{stdout: fmt.Sprintf("%s: clean: %d files, utilization %.1f%%, layout %.3f\n",
			img.path, fsys.FileCount(), 100*fsys.Utilization(), fsys.LayoutScore())}
		if cerr != nil {
			fsck.err = fmt.Errorf("Check: %w", cerr)
		}
		want["fsck "+img.name] = fsck
	}
	tr.add("bench.disk_request_ns", float64(benchTime), float64(requests))
	return want, 2 * len(c.recon.Ops), nil
}

// loadImage reads an image file and loads it under its policy.
func loadImage(tr *tracer, e *env, img toolImage) (*ffs.FileSystem, error) {
	pol, err := policy.Resolve(img.policy)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(e.work, img.path))
	if err != nil {
		return nil, err
	}
	end := tr.begin("ffs.load_image_ms")
	fsys, err := ffs.LoadImage(bytes.NewReader(data), pol)
	end()
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", img.path, err)
	}
	return fsys, nil
}

// seqbenchOutput is seqbench's report for an image, and the disk
// requests it took.
func seqbenchOutput(fsys *ffs.FileSystem) (string, int64, error) {
	var sb strings.Builder
	dp := disk.PaperParams()
	fmt.Fprintf(&sb, "raw device: read %.2f MB/s, write %.2f MB/s\n",
		bench.RawThroughput(fsys.P.SizeBytes, dp, seqTotal, false)/1e6,
		bench.RawThroughput(fsys.P.SizeBytes, dp, seqTotal, true)/1e6)
	fmt.Fprintf(&sb, "%10s %8s %12s %12s %8s\n", "size", "files", "write MB/s", "read MB/s", "layout")
	var requests int64
	for _, kb := range seqSizesKB {
		r, err := bench.SequentialIO(fsys, dp, kb<<10, seqTotal, toolsDays)
		if err != nil {
			return "", 0, err
		}
		requests += r.Disk.Reads + r.Disk.Writes
		fmt.Fprintf(&sb, "%9dK %8d %12.2f %12.2f %8.3f\n",
			r.FileSize>>10, r.NFiles, r.WriteBps/1e6, r.ReadBps/1e6, r.LayoutScore)
	}
	return sb.String(), requests, nil
}

func hotbenchOutput(res bench.HotResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "hot set: %d files (%.1f%% of files), %.1f MB (%.1f%% of bytes)\n",
		res.NFiles, 100*res.FracFiles, float64(res.TotalBytes)/(1<<20), 100*res.FracBytes)
	fmt.Fprintf(&sb, "layout score:     %.3f\n", res.LayoutScore)
	fmt.Fprintf(&sb, "read throughput:  %.2f MB/s\n", res.ReadBps/1e6)
	fmt.Fprintf(&sb, "write throughput: %.2f MB/s\n", res.WriteBps/1e6)
	fmt.Fprintln(&sb, "\nlayout by size:")
	for _, b := range res.BySize {
		if b.Files > 0 {
			fmt.Fprintf(&sb, "  %8s  %6d files  %.3f\n", b.Label, b.Files, b.Score)
		}
	}
	return sb.String()
}

func layoutstatOutput(path string, fsys *ffs.FileSystem) string {
	var sb strings.Builder
	files := layout.AllFiles(fsys)
	fpb := fsys.FragsPerBlock()
	fmt.Fprintf(&sb, "%s: %d files, %.1f MB, utilization %.1f%%\n",
		path, len(files), float64(layout.TotalBytes(files))/(1<<20), 100*fsys.Utilization())
	fmt.Fprintf(&sb, "aggregate layout score: %.3f (%.1f%% of blocks non-optimal)\n",
		layout.FsAggregate(fsys), 100*layout.NonOptimalFraction(files, fpb))
	fmt.Fprintln(&sb, "\nlayout score by file size:")
	for _, b := range layout.BySize(files, fpb, stats.PowerOfTwoBuckets(16<<10, 16<<20)) {
		if b.Files > 0 {
			fmt.Fprintf(&sb, "  %8s  %6d files  %8d blocks  %.3f\n", b.Label, b.Files, b.Blocks, b.Score)
		}
	}
	hist, free := fsys.FreeRunHistogram()
	fmt.Fprintf(&sb, "\nfree space: %d blocks in runs ", free)
	for k := 1; k <= 6; k++ {
		fmt.Fprintf(&sb, "%d:%d ", k, hist[k])
	}
	fmt.Fprintf(&sb, "7+:%d\n", hist[7])
	hot := layout.HotFiles(fsys, toolsHotFrom)
	if len(hot) == 0 {
		fmt.Fprintf(&sb, "\nno files modified on or after day %d\n", toolsHotFrom)
	} else {
		fmt.Fprintf(&sb, "\nhot set (modified ≥ day %d): %d files, %.1f MB, layout %.3f\n",
			toolsHotFrom, len(hot), float64(layout.TotalBytes(hot))/(1<<20), layout.Aggregate(hot, fpb))
	}
	return sb.String()
}

func (b *toolsBench) simOps(r int) int { return b.nOps[r%len(b.nOps)] }

func (b *toolsBench) check(e *env) ([]verdict, error) {
	for _, s := range b.refSHA[1:] {
		if s != b.refSHA[0] {
			return nil, fmt.Errorf("the seed-%d reference image differs between set-ups", toolsRefSeed)
		}
	}
	var out []verdict
	for r, outs := range b.got {
		for i, op := range b.ops[r] {
			want, got := b.want[r%len(b.want)][op.name], outs[i]
			var es errs
			es.add(want.err)
			es.add(sameText(op.name+" output", got.stdout, want.stdout))
			if got.fileSHA != want.fileSHA {
				es.add(fmt.Errorf("%s wrote %s with SHA-256 %s, want %s", op.name, op.file, got.fileSHA, want.fileSHA))
			}
			v := verdict{op: op.name, err: es.err()}
			v.known = v.err != nil && op.name == knownFault && got.stdout == b.refSeqBad
			out = append(out, v)
		}
	}
	return out, nil
}

func (b *toolsBench) close() {}
