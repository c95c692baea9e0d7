package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"time"

	"ffsage/internal/aging"
	"ffsage/internal/ffs"
	"ffsage/internal/layout"
	"ffsage/internal/stats"
	"ffsage/internal/trace"
	"ffsage/internal/workload"
)

// composed is a workload built stage by stage from the workload
// layer's public functions, the way the paper's method builds it.
type composed struct {
	ref   *workload.ReferenceResult
	days  []trace.TraceDay
	recon *trace.Workload
}

// compose generates the reference system's history, the synthetic NFS
// trace, the snapshot diff and the merge. The seed offsets are those
// the method documents for the differ and the merger.
func compose(tr *tracer, wc workload.Config, nc workload.NFSTraceConfig) (*composed, error) {
	var c composed
	var err error
	end := tr.begin("workload.generate_s")
	c.ref, err = workload.GenerateReference(wc)
	end()
	if err != nil {
		return nil, err
	}
	end = tr.begin("workload.nfstrace_s")
	c.days, err = workload.GenerateNFSTrace(nc)
	end()
	if err != nil {
		return nil, err
	}
	end = tr.begin("workload.diff_s")
	diffed, err := workload.Diff(c.ref.Snapshots, wc.NumCg, wc.InodesPerGroup, rand.New(rand.NewSource(wc.Seed+101)))
	end()
	if err != nil {
		return nil, err
	}
	end = tr.begin("workload.merge_s")
	c.recon, err = workload.Merge(diffed, c.days, wc.NumCg, rand.New(rand.NewSource(wc.Seed+202)))
	end()
	if err != nil {
		return nil, err
	}
	return &c, nil
}

// checkBuild checks that the stage-by-stage workload hashes equal
// workload.BuildWorkload's.
func (c *composed) checkBuild(wc workload.Config, nc workload.NFSTraceConfig) error {
	b, err := workload.BuildWorkload(wc, nc)
	if err != nil {
		return err
	}
	if got, want := trace.HashWorkload(b.Reconstructed), trace.HashWorkload(c.recon); got != want {
		return fmt.Errorf("BuildWorkload's reconstructed workload hashes %016x, the composed one %016x", got, want)
	}
	if got, want := trace.HashWorkload(b.Reference.GroundTruth), trace.HashWorkload(c.ref.GroundTruth); got != want {
		return fmt.Errorf("BuildWorkload's ground truth hashes %016x, the composed one %016x", got, want)
	}
	return nil
}

// aged is one replay's outcome.
type aged struct {
	fs      *ffs.FileSystem
	layout  []float64 // end-of-day layout score
	util    []float64
	skipped int
	nospace int
	seeks   int // intra-file seeks, when the workload reports them
}

// replay ages a fresh file system through wl. Untraced it is a plain
// aging.Replay. Traced, it applies the ops one at a time through
// aging.Stepper and closes each simulated day as aging.Replay does, so
// host time per op kind and per day can be measured; every checkpointEvery
// days it saves a checkpoint through sink. Series and image are the
// same either way, which the checks confirm against the program.
func replay(tr *tracer, arm string, p ffs.Params, pol ffs.Policy, wl *trace.Workload,
	checkpointEvery int, sink func(*trace.Checkpoint) error) (*aged, error) {
	defer tr.beginAlso("aging.replay_s", "aging.replay_s."+arm)()
	if tr == nil {
		res, err := aging.Replay(p, pol, wl, aging.Options{})
		if err != nil {
			return nil, err
		}
		return &aged{fs: res.Fs, layout: res.LayoutByDay.Values(), util: res.UtilByDay.Values(),
			skipped: res.SkippedOps, nospace: res.NoSpaceOps}, nil
	}

	fsys, err := ffs.NewFileSystem(p, pol)
	if err != nil {
		return nil, err
	}
	st, err := aging.NewStepper(fsys)
	if err != nil {
		return nil, err
	}
	out := &aged{fs: fsys}
	var wlHash uint64
	if sink != nil {
		wlHash = trace.HashWorkload(wl)
	}
	var opTime [trace.OpRewrite + 1]time.Duration
	var opCount [trace.OpRewrite + 1]int
	var scoreTime time.Duration
	day := wl.Ops[0].Day
	dayStart := time.Now()
	endDay := func(nextOp int) error {
		t0 := time.Now()
		score, util := fsys.LayoutScore(), fsys.Utilization()
		scoreTime += time.Since(t0)
		out.layout = append(out.layout, score)
		out.util = append(out.util, util)
		tr.sample("aging.day_ms", float64(time.Since(dayStart))/1e6)
		if checkpointEvery > 0 && (day+1)%checkpointEvery == 0 {
			cp := &trace.Checkpoint{
				Day: day, NextOp: nextOp,
				SkippedOps: int64(st.Skipped), NoSpaceOps: int64(st.NoSpace),
				LayoutByDay: append([]float64(nil), out.layout...), UtilByDay: append([]float64(nil), out.util...),
				WorkloadHash: wlHash,
			}
			var img bytes.Buffer
			end := tr.begin("ffs.save_image_ms")
			err := fsys.SaveImage(&img)
			end()
			if err != nil {
				return err
			}
			cp.Image = img.Bytes()
			if err := sink(cp); err != nil {
				return err
			}
		}
		dayStart = time.Now()
		return nil
	}
	for i, op := range wl.Ops {
		for day < op.Day {
			if err := endDay(i); err != nil {
				return nil, err
			}
			day++
		}
		t0 := time.Now()
		if err := st.Apply(op); err != nil {
			return nil, err
		}
		opTime[op.Kind] += time.Since(t0)
		opCount[op.Kind]++
	}
	for ; day < wl.Days; day++ {
		if err := endDay(len(wl.Ops)); err != nil {
			return nil, err
		}
	}
	for k := trace.OpCreate; k <= trace.OpRewrite; k++ {
		tr.add(opMetric(k), float64(opTime[k]), float64(opCount[k]))
	}
	tr.add("ffs.layout_score_ns", float64(scoreTime), float64(len(out.layout)))
	tr.add("aging.ops", 0, float64(len(wl.Ops)))
	out.skipped, out.nospace = st.Skipped, st.NoSpace
	return out, nil
}

// toSeries numbers a day-by-day series from its first day.
func toSeries(first int, vs []float64) stats.Series {
	s := make(stats.Series, len(vs))
	for i, v := range vs {
		s[i] = stats.TimePoint{Day: first + i, Value: v}
	}
	return s
}

// checkImage checks an aged image's consistency and that its
// incrementally kept layout score equals a full rescan.
func checkImage(fsys *ffs.FileSystem) error {
	if err := fsys.Check(); err != nil {
		return fmt.Errorf("Check: %w", err)
	}
	inc, scan := fsys.LayoutScore(), layout.FsAggregate(fsys)
	if math.Abs(inc-scan) > 1e-9 {
		return fmt.Errorf("incremental layout score %.12f, rescan %.12f", inc, scan)
	}
	return nil
}

// saveImage serializes an image and returns it with its SHA-256.
func saveImage(tr *tracer, fsys *ffs.FileSystem) ([]byte, string, error) {
	var buf bytes.Buffer
	end := tr.begin("ffs.save_image_ms")
	err := fsys.SaveImage(&buf)
	end()
	if err != nil {
		return nil, "", err
	}
	tr.add("ffs.image_kb", float64(buf.Len())/1024, 1)
	return buf.Bytes(), sha(buf.Bytes()), nil
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// sameSeries reports the first day on which two series differ.
func sameSeries(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d days, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: day %d is %v, want %v", what, i+1, got[i], want[i])
		}
	}
	return nil
}
