package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"ffsage/internal/aging"
	"ffsage/internal/ffs"
	"ffsage/internal/jobs"
	"ffsage/internal/obs"
	"ffsage/internal/policy"
	"ffsage/internal/queue"
	"ffsage/internal/trace"
	"ffsage/internal/workload"
)

// agesrvBench is agesrv-jobs: the daemon on its WAL queue in a fresh
// state directory with one worker, driven over HTTP by one closed-loop
// client that submits a fixed list of small jobs, waits for each, and
// fetches its result and image.
type agesrvBench struct {
	srv     *server
	specs   [][]jobs.Spec   // per round, the job list
	fetched [][]fetchedJob  // per round, per job
	httpLat []float64       // round 0: per-job latency, seconds
	want    [][]modelJob    // per round, per job
	fastest []time.Duration // per job of a round, its lowest latency so far
}

// fetchedJob is what the client got back for one job.
type fetchedJob struct {
	state    string
	attempt  int
	result   jobs.Result
	imageSHA string
	imageLen int
}

// modelJob is the in-process computation of one job.
type modelJob struct {
	res      *aged
	imageSHA string
	imageLen int
	files    int
	ops      int // workload ops replayed
}

// jobSpecs is the fixed job list of a round: every registered policy
// once, on 64 MiB / 8-group and 128 MiB / 16-group file systems in
// turn, each on its own seed, aged 60 days with daily checkpoints.
// checkpoint_days is explicit because Spec.Normalize leaves 0 (no
// periodic checkpoints), not the documented default of 1.
func jobSpecs(seed int64) []jobs.Spec {
	var specs []jobs.Spec
	for k, name := range policy.Names() {
		sp := jobs.Spec{Policy: name, Days: 60, Seed: seed*100 + int64(k), CheckpointDays: 1,
			NumCg: 8, FsBytes: 64 << 20}
		if k%2 == 1 {
			sp.NumCg, sp.FsBytes = 16, 128<<20
		}
		specs = append(specs, sp)
	}
	return specs
}

func (b *agesrvBench) shape() shape { return shape{setups: 30, inputs: 3, tracedRound: true} }

// setup starts a daemon on a fresh state directory and measures its
// CPU time until /readyz answers 200. The previous set-up's daemon is
// stopped first, outside the measurement.
func (b *agesrvBench) setup(e *env) (time.Duration, error) {
	if b.srv != nil {
		if _, err := b.srv.stop(); err != nil {
			return 0, err
		}
		b.srv = nil
	}
	dir := filepath.Join(e.work, "agesrv-state")
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	srv, cpu, err := startServer(e, dir)
	b.srv = srv
	return cpu, err
}

func (b *agesrvBench) round(e *env, tr *tracer, r int) (*round, error) {
	if b.srv == nil {
		return nil, fmt.Errorf("agesrv is not running")
	}
	pid := b.srv.cmd.Process.Pid
	cpu0 := schedCPU(pid)
	ivcs0, _ := procStat(pid)
	start := time.Now()
	rd := &round{}
	var got []fetchedJob
	specs := jobSpecs(e.roundSeed(r))
	if b.fastest == nil {
		b.fastest = make([]time.Duration, len(specs))
	}
	for i := range specs {
		end := tr.begin("jobs.http_s")
		f, lat, err := b.srv.job(&specs[i], b.fastest[i]*idleShare/100)
		end()
		if err != nil {
			return nil, err
		}
		if b.fastest[i] == 0 || lat < b.fastest[i] {
			b.fastest[i] = lat
		}
		got = append(got, f)
		rd.latencies = append(rd.latencies, lat.Seconds())
	}
	rd.wall = time.Since(start)
	cpu1 := schedCPU(pid)
	ivcs1, peak := procStat(pid)
	rd.cpu, rd.nivcsw, rd.maxRSS = cpu1-cpu0, ivcs1-ivcs0, peak
	b.specs = append(b.specs, specs)
	b.fetched = append(b.fetched, got)
	if r == 0 {
		b.httpLat = rd.latencies
	}
	return rd, nil
}

// model computes each job in-process. Untraced it is a plain replay of
// the spec's ground-truth stream without checkpoints. Traced it follows
// the daemon's steps: queue transitions on a WAL, the replay with its
// daily checkpoints written atomically, the artifacts and their fsyncs.
func (b *agesrvBench) model(e *env, tr *tracer, n int) error {
	var wal *queue.WAL
	if tr != nil {
		dir := filepath.Join(e.work, "model-state")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		var err error
		if wal, err = queue.Open(filepath.Join(dir, "queue.wal")); err != nil {
			return err
		}
		defer wal.Close()
	}
	b.want = make([][]modelJob, n)
	for r := range b.want {
		for i, sp := range jobSpecs(e.roundSeed(r)) {
			m, err := b.modelJob(e, tr, wal, r, i, sp)
			if err != nil {
				return fmt.Errorf("round %d job %d (%s): %w", r, i, sp.Policy, err)
			}
			b.want[r] = append(b.want[r], m)
		}
	}
	return nil
}

// modelJob computes job i of round r, and when traced the queue
// transitions around it and the job's latency not covered by its layers.
func (b *agesrvBench) modelJob(e *env, tr *tracer, wal *queue.WAL, r, i int, sp jobs.Spec) (modelJob, error) {
	start := time.Now()
	id := fmt.Sprintf("model-%03d-%03d", r, i)
	if wal != nil {
		spec, err := json.Marshal(sp)
		if err != nil {
			return modelJob{}, err
		}
		end := tr.begin("queue.transition_ms")
		err = wal.Enqueue(id, spec)
		if err == nil {
			_, _, err = wal.Dequeue()
		}
		end()
		if err != nil {
			return modelJob{}, err
		}
	}
	m, err := modelJobRun(tr, e.work, sp)
	if err != nil || wal == nil {
		return m, err
	}
	end := tr.begin("queue.transition_ms")
	err = wal.Ack(id)
	end()
	if r == 0 && i < len(b.httpLat) {
		tr.add("jobs.overhead_ms", (b.httpLat[i]-time.Since(start).Seconds())*1e3, 1)
	}
	return m, err
}

// modelJobRun computes one job from its spec, as the daemon defines it:
// the workload is the spec's ground-truth stream, the file system the
// paper's parameters at the spec's size and group count.
func modelJobRun(tr *tracer, work string, sp jobs.Spec) (modelJob, error) {
	if err := sp.Normalize(); err != nil {
		return modelJob{}, err
	}
	pol, err := policy.Resolve(sp.Policy)
	if err != nil {
		return modelJob{}, err
	}
	wc := workload.DefaultConfig(sp.Seed)
	wc.Days, wc.NumCg, wc.FsBytes = sp.Days, sp.NumCg, sp.FsBytes
	wc.ChurnBytesPerDay, wc.ShortPairsPerDay, wc.LongSize.MaxBytes = sp.ChurnBytesPerDay, sp.ShortPairsPerDay, sp.LongMaxBytes
	end := tr.begin("workload.generate_s")
	ref, err := workload.GenerateReference(wc)
	end()
	if err != nil {
		return modelJob{}, err
	}
	wl := ref.GroundTruth
	p := ffs.PaperParams()
	p.SizeBytes, p.NumCg = sp.FsBytes, sp.NumCg

	dir := filepath.Join(work, "model-job")
	var sink func(*trace.Checkpoint) error
	if tr != nil {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return modelJob{}, err
		}
		sink = func(cp *trace.Checkpoint) error {
			var buf bytes.Buffer
			end := tr.begin("trace.checkpoint_encode_ms")
			err := trace.WriteCheckpoint(&buf, cp)
			end()
			if err != nil {
				return err
			}
			return writeDurable(tr, filepath.Join(dir, "checkpoint.ffc"), buf.Bytes())
		}
	}
	res, err := replay(tr, policy.Slug(pol.Name()), p, pol, wl, sp.CheckpointDays, sink)
	if err != nil {
		return modelJob{}, err
	}
	img, sum, err := saveImage(tr, res.fs)
	if err != nil {
		return modelJob{}, err
	}
	m := modelJob{res: res, imageSHA: sum, imageLen: len(img), files: res.fs.FileCount(), ops: len(wl.Ops)}
	if tr == nil {
		return m, nil
	}

	// The daemon's artifacts: the deterministic snapshots from a fresh
	// registry, then every file written durably.
	end = tr.begin("obs.publish_ms")
	reg := obs.NewRegistry()
	first := wl.Ops[0].Day
	aging.PublishResult(reg.Scope("job"), &aging.Result{Fs: res.fs, LayoutByDay: toSeries(first, res.layout),
		UtilByDay: toSeries(first, res.util), SkippedOps: res.skipped, NoSpaceOps: res.nospace}, wl)
	var ev, met, sps bytes.Buffer
	err = reg.WriteEvents(&ev)
	if err == nil {
		err = reg.WriteMetrics(&met)
	}
	if err == nil {
		err = reg.WriteSpans(&sps)
	}
	end()
	if err != nil {
		return modelJob{}, err
	}
	tr.add("obs.spans_kb", float64(sps.Len())/1024, 1)
	rj, err := json.MarshalIndent(jobs.Result{Policy: sp.Policy, Days: wl.Days, FinalLayout: last(res.layout),
		FinalUtil: last(res.util), FileCount: m.files, SkippedOps: res.skipped, NoSpaceOps: res.nospace,
		LayoutByDay: res.layout, UtilByDay: res.util, ImageBytes: len(img), ImageSHA256: sum}, "", "  ")
	if err != nil {
		return modelJob{}, err
	}
	for _, f := range []struct {
		name string
		data []byte
	}{{"image.ffi", img}, {"events.jsonl", ev.Bytes()}, {"metrics.txt", met.Bytes()},
		{"spans.jsonl", sps.Bytes()}, {"result.json", rj}} {
		if err := writeDurable(tr, filepath.Join(dir, f.name), f.data); err != nil {
			return modelJob{}, err
		}
	}
	return m, os.RemoveAll(dir)
}

// writeDurable writes a file the way the daemon persists artifacts:
// a temporary file, fsync, rename.
func writeDurable(tr *tracer, path string, data []byte) error {
	defer tr.begin("jobs.fsync_ms")()
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func (b *agesrvBench) simOps(r int) int {
	n := 0
	for _, m := range b.want[r%len(b.want)] {
		n += m.ops
	}
	return n
}

func (b *agesrvBench) check(e *env) ([]verdict, error) {
	var out []verdict
	for r, got := range b.fetched {
		for i, f := range got {
			var es errs
			m := b.want[r%len(b.want)][i]
			if err := checkImage(m.res.fs); err != nil {
				es.add(fmt.Errorf("in-process image: %w", err))
			}
			if f.state != "done" || f.attempt != 1 {
				es.add(fmt.Errorf("job ended %s on attempt %d, want done on attempt 1", f.state, f.attempt))
			}
			if f.imageSHA != f.result.ImageSHA256 {
				es.add(fmt.Errorf("fetched image hashes %s, result says %s", f.imageSHA, f.result.ImageSHA256))
			}
			if f.imageSHA != m.imageSHA || f.imageLen != m.imageLen || f.result.ImageBytes != m.imageLen {
				es.add(fmt.Errorf("fetched image (%d bytes, %s) is not the in-process replay's (%d bytes, %s)",
					f.imageLen, f.imageSHA, m.imageLen, m.imageSHA))
			}
			es.add(sameSeries("layout_by_day", f.result.LayoutByDay, m.res.layout))
			es.add(sameSeries("util_by_day", f.result.UtilByDay, m.res.util))
			if f.result.FileCount != m.files || f.result.SkippedOps != m.res.skipped || f.result.NoSpaceOps != m.res.nospace {
				es.add(fmt.Errorf("result counts files %d, skipped %d, nospace %d; want %d, %d, %d",
					f.result.FileCount, f.result.SkippedOps, f.result.NoSpaceOps, m.files, m.res.skipped, m.res.nospace))
			}
			out = append(out, verdict{op: "job " + b.specs[r][i].Policy, err: es.err()})
		}
	}
	return out, nil
}

func (b *agesrvBench) close() {
	if b.srv != nil {
		if _, err := b.srv.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: stopping agesrv:", err)
		}
		b.srv = nil
	}
}

// server is a running agesrv.
type server struct {
	cmd    *exec.Cmd
	base   string
	done   chan struct{}
	client *http.Client
}

// startServer starts agesrv on a free loopback port and returns once
// /readyz answers 200, with the daemon's CPU time up to then.
func startServer(e *env, dir string) (*server, time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.Create(dir + ".log")
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(filepath.Join(e.bin, "agesrv"), "-dir", dir, "-addr", addr, "-workers", "1")
	cmd.Stdout, cmd.Stderr = logf, logf
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan struct{}),
		client: &http.Client{Timeout: 60 * time.Second}}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		_ = cmd.Wait() // the exit status is read from ProcessState after done closes
		close(s.done)
	}()
	for {
		resp, err := s.client.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, schedCPU(cmd.Process.Pid), nil
			}
		}
		// Poll again at once: a sleep here would be a sizeable share of
		// the few milliseconds set-up takes.
		select {
		case <-s.done:
			return nil, 0, fmt.Errorf("agesrv exited before it was ready (log in %s.log)", dir)
		default:
		}
		if time.Since(start) > 30*time.Second {
			_, _ = s.stop()
			return nil, 0, fmt.Errorf("agesrv not ready after 30 s")
		}
	}
}

// stop sends SIGTERM, waits for the daemon to drain and exit (killing
// it after 20 s), and returns its resource usage.
func (s *server) stop() (usage, error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return usage{}, err
	}
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill() // a hung drain: the wait below reaps it
		<-s.done
	}
	var u usage
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		u.maxRSS, u.nivcsw = ru.Maxrss, ru.Nivcsw
	}
	if !s.cmd.ProcessState.Success() {
		return u, fmt.Errorf("agesrv exited with %v", s.cmd.ProcessState)
	}
	return u, nil
}

// pollInterval paces the client's status polls while a job runs: fine
// enough to add at most 2 ms to a job's latency, where the daemon's
// follow stream would add up to 50 ms.
const pollInterval = 2 * time.Millisecond

// idleShare is the percentage of the same job's lowest latency so far
// in the run that the client waits before it starts polling. Each poll
// is a request the daemon serves and logs beside the running job; a
// job polled from its start would draw some 150 of them. A job that
// ends before the first poll would have its latency overstated, which
// takes a job 30% faster than any earlier run of it in the run.
const idleShare = 70

// job submits one spec, waits idle before it starts polling the job's
// status, and fetches the result (where the latency ends) and the image.
func (s *server) job(sp *jobs.Spec, idle time.Duration) (fetchedJob, time.Duration, error) {
	var f fetchedJob
	body, err := json.Marshal(sp)
	if err != nil {
		return f, 0, err
	}
	start := time.Now()
	var sub struct{ ID string }
	if err := s.call("POST", "/jobs", body, http.StatusCreated, &sub); err != nil {
		return f, 0, err
	}
	time.Sleep(idle - time.Since(start))
	for {
		var st struct {
			State   string
			Attempt int
		}
		if err := s.call("GET", "/jobs/"+sub.ID, nil, http.StatusOK, &st); err != nil {
			return f, 0, err
		}
		if st.State != "pending" && st.State != "running" {
			f.state, f.attempt = st.State, st.Attempt
			break
		}
		time.Sleep(pollInterval)
	}
	if f.state != "done" {
		return f, time.Since(start), nil
	}
	if err := s.call("GET", "/jobs/"+sub.ID+"/result", nil, http.StatusOK, &f.result); err != nil {
		return f, 0, err
	}
	lat := time.Since(start)
	var img []byte
	if err := s.call("GET", "/jobs/"+sub.ID+"/image", nil, http.StatusOK, &img); err != nil {
		return f, 0, err
	}
	f.imageSHA, f.imageLen = sha(img), len(img)
	return f, lat, nil
}

// call makes one request and decodes a JSON answer into out, or keeps
// the raw body when out is a *[]byte.
func (s *server) call(method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if raw, ok := out.(*[]byte); ok {
		*raw = data
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}
