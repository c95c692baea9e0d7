package main

import (
	"bytes"
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
)

// tournamentBench is tournament-quick: every registered policy through
// the tournament at quick scale (128 MB, 12 groups, 60 days), one
// worker, one tournament per round.
type tournamentBench struct {
	listed  string   // the program's -list output
	reports []string // report per round

	want []tournamentModel // per round
}

// tournamentModel is one round's tournament computed in-process.
type tournamentModel struct {
	cfg     experiments.Config
	ops     int
	entries []experiments.TournamentEntry
	images  []*aged
}

func (b *tournamentBench) shape() shape { return shape{setups: 9, inputs: 3} }

// setup starts the program to list its registered policies: process
// start-up and the policy registry's initialization.
func (b *tournamentBench) setup(e *env) (time.Duration, error) {
	out, u, err := e.command("tournament", "-list")
	b.listed = string(out)
	return u.cpu, err
}

func (b *tournamentBench) round(e *env, _ *tracer, r int) (*round, error) {
	path := filepath.Join(e.work, "tournament.txt")
	_, u, err := e.command("tournament", "-quick", "-policies", "all",
		"-seed", strconv.FormatInt(e.roundSeed(r), 10), "-j", "1", "-o", path)
	if err != nil {
		return nil, err
	}
	rd := &round{wall: u.wall}
	rd.addProcess(u)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	b.reports = append(b.reports, string(data))
	return rd, os.Remove(path)
}

func (b *tournamentBench) model(e *env, tr *tracer, n int) error {
	b.want = nil
	for r := 0; r < n; r++ {
		m, err := tournamentRun(tr, experiments.Quick(e.roundSeed(r)))
		if err != nil {
			return err
		}
		b.want = append(b.want, m)
	}
	return nil
}

// tournamentRun ages one image per registered policy, sweeps and
// hot-benches each, and counts its intra-file seeks.
func tournamentRun(tr *tracer, cfg experiments.Config) (tournamentModel, error) {
	m := tournamentModel{cfg: cfg}
	c, err := compose(tr, cfg.WorkloadCfg, cfg.NFSCfg)
	if err != nil {
		return m, err
	}
	days := cfg.WorkloadCfg.Days
	for _, name := range policy.Names() {
		pol, err := policy.New(name)
		if err != nil {
			return m, err
		}
		img, err := replay(tr, policy.Slug(name), cfg.FsParams, pol, c.recon, 0, nil)
		if err != nil {
			return m, fmt.Errorf("%s: %w", name, err)
		}
		m.ops += len(c.recon.Ops)
		start := time.Now()
		end := tr.begin("bench.seq_sweep_s")
		seq, err := bench.SequentialSweep(img.fs, cfg.DiskParams, cfg.BenchSizes, cfg.BenchTotal, days)
		end()
		if err != nil {
			return m, fmt.Errorf("%s sweep: %w", name, err)
		}
		end = tr.begin("bench.hot_s")
		hot, err := bench.HotFiles(img.fs, cfg.DiskParams, days-cfg.HotWindow)
		end()
		if err != nil {
			return m, fmt.Errorf("%s hot files: %w", name, err)
		}
		requests := hot.Disk.Reads + hot.Disk.Writes
		for _, r := range seq {
			requests += r.Disk.Reads + r.Disk.Writes
		}
		tr.add("bench.disk_request_ns", float64(time.Since(start)), float64(requests))
		end = tr.begin("layout.report_s")
		img.seeks = layout.IntraFileSeeks(layout.AllFiles(img.fs), cfg.FsParams.FragsPerBlock())
		end()
		m.images = append(m.images, img)
		first := c.recon.Ops[0].Day
		m.entries = append(m.entries, experiments.TournamentEntry{
			Name: name, LayoutByDay: toSeries(first, img.layout), UtilByDay: toSeries(first, img.util),
			Seeks: img.seeks, Stats: img.fs.Stats, Seq: seq, Hot: hot,
		})
	}
	return m, nil
}

func (b *tournamentBench) simOps(r int) int { return b.want[r%len(b.want)].ops }

func (b *tournamentBench) check(e *env) ([]verdict, error) {
	var out []verdict
	for r, rep := range b.reports {
		m := b.want[r%len(b.want)]
		cfg := m.cfg
		var es errs
		if want := strings.Join(policy.Names(), "\n") + "\n"; b.listed != want {
			es.add(fmt.Errorf("tournament -list printed %q, want %q", b.listed, want))
		}
		rawRead := bench.RawThroughput(cfg.FsParams.SizeBytes, cfg.DiskParams, cfg.BenchTotal, false)
		for i, img := range m.images {
			name := m.entries[i].Name
			if err := checkImage(img.fs); err != nil {
				es.add(fmt.Errorf("%s image: %w", name, err))
			}
			for _, p := range m.entries[i].Seq {
				if p.ReadBps > rawRead {
					es.add(fmt.Errorf("%s sweep at %dK reads %.0f B/s, above the raw device's %.0f", name, p.FileSize>>10, p.ReadBps, rawRead))
				}
			}
		}
		// The report rendered from the independent replays, sweeps and
		// hot benchmarks must be the program's report, byte for byte.
		var want bytes.Buffer
		if err := experiments.RenderTournament(&want, "quick scale", cfg.Seed, cfg.WorkloadCfg.Days, m.entries); err != nil {
			return nil, err
		}
		es.add(sameText("tournament report", rep, want.String()))
		out = append(out, verdict{op: "tournament", err: es.err()})
	}
	return out, nil
}

// sameText reports the first line where got differs from want.
func sameText(what, got, want string) error {
	if got == want {
		return nil
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Errorf("%s line %d is %q, want %q", what, i+1, g[i], w[i])
		}
	}
	return fmt.Errorf("%s has %d lines, want %d", what, len(g), len(w))
}

func (b *tournamentBench) close() {}
