package main

import (
	"fmt"
	"path/filepath"
	"time"

	"palirria/internal/asteal"
	"palirria/internal/core"
	"palirria/internal/experiments"
	"palirria/internal/metrics"
	"palirria/internal/sim"
	"palirria/internal/task"
	"palirria/internal/workload"
)

// simCase is one task tree on one simulated platform, with the figures
// the output checks compare against, computed by walking the tree apart
// from the simulator.
type simCase struct {
	name  string
	plat  experiments.Platform
	ideal bool // ideal machine: compute cycles are exactly the tree's work
	root  *task.Spec
	want  task.Stats
}

func newSimCase(name string, plat experiments.Platform, ideal bool, root *task.Spec) (simCase, error) {
	st, err := task.Measure(root)
	if err != nil {
		return simCase{}, fmt.Errorf("%s: %w", name, err)
	}
	return simCase{name: name, plat: plat, ideal: ideal, root: root, want: st}, nil
}

// simOut is what one sim.Run gave.
type simOut struct {
	wall time.Duration
	rep  *metrics.Report
	evs  int64
}

// runSim runs c under the Palirria estimator with DVS victim selection,
// or under ASTEAL with random victims, and checks the result against the
// tree's own figures.
func runSim(c simCase, palirria bool, seed uint64, o *outcome) (simOut, error) {
	mesh := c.plat.Mesh()
	cfg := sim.Config{
		Mesh:        mesh,
		Source:      c.plat.Source,
		Root:        c.root,
		Machine:     c.plat.Machine(mesh),
		MaxDiaspora: c.plat.MaxDiaspora,
		Quantum:     c.plat.Quantum,
		Seed:        seed,
		Policy:      "random",
		Estimator:   asteal.New(),
	}
	if palirria {
		cfg.Policy, cfg.Estimator = "dvs", core.NewPalirria()
	}
	t0 := time.Now()
	res, err := sim.Run(cfg)
	wall := time.Since(t0)
	if err != nil {
		return simOut{}, fmt.Errorf("sim %s: %w", c.name, err)
	}
	rep := res.Report()
	var compute int64
	for _, ws := range rep.Workers {
		compute += ws.Cycles[metrics.Compute]
	}
	w := c.want
	o.check(rep.TotalTasks == w.Tasks, "sim %s: %d tasks run, tree has %d", c.name, rep.TotalTasks, w.Tasks)
	o.check(res.ExecCycles >= w.Span, "sim %s: %d cycles beat the span %d", c.name, res.ExecCycles, w.Span)
	o.check(rep.MaxWorkers > 0 && res.ExecCycles*int64(rep.MaxWorkers) >= w.Work,
		"sim %s: %d cycles on %d workers beat work %d", c.name, res.ExecCycles, rep.MaxWorkers, w.Work)
	if c.ideal {
		o.check(compute == w.Work, "sim %s: %d compute cycles, tree work %d", c.name, compute, w.Work)
	} else {
		o.check(compute >= w.Work, "sim %s: %d compute cycles below tree work %d", c.name, compute, w.Work)
	}
	return simOut{wall: wall, rep: rep, evs: res.Events}, nil
}

// simPaperCases builds each of the seven paper trees on the 32-core
// simulator platform and on the 48-core NUMA model, one entry per tree.
func simPaperCases() ([][]simCase, error) {
	var out [][]simCase
	for _, d := range workload.PaperSet() {
		var both []simCase
		for _, p := range []struct {
			name  string
			plat  experiments.Platform
			ideal bool
		}{
			{"sim32", experiments.SimPlatform(), true},
			{"numa48", experiments.LinuxPlatform(), false},
		} {
			c, err := newSimCase(p.name+"/"+d.Name, p.plat, p.ideal, d.Root(p.plat.WL))
			if err != nil {
				return nil, err
			}
			both = append(both, c)
		}
		out = append(out, both)
	}
	return out, nil
}

// setupRepeats is how many set-up samples a run takes; setup_s is their
// median.
const setupRepeats = 5

// setupSamples spreads a run's set-up samples over the run. The first is
// the set-up the run uses; each repeat is taken between passes once its
// share of the run has passed, so a slow moment of the host moves one
// sample rather than the run's figure. A traced run takes them all at
// its start.
type setupSamples struct {
	t0    time.Time
	dur   time.Duration
	times []float64
	again func() (time.Duration, error)
}

func newSetupSamples(e *env, first time.Duration, again func() (time.Duration, error)) *setupSamples {
	return &setupSamples{t0: time.Now(), dur: e.dur, times: []float64{float64(first)}, again: again}
}

// step takes the next sample if its time has come.
func (ss *setupSamples) step() error {
	if len(ss.times) >= setupRepeats || time.Since(ss.t0) < time.Duration(len(ss.times))*ss.dur/setupRepeats {
		return nil
	}
	return ss.take()
}

func (ss *setupSamples) take() error {
	d, err := ss.again()
	if err != nil {
		return err
	}
	ss.times = append(ss.times, float64(d))
	return nil
}

// report tops the samples up to setupRepeats and reports their median as
// setup_s.
func (ss *setupSamples) report(o *outcome) error {
	for len(ss.times) < setupRepeats {
		if err := ss.take(); err != nil {
			return err
		}
	}
	o.e2e["setup_s"] = median(ss.times) / 1e9
	return nil
}

// buildSetup builds a workload's inputs and returns them with the run's
// set-up samples, whose repeats build the inputs again.
func buildSetup[T any](e *env, build func() (T, error)) (T, *setupSamples, error) {
	timed := func() (T, time.Duration, error) {
		t0 := time.Now()
		v, err := build()
		return v, time.Since(t0), err
	}
	v, d, err := timed()
	if err != nil {
		return v, nil, err
	}
	return v, newSetupSamples(e, d, func() (time.Duration, error) {
		_, d, err := timed()
		return d, err
	}), nil
}

// simTotals sums the sim per-layer figures over a set of runs.
type simTotals struct {
	wall               time.Duration
	events             int64
	palExec, palArea   int64
	palWasted          int64
	palSteals, palFail int64
	asExec, asArea     int64
	asWasted           int64
}

func (t *simTotals) add(out simOut, palirria bool) {
	t.wall += out.wall
	t.events += out.evs
	r := out.rep
	if palirria {
		t.palExec += r.ExecCycles
		t.palArea += r.WorkerCycleArea
		t.palWasted += r.WastedTotal()
		t.palSteals += r.TotalSteals
		t.palFail += r.TotalFailedProbes
	} else {
		t.asExec += r.ExecCycles
		t.asArea += r.WorkerCycleArea
		t.asWasted += r.WastedTotal()
	}
}

// layer fills the sim per-layer metrics.
func (t *simTotals) layer(o *outcome) {
	o.layer["sim.events"] = float64(t.events)
	if t.events > 0 {
		o.layer["sim.ns_per_event"] = float64(t.wall) / float64(t.events)
	}
	o.layer["sim.palirria.wasted_mcycles"] = float64(t.palWasted) / 1e6
	o.layer["sim.palirria.steals"] = float64(t.palSteals)
	o.layer["sim.palirria.failed_probes"] = float64(t.palFail)
	o.layer["sim.asteal.exec_mcycles"] = float64(t.asExec) / 1e6
	o.layer["sim.asteal.worker_mcycles"] = float64(t.asArea) / 1e6
	o.layer["sim.asteal.wasted_mcycles"] = float64(t.asWasted) / 1e6
}

// twin simulates a workload's own input under Palirria on the 32-core
// simulator platform: the simulated counterpart of the real run, which
// reports the sim end-to-end metrics and per-layer figures. Its cycle
// counts repeat exactly; its wall time is the median repetition. The
// workloads step it between their passes, so its repetitions sample the
// host over the whole run rather than over its last second.
type twin struct {
	cases []simCase
	seed  uint64
	walls []float64
	tot   simTotals
}

// A twin repeats at least twinRepeats times and for twinMinWall in all.
const (
	twinRepeats = 3
	twinMinWall = time.Second
)

// step runs one repetition of every case.
func (t *twin) step(o *outcome, sp *spans) error {
	var wall time.Duration
	for _, c := range t.cases {
		s := sp.begin("sim.Run", -1)
		out, err := runSim(c, true, t.seed, o)
		sp.end(s)
		if err != nil {
			return err
		}
		wall += out.wall
		if len(t.walls) == 0 {
			t.tot.add(out, true)
		}
	}
	t.walls = append(t.walls, float64(wall))
	return nil
}

// report tops the repetitions up to the minimum and fills the metrics.
func (t *twin) report(o *outcome, sp *spans) error {
	for sum(t.walls) < float64(twinMinWall) || len(t.walls) < twinRepeats {
		if err := t.step(o, sp); err != nil {
			return err
		}
	}
	t.tot.wall = time.Duration(median(t.walls))
	o.e2e["sim_exec_mcycles"] = float64(t.tot.palExec) / 1e6
	o.e2e["sim_worker_mcycles"] = float64(t.tot.palArea) / 1e6
	t.tot.layer(o)
	return nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// simSeg is what a stretch of sim-paper passes measured.
type simSeg struct {
	passWalls, passCPU []float64
	jobWalls           []float64
	tot                simTotals
	passes             int
	wall, cpu          time.Duration
	first              *simTotals
}

// wallFigures fills the wall-clock figures of an untraced stretch.
func (s *simSeg) wallFigures(o *outcome) {
	jobLatency(o, s.jobWalls)
	o.layer["jobs_per_s"] = float64(len(s.jobWalls)) / s.wall.Seconds()
	o.layer["pass_ms"] = median(s.passWalls) / 1e6
	// Simulated cycles read as nanoseconds: a nominal 1 GHz clock.
	o.layer["worker_ms_per_pass"] = float64(s.tot.palArea+s.tot.asArea) / 1e6
}

// runSimPaper is the sim-paper workload: passes over the seven paper
// trees under Palirria and ASTEAL on both simulated platforms.
func runSimPaper(e *env) (*outcome, error) {
	o := newOutcome()
	cases, setup, err := buildSetup(e, simPaperCases)
	if err != nil {
		return nil, err
	}
	reportSetup := func() error {
		err := setup.report(o)
		o.layer["workload.build_ms"] = 1e3 * o.e2e["setup_s"]
		return err
	}

	segment := func(d time.Duration, sp *spans) (*simSeg, error) {
		s := &simSeg{}
		t0 := time.Now()
		c0 := selfCPU()
		for s.passes == 0 || time.Since(t0) < d {
			p0, pc0 := time.Now(), selfCPU()
			ps := sp.begin("pass", -1)
			var pt simTotals
			// A job is one paper tree under both estimators on both
			// platforms: seven kinds of job, so the median job is one
			// kind rather than the boundary between two.
			for _, both := range cases {
				js := sp.begin("tree", ps)
				var wall time.Duration
				ok := true
				for _, c := range both {
					for _, pal := range []bool{true, false} {
						rs := sp.begin("sim.Run", js)
						out, err := runSim(c, pal, e.seed, o)
						sp.end(rs)
						if err != nil {
							ok = false
							o.check(false, "%v", err)
							continue
						}
						wall += out.wall
						pt.add(out, pal)
					}
				}
				sp.end(js)
				o.attempted++
				if !ok {
					o.failed++
					continue
				}
				s.jobWalls = append(s.jobWalls, float64(wall))
			}
			sp.end(ps)
			s.passWalls = append(s.passWalls, float64(time.Since(p0)))
			s.passCPU = append(s.passCPU, float64(selfCPU()-pc0))
			if s.first == nil {
				s.first = &pt
			} else {
				// Palirria's victim selection is deterministic: every pass
				// must simulate exactly the same cycles.
				o.check(pt.palExec == s.first.palExec && pt.palArea == s.first.palArea,
					"sim-paper: Palirria cycles differ between passes")
			}
			s.tot = pt
			s.passes++
			if err := setup.step(); err != nil {
				return nil, err
			}
		}
		s.wall, s.cpu = time.Since(t0), selfCPU()-c0
		return s, nil
	}

	if e.traced {
		if err := reportSetup(); err != nil {
			return nil, err
		}
		u, err := segment(e.dur/2, nil)
		if err != nil {
			return nil, err
		}
		sp := newSpans()
		t, err := segment(e.dur/2, sp)
		if err != nil {
			return nil, err
		}
		o.overhead(median(u.passWalls), median(t.passWalls))
		u.wallFigures(o)
		t.tot.wall = time.Duration(median(t.passWalls))
		t.tot.layer(o)
		return o, sp.write(filepath.Join(e.outDir, fmt.Sprintf("spans-sim-paper-%d.json", e.seed)))
	}
	s, err := segment(e.dur, nil)
	if err != nil {
		return nil, err
	}
	if err := reportSetup(); err != nil {
		return nil, err
	}
	s.wallFigures(o)
	o.e2e["sim_exec_mcycles"] = float64(s.tot.palExec) / 1e6
	o.e2e["sim_worker_mcycles"] = float64(s.tot.palArea) / 1e6
	o.e2e["cpu_ms_per_pass"] = median(s.passCPU) / 1e6
	o.e2e["cpu_ms_per_job"] = ms(s.cpu) / float64(len(s.jobWalls))
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	o.e2e["rss_mb"] = rss
	return o, nil
}

// jobLatency reports job_p50_ms and job_p99_ms, among the per-layer
// metrics, from the per-job nanoseconds of an untraced stretch.
func jobLatency(o *outcome, ns []float64) {
	o.layer["job_p50_ms"] = median(ns) / 1e6
	o.layer["job_p99_ms"] = tailPercentile(ns) / 1e6
}
