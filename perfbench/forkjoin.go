package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"palirria/internal/core"
	"palirria/internal/experiments"
	"palirria/internal/topo"
	"palirria/internal/workload"
	"palirria/internal/wsrt"
)

// Computed programs of the forkjoin pass, beside the paper's trees.
const (
	fibN      = 32
	fibCutoff = 18 // below it fib recurses sequentially
	sortLen   = 1 << 18
	sortCut   = 256

	// treeTimeout bounds one tree; a tree that overruns it counts as
	// failed and the pass moves on with a fresh runtime.
	treeTimeout = 30 * time.Second
)

// fjTree is one program of the forkjoin pass. fn builds a fresh root for
// each run and the check of that run's output (nil for the paper trees,
// which compute nothing).
type fjTree struct {
	name  string
	tasks int64 // 1 + spawned children, counted apart from the runtime
	fn    func() (wsrt.Func, func() error)
}

// forkjoinInputs builds the pass: the seven paper trees (Simulator
// inputs), a fib through wsrt.Go futures, and a merge sort of a seeded
// array. It also returns the paper trees as sim cases for the twin.
func forkjoinInputs(seed uint64) ([]fjTree, []simCase, error) {
	var trees []fjTree
	var cases []simCase
	plat := experiments.SimPlatform()
	for _, d := range workload.PaperSet() {
		c, err := newSimCase("sim32/"+d.Name, plat, true, d.Root(workload.Simulator))
		if err != nil {
			return nil, nil, err
		}
		cases = append(cases, c)
		root := c.root
		trees = append(trees, fjTree{
			name:  d.Name,
			tasks: 1 + c.want.Spawns,
			fn:    func() (wsrt.Func, func() error) { return wsrt.SpecFunc(root), nil },
		})
	}
	trees = append(trees, fjTree{
		name:  "fib-futures",
		tasks: 1 + fibSpawns(fibN),
		fn: func() (wsrt.Func, func() error) {
			var got int64
			return func(c *wsrt.Ctx) { got = fibFuture(c, fibN) }, func() error {
				if want := fibIter(fibN); got != want {
					return fmt.Errorf("fib(%d) = %d, want %d", fibN, got, want)
				}
				return nil
			}
		},
	})
	r := newRand(seed, 2)
	input := make([]int, sortLen)
	for i := range input {
		input[i] = int(r.Int64())
	}
	inHash := multisetHash(input)
	trees = append(trees, fjTree{
		name:  "mergesort",
		tasks: 1 + sortSpawns(sortLen),
		fn: func() (wsrt.Func, func() error) {
			data := append([]int(nil), input...)
			return wsrt.ParallelMergeSort(data, sortCut), func() error {
				if !sort.IntsAreSorted(data) {
					return fmt.Errorf("merge sort output is not ordered")
				}
				if multisetHash(data) != inHash {
					return fmt.Errorf("merge sort output is not a permutation of its input")
				}
				return nil
			}
		},
	})
	return trees, cases, nil
}

func fibFuture(c *wsrt.Ctx, n int) int64 {
	if n < fibCutoff {
		return fibSeq(n)
	}
	f := wsrt.Go(c, func(cc *wsrt.Ctx) int64 { return fibFuture(cc, n-1) })
	b := fibFuture(c, n-2)
	return f.Join(c) + b
}

func fibSeq(n int) int64 {
	if n < 2 {
		return int64(n)
	}
	return fibSeq(n-1) + fibSeq(n-2)
}

func fibIter(n int) int64 {
	a, b := int64(0), int64(1)
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return a
}

// fibSpawns counts the futures fibFuture(n) creates.
func fibSpawns(n int) int64 {
	if n < fibCutoff {
		return 0
	}
	return 1 + fibSpawns(n-1) + fibSpawns(n-2)
}

// sortSpawns counts the spawns wsrt.ParallelMergeSort makes on n
// elements: every range above the cut-off spawns its lower half.
func sortSpawns(n int) int64 {
	if n <= sortCut {
		return 0
	}
	return 1 + sortSpawns(n/2) + sortSpawns(n-n/2)
}

// multisetHash is an order-independent hash of the values in xs that
// still counts repeats: a sum of mixed values.
func multisetHash(xs []int) uint64 {
	var h uint64
	for _, x := range xs {
		v := uint64(x) + 0x9e3779b97f4a7c15
		v = (v ^ v>>30) * 0xbf58476d1ce4e5b9
		v = (v ^ v>>27) * 0x94d049bb133111eb
		h += v ^ v>>31
	}
	return h
}

// fjStats accumulates a forkjoin segment.
type fjStats struct {
	treeWalls, passWalls, passCPU, passWorker []float64
	startNS, shutdownNS                       []float64
	trees                                     int
	wall, cpu                                 time.Duration
	useful, search, idle                      int64
	parks, wakeups                            int64
	steals, probes, shardSteals               int64
	areaNS, rtWallNS                          int64
	desireSum, decisions                      int64
}

// runTree runs one tree through a fresh runtime: New, Start, Submit, wait
// for onDone, Shutdown. The wall time covers New until Shutdown returns.
func runTree(tr fjTree, nproc int, st *fjStats, o *outcome, sp *spans, parent int) (time.Duration, bool) {
	fn, verify := tr.fn()
	t0 := time.Now()
	s := sp.begin("wsrt.New+Start", parent)
	rt, err := wsrt.New(wsrt.Config{Mesh: topo.MustMesh(nproc), Estimator: core.NewPalirria()})
	if err == nil {
		err = rt.Start()
	}
	sp.end(s)
	st.startNS = append(st.startNS, float64(time.Since(t0)))
	if err != nil {
		o.check(false, "%s: start: %v", tr.name, err)
		return 0, false
	}
	done := make(chan struct{})
	s = sp.begin("wsrt.Submit", parent)
	err = rt.Submit(fn, func() { close(done) })
	sp.end(s)
	if err != nil {
		o.check(false, "%s: submit: %v", tr.name, err)
		rt.Shutdown() //nolint:errcheck // the runtime is abandoned
		return 0, false
	}
	s = sp.begin("wsrt.run", parent)
	timer := time.NewTimer(treeTimeout)
	select {
	case <-done:
		timer.Stop()
	case <-timer.C:
		sp.end(s)
		// The runtime may be wedged; shut it down without waiting.
		go rt.Shutdown() //nolint:errcheck
		fmt.Printf("forkjoin: %s timed out after %v\n", tr.name, treeTimeout)
		return 0, false
	}
	sp.end(s)
	s = sp.begin("wsrt.Shutdown", parent)
	t1 := time.Now()
	rep, err := rt.Shutdown()
	st.shutdownNS = append(st.shutdownNS, float64(time.Since(t1)))
	sp.end(s)
	wall := time.Since(t0)
	if err != nil {
		o.check(false, "%s: shutdown: %v", tr.name, err)
		return 0, false
	}
	if verify != nil {
		if err := verify(); err != nil {
			o.check(false, "%s: %v", tr.name, err)
		}
	}
	var tasks int64
	for id, w := range rep.Workers {
		tasks += w.Tasks
		o.check(w.UsefulNS+w.SearchNS+w.IdleNS <= rep.WallNS,
			"%s: worker %d accounts %d ns in a %d ns run", tr.name, id, w.UsefulNS+w.SearchNS+w.IdleNS, rep.WallNS)
		st.useful += w.UsefulNS
		st.search += w.SearchNS
		st.idle += w.IdleNS
		st.steals += w.Steals
		st.probes += w.FailedProbes
		st.shardSteals += w.ShardSteals
	}
	o.check(tasks == tr.tasks, "%s: runtime ran %d tasks, tree spawns %d", tr.name, tasks, tr.tasks)
	parks, wakeups := rt.IdleStats()
	st.parks += parks
	st.wakeups += wakeups
	area := rep.Timeline.Area(rep.WallNS)
	st.areaNS += area
	st.rtWallNS += rep.WallNS
	for _, d := range rep.Decisions.Decisions() {
		st.desireSum += int64(d.Desired)
		st.decisions++
	}
	st.treeWalls = append(st.treeWalls, float64(wall))
	st.trees++
	return time.Duration(area), true
}

// runForkJoin is the forkjoin workload: whole passes over the trees, each
// tree on a fresh runtime entered through Submit.
//
// It does not use Runtime.Run: Run seeds its root from the caller's
// goroutine with an owner-only deque push that races the source worker's
// pop, and about one call in 2000 never starts its root (the lost-root
// race). At hundreds of trees per run that would make the failed count
// noise; Submit goes through the injection shards instead.
func runForkJoin(e *env) (*outcome, error) {
	o := newOutcome()
	type inputs struct {
		trees []fjTree
		cases []simCase
	}
	in, setup, err := buildSetup(e, func() (inputs, error) {
		t, c, err := forkjoinInputs(e.seed)
		return inputs{t, c}, err
	})
	if err != nil {
		return nil, err
	}
	reportSetup := func() error {
		err := setup.report(o)
		o.layer["workload.build_ms"] = 1e3 * o.e2e["setup_s"]
		return err
	}

	tw := &twin{cases: in.cases, seed: e.seed}
	// segment runs whole passes for d, stepping the twin and the set-up
	// samples between passes; wall and CPU cover the passes only.
	segment := func(d time.Duration, sp *spans) (*fjStats, error) {
		st := &fjStats{}
		t0 := time.Now()
		for passes := 0; passes == 0 || time.Since(t0) < d; passes++ {
			pc0 := selfCPU()
			ps := sp.begin("pass", -1)
			var worker, walls time.Duration
			for _, tr := range in.trees {
				ts := sp.begin("tree", ps)
				tw0 := time.Now()
				area, ok := runTree(tr, e.nproc, st, o, sp, ts)
				sp.end(ts)
				walls += time.Since(tw0)
				o.attempted++
				if !ok {
					o.failed++
				}
				worker += area
			}
			sp.end(ps)
			cpu := selfCPU() - pc0
			st.wall += walls
			st.cpu += cpu
			st.passWalls = append(st.passWalls, float64(walls))
			st.passCPU = append(st.passCPU, float64(cpu))
			st.passWorker = append(st.passWorker, float64(worker))
			if err := tw.step(o, sp); err != nil {
				return nil, err
			}
			if err := setup.step(); err != nil {
				return nil, err
			}
		}
		return st, nil
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
		t.startNS, t.shutdownNS = sp.durations("wsrt.New+Start"), sp.durations("wsrt.Shutdown")
		t.layer(o)
		if err := tw.report(o, sp); err != nil {
			return nil, err
		}
		return o, sp.write(filepath.Join(e.outDir, fmt.Sprintf("spans-forkjoin-%d.json", e.seed)))
	}
	st, err := segment(e.dur, nil)
	if err != nil {
		return nil, err
	}
	if err := reportSetup(); err != nil {
		return nil, err
	}
	st.wallFigures(o)
	o.e2e["cpu_ms_per_job"] = ms(st.cpu) / float64(st.trees)
	o.e2e["cpu_ms_per_pass"] = median(st.passCPU) / 1e6
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	o.e2e["rss_mb"] = rss
	return o, tw.report(o, nil)
}

// wallFigures fills the wall-clock figures of an untraced segment.
func (st *fjStats) wallFigures(o *outcome) {
	jobLatency(o, st.treeWalls)
	o.layer["jobs_per_s"] = float64(st.trees) / st.wall.Seconds()
	o.layer["pass_ms"] = median(st.passWalls) / 1e6
	o.layer["worker_ms_per_pass"] = median(st.passWorker) / 1e6
}

// layer fills the wsrt and core per-layer metrics of a traced segment.
func (st *fjStats) layer(o *outcome) {
	n := float64(st.trees)
	if n == 0 {
		return
	}
	o.layer["wsrt.useful_ms_per_job"] = float64(st.useful) / 1e6 / n
	o.layer["wsrt.search_ms_per_job"] = float64(st.search) / 1e6 / n
	o.layer["wsrt.idle_ms_per_job"] = float64(st.idle) / 1e6 / n
	o.layer["wsrt.parks_per_job"] = float64(st.parks) / n
	o.layer["wsrt.wakeups_per_job"] = float64(st.wakeups) / n
	o.layer["wsrt.steals_per_job"] = float64(st.steals) / n
	o.layer["wsrt.failed_probes_per_job"] = float64(st.probes) / n
	if st.steals+st.probes > 0 {
		o.layer["wsrt.steal_hit_ratio"] = float64(st.steals) / float64(st.steals+st.probes)
	}
	o.layer["wsrt.shard_steals_per_job"] = float64(st.shardSteals) / n
	o.layer["wsrt.start_us"] = median(st.startNS) / 1e3
	o.layer["wsrt.shutdown_us"] = median(st.shutdownNS) / 1e3
	if st.rtWallNS > 0 {
		o.layer["core.allotment_mean"] = float64(st.areaNS) / float64(st.rtWallNS)
		o.layer["core.quanta_per_s"] = float64(st.decisions) / (float64(st.rtWallNS) / 1e9)
	}
	if st.decisions > 0 {
		o.layer["core.desire_mean"] = float64(st.desireSum) / float64(st.decisions)
	}
}
