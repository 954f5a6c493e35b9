package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"palirria/internal/experiments"
	"palirria/internal/obs/stream"
	"palirria/internal/task"
	"palirria/internal/workload"
)

const (
	// reqTimeout bounds one request; a request that overruns it counts as
	// failed and its connection is replaced.
	reqTimeout = 30 * time.Second

	// satJobs is the size of one saturation pass of http-jobs, and
	// minSatPasses the fewest passes a run makes.
	satJobs      = 300
	minSatPasses = 3

	// quietWindow is how long a traced http-jobs run watches the idle
	// server's CPU before any load.
	quietWindow = time.Second

	// The http-structured pass: batches of batchCount fan trees and
	// graphs of each DAG workload, all at structWork cycles per leaf. The
	// batches are the slower requests; five of them against four graphs
	// put the median request inside the batches rather than on the
	// boundary between the two kinds.
	structBatches = 5
	structGraphs  = 2 // per DAG workload
	batchCount    = 32
	batchFanout   = 64
	structWork    = 20_000
)

// request is one HTTP call of a workload and what its reply must say.
type request struct {
	path   string
	kind   string // "job", "batch" or "dag"
	fanout int
	work   int
	count  int    // batch size
	dag    string // DAG workload name
	nodes  int    // node count of the graph the benchmark built
	due    time.Duration
	spec   func() *task.Spec // the simulated twin of the request's work
}

// jobs is how many jobs (batch members or graph nodes) the request runs.
func (r *request) jobs() int64 {
	switch r.kind {
	case "batch":
		return int64(r.count)
	case "dag":
		return int64(r.nodes)
	}
	return 1
}

type reply struct {
	Fanout    int    `json:"fanout"`
	Work      int    `json:"work"`
	Count     int    `json:"count"`
	Completed int    `json:"completed"`
	Workload  string `json:"workload"`
	Nodes     int    `json:"nodes"`
	Cancelled int    `json:"cancelled"`
	LatencyNS int64  `json:"latency_ns"`
}

// verify checks a 200 reply against the request.
func (r *request) verify(rp reply) error {
	switch r.kind {
	case "dag":
		if rp.Workload != r.dag || rp.Nodes != r.nodes || rp.Completed != r.nodes || rp.Cancelled != 0 {
			return fmt.Errorf("%s graph of %d nodes: reply %+v", r.dag, r.nodes, rp)
		}
	case "batch":
		if rp.Fanout != r.fanout || rp.Work != r.work || rp.Count != r.count || rp.Completed != r.count {
			return fmt.Errorf("batch of %d fanout %d work %d: reply %+v", r.count, r.fanout, r.work, rp)
		}
	default:
		if rp.Fanout != r.fanout || rp.Work != r.work {
			return fmt.Errorf("job fanout %d work %d: reply %+v", r.fanout, r.work, rp)
		}
	}
	return nil
}

func jobRequest(fanout, work int, class string) request {
	path := fmt.Sprintf("/submit?fanout=%d&work=%d", fanout, work)
	if class != "" {
		path += "&class=" + class + "&deadline=" + jobDeadline
	}
	return request{path: path, kind: "job", fanout: fanout, work: work,
		spec: func() *task.Spec { return fanSpec(fanout, work) }}
}

func batchRequest(work int) request {
	return request{
		path: fmt.Sprintf("/submit?count=%d&fanout=%d&work=%d", batchCount, batchFanout, work),
		kind: "batch", fanout: batchFanout, work: work, count: batchCount,
		spec: func() *task.Spec {
			fans := make([]task.Builder, batchCount)
			for i := range fans {
				fans[i] = func() *task.Spec { return fanSpec(batchFanout, work) }
			}
			return task.SpawnJoin("batch", 0, fans, 0, 0)
		},
	}
}

func dagRequest(name string, work int) (request, error) {
	stages, err := dagStages(name, work)
	if err != nil {
		return request{}, err
	}
	return request{
		path: fmt.Sprintf("/submit-dag?workload=%s&work=%d", name, work),
		kind: "dag", dag: name, work: work, nodes: len(stages),
		spec: func() *task.Spec { return dagSpec(stages) },
	}, nil
}

// dagStages builds a registered DAG workload's graph the way
// palirria-serve's /submit-dag does, at leaf work work.
func dagStages(name string, work int) ([]workload.DAGStage, error) {
	def, err := workload.GetDAG(name)
	if err != nil {
		return nil, err
	}
	in := def.Inputs[workload.Simulator]
	in.Grain = int64(work)
	return def.Build(in), nil
}

// fanSpec is the task tree of palirria-serve's synthetic job: a binary fan
// of n leaves of work cycles.
func fanSpec(n, work int) *task.Spec {
	if n <= 1 {
		return task.Leaf("leaf", int64(work))
	}
	return &task.Spec{Label: "fan", Ops: []task.Op{
		task.Spawn(func() *task.Spec { return fanSpec(n/2, work) }),
		task.Call(func() *task.Spec { return fanSpec(n-n/2, work) }),
		task.Sync(),
	}}
}

// dagSpec models a stage graph as a fork/join tree for the simulator:
// stages run level by level (a level is every stage whose longest
// dependency chain has the same length), all stages of a level in
// parallel. For the layered pipeline and mapreduce graphs that is exact.
func dagSpec(stages []workload.DAGStage) *task.Spec {
	level := make([]int, len(stages))
	top := 0
	for i, st := range stages { // stages list their dependencies first
		for _, d := range st.Deps {
			if level[d]+1 > level[i] {
				level[i] = level[d] + 1
			}
		}
		top = max(top, level[i])
	}
	var ops []task.Op
	for l := 0; l <= top; l++ {
		var members []task.Builder
		for i, st := range stages {
			if level[i] == l {
				members = append(members, st.Build)
			}
		}
		ops = append(ops, task.Call(func() *task.Spec { return task.SpawnJoin("level", 0, members, 0, 0) }))
	}
	return &task.Spec{Label: "dag", Ops: ops}
}

// requestTwin simulates a request list as one tree: every request's work
// spawned from one root and joined at its end.
func requestTwin(name string, reqs []request, seed uint64) (*twin, error) {
	bs := make([]task.Builder, len(reqs))
	for i := range reqs {
		bs[i] = reqs[i].spec
	}
	c, err := newSimCase(name, experiments.SimPlatform(), true, task.SpawnJoin(name, 0, bs, 0, 0))
	if err != nil {
		return nil, err
	}
	return &twin{cases: []simCase{c}, seed: seed}, nil
}

// load is what one stretch of HTTP load measured.
type load struct {
	lat     []float64 // per-request latency, ns (open loop: from the due time)
	httpNS  []float64 // per-request client span minus the reply's latency_ns
	batchNS []float64 // latency_ns of batch replies
	dagNS   []float64 // latency_ns of graph replies
	jobs    int64     // jobs and graph nodes completed
	late    lateness
	start   time.Time
	wall    time.Duration
	cpu     time.Duration // server CPU over the stretch
	mu      sync.Mutex
}

// client drives the server with at most nproc connections.
type client struct {
	hc    *http.Client
	base  string
	nproc int
}

func newClient(base string, nproc int) *client {
	return &client{base: base, nproc: nproc, hc: &http.Client{
		Timeout: reqTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     nproc,
			MaxIdleConnsPerHost: nproc,
			DisableCompression:  true,
		},
	}}
}

// send issues r and records its outcome; due is when it should have been
// sent (the send time in a closed loop).
func (c *client) send(r *request, due time.Time, l *load, o *outcome) {
	t0 := time.Now()
	resp, err := c.hc.Post(c.base+r.path, "", nil)
	var rp reply
	if err == nil {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case rerr != nil:
			err = rerr
		case resp.StatusCode != http.StatusOK:
			err = fmt.Errorf("status %d: %s", resp.StatusCode, body)
		default:
			if err = json.Unmarshal(body, &rp); err == nil {
				err = r.verify(rp)
			}
		}
	}
	end := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	o.attempted++
	if err != nil {
		o.failed++
		o.check(false, "POST %s: %v", r.path, err)
		return
	}
	l.lat = append(l.lat, float64(end.Sub(due)))
	l.httpNS = append(l.httpNS, float64(end.Sub(t0))-float64(rp.LatencyNS))
	switch r.kind {
	case "batch":
		l.batchNS = append(l.batchNS, float64(rp.LatencyNS))
	case "dag":
		l.dagNS = append(l.dagNS, float64(rp.LatencyNS))
	}
	l.jobs += r.jobs()
}

// openLoop sends each request at its due time, whatever the state of the
// earlier ones, over at most nproc connections. With between set, the
// schedule pauses at the end of every calm-and-burst cycle: once the
// cycle's requests are answered, between runs, and the next cycle's due
// times start from when it returns. The load's wall and server CPU cover
// the open loop only.
func (c *client) openLoop(s *server, reqs []request, between func() error, o *outcome) (*load, error) {
	const cycle = calmPhase + burstPhase
	l := &load{}
	ch := make(chan int, len(reqs))
	dues := make([]time.Time, len(reqs))
	var workers, inflight sync.WaitGroup
	for i := 0; i < c.nproc; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for k := range ch {
				c.send(&reqs[k], dues[k], l, o)
				inflight.Done()
			}
		}()
	}
	defer func() {
		close(ch)
		workers.Wait()
	}()
	l.start = time.Now()
	seg, cpu0 := l.start, s.cpu() // the current stretch of open loop
	base := seg                   // due times are relative to base
	n := time.Duration(0)         // the cycle being sent
	endSeg := func() {
		inflight.Wait()
		l.wall += time.Since(seg)
		l.cpu += s.cpu() - cpu0
	}
	for k := range reqs {
		if between != nil && reqs[k].due >= (n+1)*cycle {
			n = reqs[k].due / cycle
			time.Sleep(time.Until(base.Add(n * cycle)))
			endSeg()
			if err := between(); err != nil {
				return nil, err
			}
			seg, cpu0 = time.Now(), s.cpu()
			base = seg.Add(-n * cycle)
		}
		dues[k] = base.Add(reqs[k].due)
		time.Sleep(time.Until(dues[k]))
		l.late.note(dues[k], time.Now())
		inflight.Add(1)
		ch <- k
	}
	endSeg()
	return l, nil
}

// closedLoop sends reqs over nproc connections, each taking the next
// request as soon as its previous reply is in, and returns when all are
// answered.
func (c *client) closedLoop(s *server, reqs []request, l *load, o *outcome) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < c.nproc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < len(reqs); k = int(next.Add(1) - 1) {
				c.send(&reqs[k], time.Now(), l, o)
			}
		}()
	}
	wg.Wait()
}

// passStats holds the wall time and the busy worker-time of each pass.
type passStats struct {
	walls, busy []float64
}

// passes runs closed-loop passes over reqs, at least minPasses and until d
// has passed, adds each to ps, and calls between, when set, after each
// pass. The load's wall and server CPU cover the passes only; the busy
// worker-time is scraped from /metrics just before and just after each
// pass.
func (c *client) passes(s *server, reqs []request, minPasses int, d time.Duration, between func() error, l *load, ps *passStats, o *outcome) error {
	t0 := time.Now()
	if l.start.IsZero() {
		l.start = t0
	}
	for n := 0; n < minPasses || time.Since(t0) < d; n++ {
		b0, err := s.busyNS()
		if err != nil {
			return err
		}
		p0, cpu0 := time.Now(), s.cpu()
		c.closedLoop(s, reqs, l, o)
		p1 := time.Now()
		l.wall += p1.Sub(p0)
		l.cpu += s.cpu() - cpu0
		b1, err := s.busyNS()
		if err != nil {
			return err
		}
		ps.walls = append(ps.walls, float64(p1.Sub(p0)))
		ps.busy = append(ps.busy, b1-b0)
		if between != nil {
			if err := between(); err != nil {
				return err
			}
		}
	}
	return nil
}

// layerTrace is what a traced stretch of load collects from the server.
type layerTrace struct {
	sub *sub
	m0  map[string]float64 // /metrics before the stretch
}

func startTrace(s *server) (*layerTrace, error) {
	su, err := s.subscribe("admitted,started,completed,quantum")
	if err != nil {
		return nil, err
	}
	m0, err := s.scrape()
	if err != nil {
		su.close()
		return nil, err
	}
	return &layerTrace{sub: su, m0: m0}, nil
}

// finish scrapes /metrics again, closes the event stream and fills
// the serve, wsrt and core per-layer metrics for the stretch l.
func (lt *layerTrace) finish(s *server, l *load, o *outcome) error {
	time.Sleep(20 * time.Millisecond) // let the stream deliver the stretch's tail
	m1, err := s.scrape()
	if err != nil {
		lt.sub.close()
		return err
	}
	evs, drops := lt.sub.close()
	if drops > 0 {
		fmt.Printf("events: %d dropped by the server; per-job figures cover the rest\n", drops)
	}
	jobs := float64(l.jobs)
	if jobs == 0 {
		return nil
	}
	d := func(name string) float64 { return m1[name] - lt.m0[name] }
	o.layer["palirria-serve.http_us_p50"] = median(l.httpNS) / 1e3
	o.layer["wsrt.useful_ms_per_job"] = d("palirria_worker_useful_ns") / 1e6 / jobs
	o.layer["wsrt.search_ms_per_job"] = d("palirria_worker_search_ns") / 1e6 / jobs
	o.layer["wsrt.idle_ms_per_job"] = d("palirria_worker_idle_ns") / 1e6 / jobs
	o.layer["wsrt.parks_per_job"] = d("palirria_parks_total") / jobs
	o.layer["wsrt.wakeups_per_job"] = d("palirria_wakeups_total") / jobs
	steals, probes := d("palirria_steals_total"), d("palirria_failed_probes_total")
	o.layer["wsrt.steals_per_job"] = steals / jobs
	o.layer["wsrt.failed_probes_per_job"] = probes / jobs
	if steals+probes > 0 {
		o.layer["wsrt.steal_hit_ratio"] = steals / (steals + probes)
	}
	o.layer["wsrt.shard_steals_per_job"] = d("palirria_shard_steals_total") / jobs
	if len(l.batchNS) > 0 {
		o.layer["serve.batch_ms_p50"] = median(l.batchNS) / 1e6
	}
	if len(l.dagNS) > 0 {
		o.layer["serve.dag_ms_p50"] = median(l.dagNS) / 1e6
	}

	a, b := l.start.UnixNano(), l.start.Add(l.wall).UnixNano()
	type stamps struct{ adm, start, done int64 }
	byJob := map[uint64]*stamps{}
	var first, last uint64
	for _, ev := range evs {
		if first == 0 {
			first = ev.Seq
		}
		last = ev.Seq
		if ev.Job == 0 {
			continue
		}
		st := byJob[ev.Job]
		if st == nil {
			st = &stamps{}
			byJob[ev.Job] = st
		}
		switch ev.Kind {
		case stream.KindAdmitted:
			st.adm = ev.TS
		case stream.KindStarted:
			st.start = ev.TS
		case stream.KindCompleted:
			st.done = ev.TS
		}
	}
	var queue, run []float64
	for _, st := range byJob {
		if st.adm > 0 && st.start >= st.adm {
			queue = append(queue, float64(st.start-st.adm))
		}
		if st.start > 0 && st.done >= st.start {
			run = append(run, float64(st.done-st.start))
		}
	}
	o.layer["serve.queue_us_p50"] = median(queue) / 1e3
	o.layer["serve.queue_us_p99"] = tailPercentile(queue) / 1e3
	o.layer["serve.run_us_p50"] = median(run) / 1e3
	o.layer["serve.events_per_job"] = float64(last-first) / jobs
	g, des, n := quantumArea(evs, a, b)
	span := float64(b - a)
	o.layer["core.allotment_mean"] = g / span
	o.layer["core.desire_mean"] = des / span
	o.layer["core.quanta_per_s"] = float64(n) / (span / 1e9)
	return nil
}

// finishServer drains the child, checks its ledger and exit, and reports
// the rejections it counted.
func finishServer(s *server, o *outcome) error {
	pools, err := s.finish(o)
	if err != nil {
		return err
	}
	var rej int64
	for _, p := range pools {
		rej += p.RejectedFull + p.RejectedShed + p.RejectedDeadline
	}
	o.layer["serve.rejected"] = float64(rej)
	return nil
}

// passFigures fills the wall-clock figures of closed-loop passes.
func passFigures(o *outcome, l *load, ps *passStats) {
	o.layer["jobs_per_s"] = float64(l.jobs) / l.wall.Seconds()
	o.layer["pass_ms"] = median(ps.walls) / 1e6
	o.layer["worker_ms_per_pass"] = median(ps.busy) / 1e6
}

// serverE2E fills the end-to-end metrics the two HTTP workloads share,
// and the job latencies.
func serverE2E(o *outcome, s *server, l *load) error {
	jobLatency(o, l.lat)
	o.e2e["cpu_ms_per_job"] = ms(l.cpu) / float64(l.jobs)
	rss, err := peakRSSMB(s.pid())
	if err != nil {
		return err
	}
	o.e2e["rss_mb"] = rss
	return nil
}

// reportLateness prints how late the open-loop generator ran and fails
// the run when it fell behind its bound.
func reportLateness(l *load, o *outcome) {
	p99, max, behind := l.late.summary()
	fmt.Printf("generator lateness: p99 %.3f ms, max %.3f ms (bound %v at p99)\n", ms(p99), ms(max), lateBound)
	o.check(!behind, "open-loop generator ran %v late at p99, bound %v", p99, lateBound)
}

// runHTTPJobs is the http-jobs workload: an open loop of single small
// jobs in calm and burst phases, then closed-loop saturation passes of
// the same kind of job.
func runHTTPJobs(e *env) (*outcome, error) {
	o := newOutcome()
	s, setup, err := serverSetup(e, o)
	if err != nil {
		return nil, err
	}
	defer s.kill()
	c := newClient(s.base, e.nproc)

	schedule := func(d time.Duration) []request {
		arr := openLoopSchedule(e.seed, d)
		reqs := make([]request, len(arr))
		for i, a := range arr {
			reqs[i] = jobRequest(a.Fanout, a.Work, a.Class)
			reqs[i].due = a.At
		}
		return reqs
	}
	// The saturation pass is one fixed mix of the small-job shapes (fanout
	// 1-16, work spread evenly over 0-20000) in seeded order, so every seed
	// asks for the same total work. The twin simulates the mix in its fixed
	// order: the seeded order moved its simulated cycles by 8% from seed to
	// seed.
	sat := make([]request, satJobs)
	for i := range sat {
		sat[i] = jobRequest(1+i%16, i*20_000/(satJobs-1), "")
	}
	tw, err := requestTwin("http-jobs-pass", sat, e.seed)
	if err != nil {
		return nil, err
	}
	r := newRand(e.seed, 3)
	r.Shuffle(len(sat), func(i, j int) { sat[i], sat[j] = sat[j], sat[i] })

	if e.traced {
		if err := setup.report(o); err != nil {
			return nil, err
		}
		cpu0 := s.cpu()
		time.Sleep(quietWindow)
		o.layer["wsrt.idle_cpu_ms_per_s"] = ms(s.cpu()-cpu0) / quietWindow.Seconds()
		reqs := schedule(e.dur / 2)
		sl, ps := &load{}, &passStats{}
		u, err := c.openLoop(s, reqs, func() error { return c.passes(s, sat, 1, 0, nil, sl, ps, o) }, o)
		if err != nil {
			return nil, err
		}
		reportLateness(u, o)
		jobLatency(o, u.lat)
		passFigures(o, sl, ps)
		lt, err := startTrace(s)
		if err != nil {
			return nil, err
		}
		t, err := c.openLoop(s, reqs, nil, o)
		if err != nil {
			return nil, err
		}
		reportLateness(t, o)
		if err := lt.finish(s, t, o); err != nil {
			return nil, err
		}
		o.overhead(median(u.lat), median(t.lat))
		sp := newSpans()
		if err := tw.report(o, sp); err != nil {
			return nil, err
		}
		if err := sp.write(filepath.Join(e.outDir, fmt.Sprintf("spans-http-jobs-%d.json", e.seed))); err != nil {
			return nil, err
		}
		return o, finishServer(s, o)
	}

	// One saturation pass (and one twin step) follows every open-loop
	// cycle, so both sample the host over the whole run.
	sl, ps := &load{}, &passStats{}
	saturate := func() error {
		if err := c.passes(s, sat, 1, 0, nil, sl, ps, o); err != nil {
			return err
		}
		if err := tw.step(o, nil); err != nil {
			return err
		}
		return setup.step()
	}
	l, err := c.openLoop(s, schedule(e.dur), saturate, o)
	if err != nil {
		return nil, err
	}
	reportLateness(l, o)
	if err := serverE2E(o, s, l); err != nil {
		return nil, err
	}
	for len(ps.walls) < minSatPasses {
		if err := saturate(); err != nil {
			return nil, err
		}
	}
	if err := setup.report(o); err != nil {
		return nil, err
	}
	passFigures(o, sl, ps)
	o.e2e["cpu_ms_per_pass"] = ms(sl.cpu) / float64(len(ps.walls))
	if err := tw.report(o, nil); err != nil {
		return nil, err
	}
	return o, finishServer(s, o)
}

// structuredPass is the request set of one http-structured pass: batches
// of large fan trees and pipeline and mapreduce graphs at structWork
// cycles per leaf, in a fixed order. Every seed asks for the same total
// work.
func structuredPass() ([]request, error) {
	var reqs []request
	for i := 0; i < structBatches; i++ {
		reqs = append(reqs, batchRequest(structWork))
	}
	for _, name := range []string{"pipeline", "mapreduce"} {
		for i := 0; i < structGraphs; i++ {
			q, err := dagRequest(name, structWork)
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, q)
		}
	}
	return reqs, nil
}

// runHTTPStructured is the http-structured workload: closed-loop passes
// of batches and graphs over nproc connections, then the in-process DAG
// ordering pass.
func runHTTPStructured(e *env) (*outcome, error) {
	o := newOutcome()
	s, setup, err := serverSetup(e, o)
	if err != nil {
		return nil, err
	}
	defer s.kill()
	c := newClient(s.base, e.nproc)
	reqs, err := structuredPass()
	if err != nil {
		return nil, err
	}
	// The twin simulates the pass in its fixed order, the server gets it
	// in an order drawn from the seed.
	tw, err := requestTwin("http-structured-pass", reqs, e.seed)
	if err != nil {
		return nil, err
	}
	r := newRand(e.seed, 4)
	r.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })

	if e.traced {
		if err := setup.report(o); err != nil {
			return nil, err
		}
		u, ups := &load{}, &passStats{}
		if err := c.passes(s, reqs, 1, e.dur/2, nil, u, ups, o); err != nil {
			return nil, err
		}
		jobLatency(o, u.lat)
		passFigures(o, u, ups)
		lt, err := startTrace(s)
		if err != nil {
			return nil, err
		}
		t := &load{}
		if err := c.passes(s, reqs, 1, e.dur/2, nil, t, &passStats{}, o); err != nil {
			return nil, err
		}
		if err := lt.finish(s, t, o); err != nil {
			return nil, err
		}
		o.overhead(median(u.lat), median(t.lat))
		sp := newSpans()
		if err := tw.report(o, sp); err != nil {
			return nil, err
		}
		if err := finishServer(s, o); err != nil {
			return nil, err
		}
		if err := dagOrderPass(e, o, sp); err != nil {
			return nil, err
		}
		return o, sp.write(filepath.Join(e.outDir, fmt.Sprintf("spans-http-structured-%d.json", e.seed)))
	}

	l, ps := &load{}, &passStats{}
	between := func() error {
		if err := tw.step(o, nil); err != nil {
			return err
		}
		return setup.step()
	}
	if err := c.passes(s, reqs, 1, e.dur, between, l, ps, o); err != nil {
		return nil, err
	}
	if err := setup.report(o); err != nil {
		return nil, err
	}
	if err := serverE2E(o, s, l); err != nil {
		return nil, err
	}
	passFigures(o, l, ps)
	o.e2e["cpu_ms_per_pass"] = ms(l.cpu) / float64(len(ps.walls))
	if err := tw.report(o, nil); err != nil {
		return nil, err
	}
	if err := finishServer(s, o); err != nil {
		return nil, err
	}
	return o, dagOrderPass(e, o, nil)
}
