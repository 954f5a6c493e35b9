package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"palirria/internal/obs/stream"
	"palirria/internal/serve"
)

// server is one palirria-serve child process.
type server struct {
	cmd    *exec.Cmd
	base   string
	exited chan error
	done   bool
	// ctl carries control traffic (health, scrapes, drain, events) on
	// connections apart from the load.
	ctl *http.Client
}

// startServer starts bin with a mesh of nproc workers on a free loopback
// port and returns once /healthz answers 200, with the time that took
// from process start.
func startServer(bin string, nproc int) (*server, time.Duration, error) {
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-mesh", strconv.Itoa(nproc))
	// Every path out of the benchmark kills and reaps its children; the
	// parent-death signal also ends a child if the benchmark itself dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, exited: make(chan error, 1), ctl: &http.Client{Timeout: 60 * time.Second}}
	addr := make(chan string, 1)
	go func() {
		br := bufio.NewReader(stdout)
		line, _ := br.ReadString('\n')
		addr <- line
		io.Copy(io.Discard, br) //nolint:errcheck // drains the child's log until it exits
		s.exited <- cmd.Wait()
	}()
	var line string
	select {
	case line = <-addr:
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, 0, fmt.Errorf("palirria-serve printed no address")
	}
	// "palirria-serve: listening on 127.0.0.1:PORT (...)"
	f := strings.Fields(line)
	if len(f) < 4 || f[1] != "listening" {
		s.kill()
		return nil, 0, fmt.Errorf("palirria-serve: unexpected first line %q", line)
	}
	s.base = "http://" + f[3]
	for {
		resp, err := s.ctl.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 30*time.Second {
			s.kill()
			return nil, 0, fmt.Errorf("palirria-serve not healthy after 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// cpu returns the child's CPU time so far.
func (s *server) cpu() time.Duration {
	d, _ := procCPU(s.pid())
	return d
}

// kill stops the child without draining it and waits for it to end.
func (s *server) kill() {
	if s.done {
		return
	}
	s.cmd.Process.Kill() //nolint:errcheck // it may have exited already
	<-s.exited
	s.done = true
}

// finish checks the quiesced ledger on /status (every admitted job
// completed, nothing cancelled or in flight, the per-class rows summing
// to the totals), drains the child with POST /drain, checks that it exits
// 0 on its own, and returns the pool snapshots.
//
// The ledger is read from /status before the drain rather than from the
// drain reply: palirria-serve closes its listener and connections as soon
// as the drain completes, racing the reply's flush, so the reply is now
// and then lost (the client sees EOF). The child's exit status still
// shows the drain succeeded.
func (s *server) finish(o *outcome) ([]serve.Snapshot, error) {
	var rep struct {
		Pools []serve.Snapshot `json:"pools"`
	}
	resp, err := s.ctl.Get(s.base + "/status")
	if err != nil {
		s.kill()
		return nil, fmt.Errorf("status: %w", err)
	}
	err = json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		s.kill()
		return nil, fmt.Errorf("status: %d: %v", resp.StatusCode, err)
	}
	for _, p := range rep.Pools {
		o.check(p.Admitted == p.Completed+p.Cancelled && p.InFlight == 0,
			"pool %s: admitted %d, completed %d, cancelled %d, in flight %d",
			p.Name, p.Admitted, p.Completed, p.Cancelled, p.InFlight)
		o.check(p.Cancelled == 0, "pool %s: %d jobs cancelled", p.Name, p.Cancelled)
		var adm, comp int64
		for _, c := range p.ByClass {
			adm += c.Admitted
			comp += c.Completed
		}
		o.check(adm == p.Admitted && comp == p.Completed, "pool %s: class rows sum to %d/%d, totals %d/%d",
			p.Name, adm, comp, p.Admitted, p.Completed)
	}
	if resp, err := s.ctl.Post(s.base+"/drain", "", nil); err == nil {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // the reply repeats /status
		resp.Body.Close()
		o.check(resp.StatusCode == http.StatusOK, "drain: status %d", resp.StatusCode)
	}
	select {
	case err = <-s.exited:
		s.done = true
		o.check(err == nil, "palirria-serve exit: %v", err)
	case <-time.After(20 * time.Second):
		s.kill()
		o.check(false, "palirria-serve did not exit after drain")
	}
	return rep.Pools, nil
}

// serverStarts is how many children one HTTP set-up sample starts in a
// row. One start to healthy takes a few milliseconds, too short to time
// steadily on its own, so a sample is the mean over a run of starts.
const serverStarts = 5

// startTimed starts the child serverStarts times in a row, draining all
// but the last, and returns the last with the mean start-to-healthy time.
func startTimed(e *env, o *outcome) (*server, time.Duration, error) {
	var s *server
	var total time.Duration
	for i := 0; i < serverStarts; i++ {
		if s != nil {
			if _, err := s.finish(o); err != nil {
				return nil, 0, err
			}
		}
		var d time.Duration
		var err error
		if s, d, err = startServer(e.serveBin, e.nproc); err != nil {
			return nil, 0, err
		}
		total += d
	}
	return s, total / serverStarts, nil
}

// serverSetup starts the child the run drives and returns it with the
// run's set-up samples, whose later samples start and drain children of
// their own beside it.
func serverSetup(e *env, o *outcome) (*server, *setupSamples, error) {
	s, d, err := startTimed(e, o)
	if err != nil {
		return nil, nil, err
	}
	return s, newSetupSamples(e, d, func() (time.Duration, error) {
		x, d, err := startTimed(e, o)
		if err != nil {
			return 0, err
		}
		_, err = x.finish(o)
		return d, err
	}), nil
}

// scrape reads /metrics and sums every series by metric name.
func (s *server) scrape() (map[string]float64, error) {
	resp, err := s.ctl.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

// busyNS returns the worker-time the server's workers have spent running
// tasks and searching for work so far, summed over workers, from /metrics.
// Parked time is left out: a worker outside the allotment is charged its
// whole park only when it wakes, so idle time moves in lumps.
func (s *server) busyNS() (float64, error) {
	m, err := s.scrape()
	if err != nil {
		return 0, err
	}
	return m["palirria_worker_useful_ns"] + m["palirria_worker_search_ns"], nil
}

// sub is one /events subscription, kept in memory until closed.
type sub struct {
	cancel context.CancelFunc
	done   chan struct{}
	mu     sync.Mutex
	evs    []stream.Event
	drops  int64
}

// subscribe opens /events for kinds and returns once the server has
// registered the subscription.
func (s *server) subscribe(kinds string) (*sub, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/events?kind="+kinds, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	su := &sub{cancel: cancel, done: make(chan struct{})}
	ready := make(chan struct{})
	go func() {
		defer close(su.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<16), 1<<20)
		first, event := true, ""
		for sc.Scan() {
			line := sc.Bytes()
			if first {
				// The stream's opening comment is written after the
				// subscription is registered.
				first = false
				close(ready)
			}
			switch {
			case bytes.HasPrefix(line, []byte("event: ")):
				event = string(line[7:])
			case bytes.HasPrefix(line, []byte("data: ")):
				data := line[6:]
				if event == "drop" {
					var d struct{ Dropped int64 }
					if json.Unmarshal(data, &d) == nil {
						su.mu.Lock()
						su.drops += d.Dropped
						su.mu.Unlock()
					}
					continue
				}
				var ev stream.Event
				if json.Unmarshal(data, &ev) == nil {
					su.mu.Lock()
					su.evs = append(su.evs, ev)
					su.mu.Unlock()
				}
			}
		}
		if first {
			close(ready)
		}
	}()
	select {
	case <-ready:
		return su, nil
	case <-time.After(10 * time.Second):
		su.close()
		return nil, fmt.Errorf("events: no stream after 10s")
	}
}

// close ends the subscription and returns what it received, in hub order.
func (su *sub) close() ([]stream.Event, int64) {
	su.cancel()
	<-su.done
	su.mu.Lock()
	defer su.mu.Unlock()
	sort.Slice(su.evs, func(i, j int) bool { return su.evs[i].Seq < su.evs[j].Seq })
	return su.evs, su.drops
}

// quantumArea integrates the granted allotment and the filtered desire of
// the quantum events over the window [a, b] (UnixNano), in worker-ns, and
// counts the quanta inside it.
func quantumArea(evs []stream.Event, a, b int64) (granted, desire float64, n int) {
	var g, d float64
	have, last := false, a
	for _, ev := range evs {
		if ev.Kind != stream.KindQuantum {
			continue
		}
		if ev.TS <= a {
			g, d, have = float64(ev.Granted), float64(ev.Desire), true
			continue
		}
		if ev.TS > b {
			break
		}
		if have {
			granted += g * float64(ev.TS-last)
			desire += d * float64(ev.TS-last)
		}
		last = ev.TS
		g, d, have = float64(ev.Granted), float64(ev.Desire), true
		n++
	}
	if have {
		granted += g * float64(b-last)
		desire += d * float64(b-last)
	}
	return granted, desire, n
}
