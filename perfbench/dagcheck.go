package main

import (
	"context"
	"fmt"
	"time"

	"palirria/internal/serve"
	"palirria/internal/topo"
	"palirria/internal/wsrt"
)

// dagOrderPass sends the pipeline and mapreduce graphs of the
// http-structured pass through an in-process serve.Pool.SubmitDAG with
// bodies that stamp their start and end, and fails the run if any node
// started before every one of its dependencies had ended.
func dagOrderPass(e *env, o *outcome, sp *spans) error {
	p, err := serve.New(serve.Config{Name: "dag-order", Runtime: wsrt.Config{Mesh: topo.MustMesh(e.nproc)}})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	defer p.Drain(ctx) //nolint:errcheck // a failed drain shows as a timeout below
	base := time.Now()
	for _, name := range []string{"pipeline", "mapreduce"} {
		stages, err := dagStages(name, structWork)
		if err != nil {
			return err
		}
		start := make([]time.Duration, len(stages))
		end := make([]time.Duration, len(stages))
		nodes := make([]serve.DAGNode, len(stages))
		for i, st := range stages {
			i, body := i, wsrt.SpecFunc(st.Build())
			nodes[i] = serve.DAGNode{Deps: st.Deps, Fn: func(c *wsrt.Ctx) {
				start[i] = time.Since(base)
				body(c)
				c.SyncAll()
				end[i] = time.Since(base)
			}}
		}
		s := sp.begin("serve.SubmitDAG", -1)
		errs, err := p.SubmitDAG(ctx, nodes)
		sp.end(s)
		o.attempted++
		if err != nil {
			o.failed++
			o.check(false, "dag-order %s: %v", name, err)
			continue
		}
		failed := false
		for i, err := range errs {
			if err != nil {
				failed = true
				o.check(false, "dag-order %s node %d: %v", name, i, err)
			}
		}
		if failed {
			o.failed++
			continue
		}
		for i, st := range stages {
			for _, d := range st.Deps {
				o.check(start[i] >= end[d], "dag-order %s: node %d started %v before dependency %d ended",
					name, i, fmt.Sprint(end[d]-start[i]), d)
			}
		}
	}
	return nil
}
