package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Parent is the index of the enclosing span
// in the recorder, -1 for a root.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

// spans keeps the spans of a traced run in memory; a nil *spans records
// nothing, so untraced runs pay one nil check per call site.
type spans struct {
	mu   sync.Mutex
	base time.Time
	list []span
}

func newSpans() *spans { return &spans{base: time.Now()} }

// begin opens a span under parent and returns its index.
func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return -1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, span{Name: name, StartNS: time.Since(s.base).Nanoseconds(), EndNS: -1, Parent: parent})
	return len(s.list) - 1
}

// end closes span i.
func (s *spans) end(i int) {
	if s == nil || i < 0 {
		return
	}
	s.mu.Lock()
	s.list[i].EndNS = time.Since(s.base).Nanoseconds()
	s.mu.Unlock()
}

// durations returns the durations of every closed span named name.
func (s *spans) durations(name string) []float64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []float64
	for _, sp := range s.list {
		if sp.Name == name && sp.EndNS >= 0 {
			out = append(out, float64(sp.EndNS-sp.StartNS))
		}
	}
	return out
}

// write stores the spans as JSON at path.
func (s *spans) write(path string) error {
	if s == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	s.mu.Lock()
	b, err := json.Marshal(s.list)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
