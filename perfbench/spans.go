package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Trace; Parent is the span that caused this one. Link carries
// the payload hash that ties a replica's handler span to the client
// sub-batch span that sent it (resolved into Parent at write time).
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace"`
	Link   uint64 `json:"link,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span store; hot layers (routing
// decisions, batches) are sampled before they reach it, and anything
// beyond the bound is counted, not kept.
const maxSpans = 1 << 18

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pass nil.
type recorder struct {
	base time.Time
	next atomic.Uint64

	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// newID returns a fresh span or trace id (0 on a nil recorder).
func (r *recorder) newID() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Add(1)
}

// add stores a span with times taken from the wall clock.
func (r *recorder) add(name string, id, parent, trace, link uint64, start, end time.Time) {
	if r == nil {
		return
	}
	s := span{Name: name, ID: id, Parent: parent, Trace: trace, Link: link,
		Start: int64(start.Sub(r.base)), End: int64(end.Sub(r.base))}
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// write resolves handler links to their client sub-batch spans and
// writes the spans as JSON lines; it returns the file path.
func (r *recorder) write(dir, workload string, seed int64) (string, error) {
	if r == nil {
		return "", nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	byLink := map[uint64][]int{}
	for i, s := range r.spans {
		if s.Link != 0 && s.Name == "client.sub_batch" {
			byLink[s.Link] = append(byLink[s.Link], i)
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		if s.Link == 0 || s.Name == "client.sub_batch" {
			continue
		}
		for _, j := range byLink[s.Link] {
			c := r.spans[j]
			if c.Start <= s.Start && s.End <= c.End {
				s.Parent, s.Trace = c.ID, c.Trace
				break
			}
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}

// summary is the info line describing the span file.
func (r *recorder) summary(path string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return fmt.Sprintf("spans %d written to %s (%d beyond the in-memory bound not kept)", len(r.spans), path, r.dropped)
}
