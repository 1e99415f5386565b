package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer's public API, recorded from the
// benchmark's side of the boundary. Start and End are host nanoseconds
// since the recorder was created; Parent is 0 for a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spans keeps spans in memory until the process writes them out at exit.
// A nil *spans records nothing, so untraced runs pay one nil check per
// call site.
type spans struct {
	mu   sync.Mutex
	base time.Time
	run  int
	list []span
}

func newSpans(run int) *spans { return &spans{base: time.Now(), run: run} }

// add records a finished span and returns its id.
func (s *spans) add(name string, parent int, start, end time.Time) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id := len(s.list) + 1
	s.list = append(s.list, span{ID: id, Parent: parent, Run: s.run, Name: name,
		Start: start.Sub(s.base).Nanoseconds(), End: end.Sub(s.base).Nanoseconds()})
	return id
}

// open records a span whose end is filled in by the returned function; it
// lets a parent span be created before its children.
func (s *spans) open(name string, parent int) (id int, close func()) {
	if s == nil {
		return 0, func() {}
	}
	now := time.Now()
	id = s.add(name, parent, now, now)
	return id, func() {
		end := time.Since(s.base).Nanoseconds()
		s.mu.Lock()
		s.list[id-1].End = end
		s.mu.Unlock()
	}
}

// write stores the spans as JSON lines.
func (s *spans) write(path string) error {
	if s == nil || path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	s.mu.Lock()
	for i := range s.list {
		if err := enc.Encode(&s.list[i]); err != nil {
			s.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	s.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
