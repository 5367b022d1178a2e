package main

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ds2/internal/streamrt"
)

// probe counts every call of a user function handed to the pipeline
// builder and times one call in 64, so the traced run can say how much
// of an operator's useful time is the benchmark's own code.
type probe struct {
	calls, timed, ns atomic.Int64
}

func (p *probe) sampled() bool { return p.calls.Add(1)&63 == 0 }

func (p *probe) took(t0 time.Time) {
	p.ns.Add(time.Since(t0).Nanoseconds())
	p.timed.Add(1)
}

// meanNs is the mean of the timed calls; 0 before any was timed.
func (p *probe) meanNs() float64 {
	if n := p.timed.Load(); n > 0 {
		return float64(p.ns.Load()) / float64(n)
	}
	return 0
}

type nextFn = func(seq int64) (string, any)
type processFn = func(state any, key string, value any, emit streamrt.Emit) any

func (p *probe) next(fn nextFn) nextFn {
	return func(seq int64) (string, any) {
		if !p.sampled() {
			return fn(seq)
		}
		defer p.took(time.Now())
		return fn(seq)
	}
}

func (p *probe) process(fn processFn) processFn {
	return func(state any, key string, value any, emit streamrt.Emit) any {
		if !p.sampled() {
			return fn(state, key, value, emit)
		}
		defer p.took(time.Now())
		return fn(state, key, value, emit)
	}
}

// probedState is a StateCodec whose calls go through a probe.
type probedState struct {
	inner streamrt.StateCodec
	p     *probe
}

func (c probedState) EncodeState(v any) []byte {
	if !c.p.sampled() {
		return c.inner.EncodeState(v)
	}
	defer c.p.took(time.Now())
	return c.inner.EncodeState(v)
}

func (c probedState) DecodeState(b []byte) any {
	if !c.p.sampled() {
		return c.inner.DecodeState(b)
	}
	defer c.p.took(time.Now())
	return c.inner.DecodeState(b)
}

// userProbes groups the probes of one benchmark-owned pipeline. A nil
// *userProbes (untraced run) hands every function back unwrapped.
type userProbes struct{ next, process, state probe }

func (u *userProbes) wrapNext(fn nextFn) nextFn {
	if u == nil {
		return fn
	}
	return u.next.next(fn)
}

func (u *userProbes) wrapProcess(fn processFn) processFn {
	if u == nil {
		return fn
	}
	return u.process.process(fn)
}

func (u *userProbes) wrapState(c streamrt.StateCodec) streamrt.StateCodec {
	if u == nil {
		return c
	}
	return probedState{inner: c, p: &u.state}
}

// print says how much of the pipeline's time was the benchmark's own
// functions: calls counted, mean of the one call in 64 that was timed.
// Informational; no metric is made of it.
func (u *userProbes) print(pipeline string) {
	fmt.Printf("# %s user functions:", pipeline)
	for _, p := range []struct {
		name string
		p    *probe
	}{{"Next", &u.next}, {"Process", &u.process}, {"StateCodec", &u.state}} {
		if n := p.p.calls.Load(); n > 0 {
			fmt.Printf("  %s %d calls, %.0f ns", p.name, n, p.p.meanNs())
		}
	}
	fmt.Println()
}

// timedStore times every Save and Load of the CheckpointStore it wraps
// (always: Savepoint and restore durations are decomposed against it in
// both modes) and records them as spans when tracing.
type timedStore struct {
	inner  streamrt.CheckpointStore
	r      *run
	parent func() spanID

	mu            sync.Mutex
	saveMs        []float64
	loadMs        []float64
	lastSaveBytes int
}

func (s *timedStore) Save(name string, data []byte) error {
	var err error
	d := s.r.call(s.parent(), "Save", func() { err = s.inner.Save(name, data) })
	s.mu.Lock()
	s.saveMs = append(s.saveMs, ms(d))
	s.lastSaveBytes = len(data)
	s.mu.Unlock()
	return err
}

func (s *timedStore) Load(name string) ([]byte, error) {
	var data []byte
	var err error
	d := s.r.call(s.parent(), "Load", func() { data, err = s.inner.Load(name) })
	s.mu.Lock()
	s.loadMs = append(s.loadMs, ms(d))
	s.mu.Unlock()
	return data, err
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timedTransport wraps the service client's RoundTripper: one span and
// one round-trip sample per report, poll and ack.
type timedTransport struct {
	inner  http.RoundTripper
	r      *run
	parent func() spanID

	mu          sync.Mutex
	rtt         map[string][]float64 // by call name, ms
	reportBytes []float64
	refused     int
}

// callName classifies a service API request by its path suffix.
func callName(method, path string) string {
	switch {
	case method == http.MethodPost && strings.HasSuffix(path, "/metrics"):
		return "Report"
	case method == http.MethodGet && strings.HasSuffix(path, "/action"):
		return "PollAction"
	case method == http.MethodPost && strings.HasSuffix(path, "/acked"):
		return "Ack"
	}
	return "Other"
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	name := callName(req.Method, req.URL.Path)
	var resp *http.Response
	var err error
	d := t.r.call(t.parent(), name, func() { resp, err = t.inner.RoundTrip(req) })
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.rtt == nil {
		t.rtt = make(map[string][]float64)
	}
	t.rtt[name] = append(t.rtt[name], ms(d))
	if name == "Report" {
		t.reportBytes = append(t.reportBytes, float64(req.ContentLength))
		if err == nil && resp.StatusCode == http.StatusTooManyRequests {
			t.refused++
		}
	}
	return resp, err
}
