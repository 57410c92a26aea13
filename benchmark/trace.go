package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"

	hpbrcu "github.com/smrgo/hpbrcu"
)

// Tracing is done entirely from benchmark/'s own files: spans are
// recorded around the calls into each layer, kept in memory and written
// at exit. End-to-end metrics never come from a traced run.

// span is one timed interval at a layer boundary. Client-side spans of
// one request share ID; Parent names the enclosing span's name ("" for a
// root). Server-side facade spans cannot see the request id from outside
// the program, so they carry the key instead: a facade span belongs to
// the request with the same key whose wait_reply interval contains it.
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Parent  string `json:"parent,omitempty"`
	ID      uint64 `json:"id,omitempty"`
	Key     int64  `json:"key,omitempty"`
	Worker  int32  `json:"worker"`
	N       int32  `json:"n"` // calls covered by the span
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// maxSpans caps one recorder so a 100 k req/s service pass cannot grow
// the trace without bound; drops past the cap are counted.
const maxSpans = 1 << 18

// tracer is a fixed-capacity, lock-free span log shared by every
// goroutine of a traced pass.
type tracer struct {
	next    atomic.Int64
	spans   []span
	dropped atomic.Int64
}

func newTracer() *tracer {
	return &tracer{spans: make([]span, maxSpans)}
}

func (t *tracer) add(s span) {
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = s
}

func (t *tracer) recorded() []span {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// traceFile is the on-disk shape of -trace-out.
type traceFile struct {
	Meta    map[string]any `json:"meta"`
	Dropped int64          `json:"dropped_spans"`
	Spans   []span         `json:"spans"`
}

// traceLog accumulates the spans of every traced pass of a process.
type traceLog struct {
	spans   []span
	dropped int64
}

func (l *traceLog) absorb(section string, t *tracer) {
	if l == nil || t == nil {
		return
	}
	for _, s := range t.recorded() {
		s.Layer = section + "/" + s.Layer
		l.spans = append(l.spans, s)
	}
	l.dropped += t.dropped.Load()
}

func (l *traceLog) write(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(traceFile{Meta: meta, Dropped: l.dropped, Spans: l.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanMap wraps the store handed to server.Config.Map in a traced
// service pass and records one "facade" span per call. hpbrcu.Pressure
// type-switches on the concrete map, so behind this wrapper the server's
// degradation-ladder rungs 1 and 3 see PressureOK; the untraced
// closed-loop run must therefore show zero -BUSY replies on its own.
//
// Only the three calls server.dispatch makes are wrapped; the rest of
// the interface passes through the embedded map.
type spanMap struct {
	hpbrcu.Map
	t *tracer
}

func (m *spanMap) rec(name string, key int64, t0 int64) {
	m.t.add(span{Name: name, Layer: "facade", Parent: "wait_reply", Key: key, Worker: -1, N: 1, StartNS: t0, EndNS: nowNS()})
}

func (m *spanMap) Get(key int64) (int64, bool, error) {
	t0 := nowNS()
	v, ok, err := m.Map.Get(key)
	m.rec("Get", key, t0)
	return v, ok, err
}

func (m *spanMap) TryInsert(key, val int64) (bool, error) {
	t0 := nowNS()
	ok, err := m.Map.TryInsert(key, val)
	m.rec("TryInsert", key, t0)
	return ok, err
}

func (m *spanMap) Remove(key int64) (int64, bool, error) {
	t0 := nowNS()
	v, ok, err := m.Map.Remove(key)
	m.rec("Remove", key, t0)
	return v, ok, err
}
