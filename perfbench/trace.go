package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Start and End are nanoseconds since
// the recorder was created; Parent is the index of the enclosing span, or
// -1; Op groups the spans of one operation (a source pair, a request, a
// training example).
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder holds spans in memory until the run ends. The benchmark keeps
// its own recorder rather than the program's obs package so that a change
// to obs cannot change how the benchmark measures. A nil *recorder records
// nothing, which is how untraced passes run the same code.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index (-1 on a nil recorder).
func (r *recorder) begin(name string, op int64, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: now})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// layerTime is the self time a layer accumulated over its spans.
type layerTime struct {
	self  time.Duration
	calls int
}

// perCall returns the mean self time of one call.
func (t layerTime) perCall() time.Duration {
	if t.calls == 0 {
		return 0
	}
	return t.self / time.Duration(t.calls)
}

// selfTimes sums, per span name, each span's duration minus the time its
// child spans cover. Children of one span never overlap: each is a call
// made in sequence by the benchmark.
func (r *recorder) selfTimes() map[string]layerTime {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]layerTime{}
	for i, s := range r.spans {
		t := out[s.Name]
		t.self += time.Duration(s.End - s.Start - child[i])
		t.calls++
		out[s.Name] = t
	}
	return out
}

// write dumps every span as JSON, one array.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(r.spans); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// overheadFrac runs pass without spans and with them, alternating, three
// times each, and returns how much longer the traced passes took, by
// median. The traced passes are also where the spans come from.
func overheadFrac(rec *recorder, pass func(*recorder)) float64 {
	var bare, traced []float64
	for i := 0; i < 3; i++ {
		for _, x := range []*recorder{nil, rec} {
			start := time.Now()
			pass(x)
			if x == nil {
				bare = append(bare, time.Since(start).Seconds())
			} else {
				traced = append(traced, time.Since(start).Seconds())
			}
		}
	}
	return median(traced)/median(bare) - 1
}

// setSelf records a layer's mean self time per call in the given unit.
func (r *run) setSelf(metricName string, t layerTime, unit time.Duration) {
	r.set(metricName, float64(t.perCall())/float64(unit))
}

// mallocs returns the process's cumulative heap allocation count. Callers
// count allocations of a batch of calls made with no other goroutine of
// the benchmark running.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// cpuClock reads the runtime's cumulative GC and total CPU seconds.
func cpuClock() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// gcFrac measures the share of the process's CPU time spent in GC while
// f runs.
func gcFrac(f func()) float64 {
	gc0, tot0 := cpuClock()
	f()
	gc1, tot1 := cpuClock()
	if tot1 <= tot0 {
		return 0
	}
	return (gc1 - gc0) / (tot1 - tot0)
}

// rssSampler tracks the largest resident set size of this process,
// sampled every 10ms while it runs. Callers free the earlier phases'
// garbage first (debug.FreeOSMemory), so the peak is the phase's own.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak float64 // MB
	err  error
}

func sampleRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			mb, err := procStatusMB("self", "VmRSS:")
			if err != nil {
				s.err = err
				return
			}
			s.peak = max(s.peak, mb)
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// end stops sampling and returns the peak in MB.
func (s *rssSampler) end() (float64, error) {
	close(s.stop)
	<-s.done
	return s.peak, s.err
}

// peakRSSMB reads VmHWM, the peak resident set size, of process pid
// ("self" for this process) in MB.
func peakRSSMB(pid string) (float64, error) { return procStatusMB(pid, "VmHWM:") }

// procStatusMB reads one kB-valued field of /proc/<pid>/status in MB.
func procStatusMB(pid, field string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%s/status", field, pid)
}
