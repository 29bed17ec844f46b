// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload from a seed, checks the program's outputs, and prints one
// JSON result line:
//
//	perfbench -workload build -seed 1 -seconds 15 -trace 0 -nvbench path/to/nvbench
//
// The benchmark sits outside the program: it reaches each layer only
// through that layer's public functions, and it measures serving through
// the real nvbench binary over loopback. Untraced runs (-trace 0) report
// the end-to-end metrics; traced runs (-trace 1) wrap each public call in a
// span of the benchmark's own recorder and report per-layer self times.
// README.md beside this file lists the workloads and why each was chosen.
// run.sh builds both binaries and is the command BENCHMARK.json names.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the untraced metrics every workload reports; their
// per-workload meaning is in README.md.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// routes are the server routes the serve workloads send, by metric label.
var routes = []string{"index", "entry", "api_entry", "vega", "entries", "query"}

// perLayer lists the traced metrics. A traced run reports all of them; a
// layer the workload never calls reads 0.
var perLayer = func() []struct{ name, unit string } {
	out := []struct{ name, unit string }{
		{"spider.generate_ms", "ms"},
		{"sqlparser.parse_us", "us"},
		{"sqlparser.parse_allocs", "count"},
		{"core.candidates_us", "us"},
		{"core.candidates_per_pair", "count"},
		{"dataset.execute_us", "us"},
		{"deepeye.verdict_us", "us"},
		{"deepeye.keep_ratio", "ratio"},
		{"nledit.variants_us", "us"},
		{"nledit.variants_allocs", "count"},
		{"bench.build_allocs_per_pair", "count"},
		{"bench.table3_ms", "ms"},
		{"store.save_ms", "ms"},
		{"store.bytes_written", "bytes"},
		{"store.files_written", "count"},
		{"store.bytes_per_entry", "bytes"},
		{"store.open_ms", "ms"},
		{"store.load_ms", "ms"},
		{"render.vegalite_us", "us"},
		{"render.page_us", "us"},
		{"vql.engine_ms", "ms"},
		{"vql.parse_us", "us"},
		{"vql.plan_us", "us"},
		{"vql.execute_us", "us"},
		{"vql.rows_scanned_per_row", "ratio"},
		{"vql.index_plan_frac", "ratio"},
		{"server.new_ms", "ms"},
	}
	for _, kind := range []struct{ prefix, unit string }{
		{"server.handler_us.", "us"}, {"server.handler_allocs.", "count"}, {"server.resp_bytes.", "bytes"},
	} {
		for _, r := range routes {
			out = append(out, struct{ name, unit string }{kind.prefix + r, kind.unit})
		}
	}
	return append(out, []struct{ name, unit string }{
		{"http.transport_us", "us"},
		{"obs.emit_ns", "ns"},
		{"obs.build_overhead_frac", "ratio"},
		{"seq2vis.glove_ms", "ms"},
		{"seq2vis.forward_ms", "ms"},
		{"seq2vis.backward_opt_ms", "ms"},
		{"seq2vis.allocs_per_example", "count"},
		{"seq2vis.predict_ms", "ms"},
		{"seq2vis.val_loss", "nats"},
		{"neural.lstm_step_us", "us"},
		{"neural.adam_step_ms", "ms"},
		{"runtime.gc_cpu_frac", "ratio"},
		{"trace.overhead_frac", "ratio"},
	}...)
}()

// setupRepeats is how many times a run performs its set-up; setup_s is
// the median.
const setupRepeats = 3

// run is one benchmark invocation's state.
type run struct {
	seed     int64
	seconds  time.Duration
	dir      string // scratch directory for stores and traces
	nvbench  string // path of the nvbench binary (serve workloads)
	rec      *recorder
	attempts int // operations and output checks attempted
	failures int // of those, the ones that failed
	wrong    int // failed output checks
	values   map[string]float64
}

// check counts one output check, logging it when it fails.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempts++
	if !ok {
		r.failures++
		r.wrong++
		log.Printf("check failed: "+format, args...)
	}
}

// fail counts one failed operation that the caller has already counted
// as attempted.
func (r *run) fail(format string, args ...any) {
	r.failures++
	log.Printf("operation failed: "+format, args...)
}

// set records a metric value.
func (r *run) set(name string, v float64) { r.values[name] = v }

// traced reports whether this is a per-layer run.
func (r *run) traced() bool { return r.rec != nil }

var workloads = map[string]func(*run) error{
	"build":        buildWorkload,
	"serve-browse": func(r *run) error { return serveWorkload(r, browseMix) },
	"serve-query":  func(r *run) error { return serveWorkload(r, queryMix) },
	"train":        trainWorkload,
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	var (
		workload = flag.String("workload", "", "workload to run: build, serve-browse, serve-query or train")
		seed     = flag.Int64("seed", 1, "workload seed; every input derives from it")
		seconds  = flag.Int("seconds", 15, "measured duration of the main phase")
		trace    = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
		nvbench  = flag.String("nvbench", "", "path of the nvbench binary (serve workloads)")
		workDir  = flag.String("dir", ".bench_build/run", "scratch directory for stores and span dumps")
		setup    = flag.Bool("setup-only", false, "time the build set-up once in this process, print the seconds and exit")
	)
	flag.Parse()
	if *setup {
		if err := setupOnly(*seed); err != nil {
			log.Fatal(err)
		}
		return
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		log.Fatalf("usage: -workload build|serve-browse|serve-query|train -seed N -seconds N -trace 0|1")
	}
	r := &run{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		dir:     filepath.Join(*workDir, fmt.Sprintf("%s-%d-%d", *workload, *seed, *trace)),
		nvbench: *nvbench,
		values:  map[string]float64{},
	}
	if *trace == 1 {
		r.rec = newRecorder()
	}
	if err := os.RemoveAll(r.dir); err != nil {
		log.Fatal(err)
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		log.Fatal(err)
	}
	if err := fn(r); err != nil {
		log.Fatalf("%s: %v", *workload, err)
	}
	names := endToEnd
	if r.traced() {
		names = perLayer
		path := filepath.Join(*workDir, fmt.Sprintf("spans-%s-%d.json", *workload, *seed))
		if err := r.rec.write(path); err != nil {
			log.Fatal(err)
		}
	}
	res := result{Correct: r.wrong == 0, Attempted: r.attempts, Failed: r.failures, Metrics: map[string]metric{}}
	for _, m := range names {
		v, ok := r.values[m.name]
		if !ok && !r.traced() {
			log.Fatalf("%s: metric %s was not measured", *workload, m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			log.Fatalf("%s: metric %s is %v", *workload, m.name, v)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	// The stores are large; the span dump and the printed result are what
	// a run leaves behind.
	if err := os.RemoveAll(r.dir); err != nil {
		log.Fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(out))
}

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs,
// sorting xs in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// median returns the median of xs without reordering the caller's slice.
func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// setLatencies records latency_p50_ms and latency_p99_ms from per-operation
// latencies in seconds. p99 needs at least ten samples beyond it.
func (r *run) setLatencies(lat []float64) error {
	if len(lat) < 1000 {
		return fmt.Errorf("%d latency samples; p99 needs at least 1000", len(lat))
	}
	r.set("latency_p50_ms", 1e3*percentile(lat, 0.50))
	r.set("latency_p99_ms", 1e3*percentile(lat, 0.99))
	return nil
}
