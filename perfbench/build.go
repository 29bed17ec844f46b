package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"nvbench/internal/bench"
	"nvbench/internal/core"
	"nvbench/internal/dataset"
	"nvbench/internal/deepeye"
	"nvbench/internal/obs"
	"nvbench/internal/spider"
	"nvbench/internal/sqlparser"
	"nvbench/internal/store"
)

// corpusConfig is corpus k of a seed at the root harness scale: 40
// databases of 16 pairs. Corpus 0 is the one `nvbench -seed N` builds;
// the build workload also times corpora 1, 2, ... The generator reduces
// its seed modulo 2³¹-1, so the others are spaced to stay distinct.
func corpusConfig(seed int64, k int) spider.Config {
	if k > 0 {
		seed = seed*1_000_003 + int64(k)
	}
	return spider.Config{Seed: seed, NumDatabases: 40, PairsPerDB: 16, MaxRows: 2000}
}

// cliInstruments mirrors the observability bundle nvbench builds with:
// a run-scoped registry and the wide-event recorder on.
func cliInstruments() *obs.Instruments {
	reg := obs.NewRegistry()
	obs.RegisterBase(reg)
	return &obs.Instruments{
		Metrics: reg,
		Clock:   obs.RealClock{},
		Log:     obs.NewLogger(os.Stderr, obs.RealClock{}),
		Events:  obs.NewEventRecorder(obs.DefaultEventCapacity, obs.RealClock{}),
		IDs:     obs.NewIDGen(obs.RealClock{}),
	}
}

// prepareCorpus generates the seed's corpus and the default build options
// the way nvbench does, and returns the time that took. DefaultOptions
// trains the DeepEye classifier in its core.New, once per process.
func prepareCorpus(r *run) (*spider.Corpus, bench.Options, float64, error) {
	start := time.Now()
	corpus, err := spider.Generate(corpusConfig(r.seed, 0))
	if err != nil {
		return nil, bench.Options{}, 0, err
	}
	r.set("spider.generate_ms", 1e3*time.Since(start).Seconds())
	opts := bench.DefaultOptions()
	took := time.Since(start).Seconds()
	opts.Obs = cliInstruments()
	return corpus, opts, took, nil
}

// setupOnly is the -setup-only mode: a fresh process prepares the corpus
// and prints how long that took, so each set-up sample pays for the
// classifier training that the first one in a process pays.
func setupOnly(seed int64) error {
	_, _, took, err := prepareCorpus(&run{seed: seed, values: map[string]float64{}})
	if err != nil {
		return err
	}
	fmt.Println(took)
	return nil
}

// buildSetups returns this process's set-up time plus those of fresh
// processes, setupRepeats samples in all.
func buildSetups(r *run, first float64) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	times := []float64{first}
	for len(times) < setupRepeats {
		out, err := exec.Command(self, "-setup-only", "-seed", strconv.FormatInt(r.seed, 10)).Output()
		if err != nil {
			return nil, fmt.Errorf("set-up process: %w", err)
		}
		took, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up process printed %q: %w", out, err)
		}
		times = append(times, took)
	}
	return times, nil
}

// pairClock is a bench.PairCache that never hits. Build asks it for a pair
// before synthesizing the pair and hands it the outcome when the pair is
// done, so the two calls bracket each pair's latency from outside the
// program without changing what Build computes. Each pair is handled by
// one worker, and the latencies are read after Build returns.
type pairClock struct {
	index map[*spider.Pair]int
	start []time.Time
	lat   []float64 // seconds, by pair index
}

func newPairClock(pairs []*spider.Pair) *pairClock {
	c := &pairClock{index: map[*spider.Pair]int{}, start: make([]time.Time, len(pairs)), lat: make([]float64, len(pairs))}
	for i, p := range pairs {
		c.index[p] = i
	}
	return c
}

func (c *pairClock) Get(p *spider.Pair) (*bench.PairOutcome, bool) {
	c.start[c.index[p]] = time.Now()
	return nil, false
}

func (c *pairClock) Put(p *spider.Pair, _ *bench.PairOutcome) error {
	i := c.index[p]
	c.lat[i] = time.Since(c.start[i]).Seconds()
	return nil
}

// buildOnce runs one bench.Build, counting each source pair as an
// attempted operation and each quarantined pair as a failed one, and
// checks that the build matches the entry count of the first build of
// the run (want < 0 on the first).
func buildOnce(r *run, corpus *spider.Corpus, opts bench.Options, want int) (*bench.Benchmark, error) {
	b, err := bench.Build(corpus, opts)
	if err != nil {
		return nil, err
	}
	r.attempts += len(corpus.Pairs)
	for _, q := range b.Quarantine {
		r.fail("pair %d quarantined at %s: %s", q.PairID, q.Stage, q.Err)
	}
	if want >= 0 {
		r.check(len(b.Entries) == want, "rebuild made %d entries, first build %d", len(b.Entries), want)
	}
	return b, nil
}

// savedStore describes one cold save.
type savedStore struct {
	dir      string
	seconds  float64
	rootHash string // SHA-256 of the root manifest
	bytes    int64
	files    int
}

// saveCold saves b into a fresh store directory with the CLI defaults
// (16 shards, one copy), as `nvbench -store DIR -save` does.
func saveCold(r *run, b *bench.Benchmark, opts bench.Options, dir string) (savedStore, error) {
	out := savedStore{dir: dir}
	start := time.Now()
	st, err := store.OpenReplicated(dir)
	if err != nil {
		return out, err
	}
	st.Instrument(opts.Obs)
	if _, err := st.Save(b, store.BuildInfo{Seed: r.seed, Fingerprint: store.Fingerprint(opts)}); err != nil {
		return out, err
	}
	out.seconds = time.Since(start).Seconds()
	manifest, err := os.ReadFile(filepath.Join(dir, "MANIFEST.json"))
	if err != nil {
		return out, err
	}
	sum := sha256.Sum256(manifest)
	out.rootHash = hex.EncodeToString(sum[:])
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		out.bytes += info.Size()
		out.files++
		return nil
	})
	return out, err
}

// loadStore opens and loads a saved store, timing both steps.
func loadStore(dir string) (b *bench.Benchmark, m *store.Manifest, openS, loadS float64, err error) {
	start := time.Now()
	st, err := store.OpenReplicated(dir)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	openS = time.Since(start).Seconds()
	start = time.Now()
	b, m, err = st.Load()
	loadS = time.Since(start).Seconds()
	return b, m, openS, loadS, err
}

// corporaPerSecond sets how many corpora the build workload times: a
// fixed count per second of -seconds, rather than as many as fit, so a
// seed always meets the same inputs however fast the program is.
const corporaPerSecond = 4

// buildWorkload is corpus → build → save: repeated bench.Build with the
// CLI's options, then cold saves and a load-back. The timed builds each
// take a further corpus of the seed, generated just before its build and
// not timed, and throughput is the median of their rates. Build cost is
// heavy-tailed: most pairs take under a millisecond, but a scalar
// subquery over a 2000-row table can take seconds, and a corpus's rate
// varies by a fifth with the pairs it draws. Many distinct corpora and a
// median keep one run's figure from resting on a few such pairs.
func buildWorkload(r *run) error {
	corpus, opts, took, err := prepareCorpus(r)
	if err != nil {
		return err
	}
	setups, err := buildSetups(r, took)
	if err != nil {
		return err
	}
	r.set("setup_s", median(setups))
	// The first build warms caches and lazy set-up; it is not timed.
	first, err := buildOnce(r, corpus, opts, -1)
	if err != nil {
		return err
	}
	if r.traced() {
		if err := traceBuild(r, corpus, opts, first); err != nil {
			return err
		}
	} else {
		var lat, rates []float64
		debug.FreeOSMemory()
		rss := sampleRSS()
		for k := 1; k <= corporaPerSecond*int(r.seconds/time.Second); k++ {
			c, err := spider.Generate(corpusConfig(r.seed, k))
			if err != nil {
				// A few corpora in a thousand have a pair whose generated
				// SQL the program's own parser rejects (a negative
				// literal). It counts as a failed operation, and the run
				// goes on with the next corpus.
				r.attempts++
				r.fail("corpus %d: %v", k, err)
				continue
			}
			clock := newPairClock(c.Pairs)
			o := opts
			o.Cache = clock
			start := time.Now()
			if _, err := buildOnce(r, c, o, -1); err != nil {
				return err
			}
			rates = append(rates, float64(len(c.Pairs))/time.Since(start).Seconds())
			for _, l := range clock.lat {
				if l > 0 { // a quarantined pair has no latency
					lat = append(lat, l)
				}
			}
		}
		peak, err := rss.end()
		if err != nil {
			return err
		}
		r.set("peak_rss_mb", peak)
		r.set("throughput_per_s", median(rates))
		if err := r.setLatencies(lat); err != nil {
			return err
		}
	}

	// Two builds saved into fresh stores must give the same root manifest,
	// and loading gives back every entry.
	last, err := buildOnce(r, corpus, opts, len(first.Entries))
	if err != nil {
		return err
	}
	var saves []savedStore
	for i, b := range []*bench.Benchmark{first, last} {
		s, err := saveCold(r, b, opts, filepath.Join(r.dir, fmt.Sprintf("store%d", i)))
		if err != nil {
			return err
		}
		saves = append(saves, s)
	}
	r.check(saves[0].rootHash == saves[1].rootHash, "root manifest hash %s differs from %s after a rebuild", saves[1].rootHash, saves[0].rootHash)
	loaded, _, openS, loadS, err := loadStore(saves[1].dir)
	if err != nil {
		return err
	}
	r.check(len(loaded.Entries) == len(last.Entries), "load gave %d entries, build made %d", len(loaded.Entries), len(last.Entries))

	if r.traced() {
		r.set("store.save_ms", 1e3*median([]float64{saves[0].seconds, saves[1].seconds}))
		r.set("store.bytes_written", float64(saves[1].bytes))
		r.set("store.files_written", float64(saves[1].files))
		r.set("store.bytes_per_entry", float64(saves[1].bytes)/float64(len(last.Entries)))
		r.set("store.open_ms", 1e3*openS)
		r.set("store.load_ms", 1e3*loadS)
	}
	return nil
}

// traceBuild measures the synthesis layers one public call at a time. It
// walks each source pair through the same steps bench.Build takes —
// parse, candidate enumeration, candidate execution, the DeepEye verdict
// and NL variants — with a span around every call, then measures the
// bench layer itself: allocations per pair, the events-on overhead and
// Table 3.
func traceBuild(r *run, corpus *spider.Corpus, opts bench.Options, b *bench.Benchmark) error {
	synth, edit := opts.Synth, opts.Edit
	var cands, kept int
	pipeline := func(rec *recorder) {
		cands, kept = 0, 0
		for _, p := range corpus.Pairs {
			op := int64(p.ID)
			pair := rec.begin("pair", op, -1)
			id := rec.begin("sqlparser.parse", op, pair)
			q, err := sqlparser.TryParse(p.SQL, p.DB)
			rec.end(id)
			if err != nil {
				q = p.Query
			}
			id = rec.begin("core.candidates", op, pair)
			cs := synth.Candidates(p.DB, q)
			rec.end(id)
			cands += len(cs)
			var keep []core.Candidate
			for _, c := range cs {
				id = rec.begin("dataset.execute", op, pair)
				res, err := dataset.Execute(p.DB, c.Query)
				rec.end(id)
				if err != nil {
					continue
				}
				id = rec.begin("deepeye.verdict", op, pair)
				feats := deepeye.FromResult(p.DB, c.Query, res)
				ok, _ := deepeye.RuleCheck(feats)
				if ok && synth.Filter != nil {
					ok, _ = synth.Filter.PredictSafe(feats)
				}
				rec.end(id)
				if ok {
					keep = append(keep, c)
				}
			}
			kept += len(keep)
			for _, c := range keep {
				id = rec.begin("nledit.variants", op, pair)
				edit.Variants(p.NL, c.Query, c.Edit)
				rec.end(id)
			}
			rec.end(pair)
		}
	}
	r.set("trace.overhead_frac", overheadFrac(r.rec, pipeline))
	self := r.rec.selfTimes()
	r.setSelf("sqlparser.parse_us", self["sqlparser.parse"], time.Microsecond)
	r.setSelf("core.candidates_us", self["core.candidates"], time.Microsecond)
	r.setSelf("dataset.execute_us", self["dataset.execute"], time.Microsecond)
	r.setSelf("deepeye.verdict_us", self["deepeye.verdict"], time.Microsecond)
	r.setSelf("nledit.variants_us", self["nledit.variants"], time.Microsecond)
	r.set("core.candidates_per_pair", float64(cands)/float64(len(corpus.Pairs)))
	r.set("deepeye.keep_ratio", float64(kept)/float64(cands))
	r.check(kept > 0, "the DeepEye verdict kept no candidate")

	// Allocation counts come from separate untraced batches.
	before := mallocs()
	for _, p := range corpus.Pairs {
		sqlparser.TryParse(p.SQL, p.DB)
	}
	r.set("sqlparser.parse_allocs", float64(mallocs()-before)/float64(len(corpus.Pairs)))
	before = mallocs()
	for _, e := range b.Entries {
		edit.Variants(e.SourceNL, e.Vis, e.Edit)
	}
	r.set("nledit.variants_allocs", float64(mallocs()-before)/float64(len(b.Entries)))
	before = mallocs()
	if _, err := buildOnce(r, corpus, opts, len(b.Entries)); err != nil {
		return err
	}
	r.set("bench.build_allocs_per_pair", float64(mallocs()-before)/float64(len(corpus.Pairs)))

	// Events-on (the CLI's instruments) against Obs nil, alternating.
	bareOpts := opts
	bareOpts.Obs = nil
	bareSynth := *opts.Synth
	bareSynth.Obs = nil
	bareOpts.Synth = &bareSynth
	var on, off []float64
	var gcErr error
	r.set("runtime.gc_cpu_frac", gcFrac(func() {
		for i := 0; i < 3; i++ {
			for _, o := range []bench.Options{opts, bareOpts} {
				start := time.Now()
				if _, err := buildOnce(r, corpus, o, len(b.Entries)); err != nil {
					gcErr = err
					return
				}
				if o.Obs != nil {
					on = append(on, time.Since(start).Seconds())
				} else {
					off = append(off, time.Since(start).Seconds())
				}
			}
		}
	}))
	if gcErr != nil {
		return gcErr
	}
	r.set("obs.build_overhead_frac", median(on)/median(off)-1)

	var t3 []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		b.Table3()
		t3 = append(t3, time.Since(start).Seconds())
	}
	r.set("bench.table3_ms", 1e3*median(t3))
	r.set("obs.emit_ns", emitNS())
	return nil
}

// emitNS times obs.EventRecorder.Emit, the per-event cost every
// instrumented layer pays.
func emitNS() float64 {
	rec := obs.NewEventRecorder(obs.DefaultEventCapacity, obs.RealClock{})
	const n = 200000
	start := time.Now()
	for i := 0; i < n; i++ {
		rec.Emit("op", obs.LayerVQL, "query", "ok", time.Millisecond, "rows", "1")
	}
	return float64(time.Since(start).Nanoseconds()) / n
}
