package main

import (
	"math"
	"math/rand"
	"runtime/debug"
	"sync"
	"time"

	"nvbench/internal/bench"
	"nvbench/internal/neural"
	"nvbench/internal/seq2vis"
	"nvbench/internal/spider"
)

// The train workload is the root harness's attention model on its data:
// the entries of the corpus's first twelve databases, split 80/4.5/15.5,
// capped at 1100 training, 80 validation and 120 test examples.
const (
	learningDBs = 12
	maxTrain    = 1100
	maxVal      = 80
	maxTest     = 120
	// latencySamples is how many forward passes the latency percentiles
	// cover: p99 has twenty samples beyond it, because a pass that a
	// garbage collection cycle catches takes two to four times as long.
	latencySamples = 2000
)

var modelConfig = seq2vis.Config{
	Embed: 36, Hidden: 48, Attention: true,
	LR: 2.5e-3, ClipNorm: 2.0, MaxOutLen: 48, Seed: 1,
}

// trainingData is the set-up the train workload times: examples,
// vocabularies and GloVe vectors.
type trainingData struct {
	train, val, test []seq2vis.Example
	in, out          *seq2vis.Vocab
	glove            [][]float64
}

func prepareTraining(r *run, b *bench.Benchmark) trainingData {
	tr, va, te := b.Split(0.8, 0.045, r.seed)
	capped := func(entries []*bench.Entry, n int) []seq2vis.Example {
		ex := seq2vis.ExamplesFromEntries(entries)
		return ex[:min(n, len(ex))]
	}
	d := trainingData{train: capped(tr, maxTrain), val: capped(va, maxVal), test: capped(te, maxTest)}
	var inSeqs, outSeqs [][]string
	for _, set := range [][]seq2vis.Example{d.train, d.val, d.test} {
		for _, ex := range set {
			inSeqs = append(inSeqs, ex.Input)
			outSeqs = append(outSeqs, ex.Output)
		}
	}
	d.in, d.out = seq2vis.NewVocab(inSeqs), seq2vis.NewVocab(outSeqs)
	id := r.rec.begin("seq2vis.glove", 0, -1)
	d.glove = seq2vis.PretrainGloVe(d.in, inSeqs, seq2vis.DefaultGloVeConfig(modelConfig.Embed))
	r.rec.end(id)
	return d
}

// trainWorkload is corpus → seq2vis training: a fixed number of epochs
// (one per ten seconds of -seconds, at least one) so the validation loss is
// a deterministic function of the seed, then per-example forward passes.
func trainWorkload(r *run) error {
	corpus, opts, _, err := prepareCorpus(r)
	if err != nil {
		return err
	}
	// Entries are synthesized per source pair, so building only the first
	// databases' pairs gives the same entries as filtering a full build.
	sub := &spider.Corpus{Databases: corpus.Databases[:learningDBs]}
	keep := map[string]bool{}
	for _, db := range sub.Databases {
		keep[db.Name] = true
	}
	for _, p := range corpus.Pairs {
		if keep[p.DB.Name] {
			sub.Pairs = append(sub.Pairs, p)
		}
	}
	b, err := buildOnce(r, sub, opts, -1)
	if err != nil {
		return err
	}

	debug.FreeOSMemory()
	rss := sampleRSS()
	var data trainingData
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		data = prepareTraining(r, b)
		setups = append(setups, time.Since(start).Seconds())
	}
	r.set("setup_s", median(setups))

	cfg := modelConfig
	cfg.MaxEpochs = max(1, int(r.seconds/(10*time.Second)))
	m := seq2vis.NewModel(cfg, data.in, data.out)
	m.InitInputEmbeddings(data.glove)
	var res seq2vis.TrainResult
	var trainTime time.Duration
	before := mallocs()
	gc := gcFrac(func() {
		start := time.Now()
		res = m.Train(data.train, data.val)
		trainTime = time.Since(start)
	})
	steps := len(data.train) * res.Epochs
	allocs := float64(mallocs()-before) / float64(steps)
	r.attempts += steps
	valLoss := res.ValLoss[len(res.ValLoss)-1]
	r.check(res.Epochs == cfg.MaxEpochs, "trained %d epochs, want %d", res.Epochs, cfg.MaxEpochs)
	r.check(!math.IsNaN(valLoss) && !math.IsInf(valLoss, 0), "validation loss %v is not finite", valLoss)
	r.set("throughput_per_s", float64(steps)/trainTime.Seconds())

	if r.traced() {
		if _, err := rss.end(); err != nil {
			return err
		}
		return traceTrain(r, m, data, trainTime, steps, allocs, gc, valLoss)
	}
	// Latency is one example's forward pass, the teacher-forced loss that
	// training and validation compute, from two closed-loop callers as
	// seq2vis.Evaluate runs examples. Its work is fixed by the data; a
	// greedy decode's length depends on what the half-trained model emits.
	lat := make([]float64, latencySamples)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(lat); i += clients {
				ex := data.train[i%len(data.train)]
				start := time.Now()
				m.EvalLoss([]seq2vis.Example{ex})
				lat[i] = time.Since(start).Seconds()
			}
		}(c)
	}
	wg.Wait()
	r.attempts += len(lat)
	peak, err := rss.end()
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", peak)
	return r.setLatencies(lat)
}

// traceTrain reports the training layers: forward (EvalLoss on one
// example), the rest of a training step, greedy prediction, and the
// neural primitives at the model's shapes on throwaway tensors.
func traceTrain(r *run, m *seq2vis.Model, d trainingData, trainTime time.Duration, steps int, allocs, gc, valLoss float64) error {
	r.set("seq2vis.val_loss", valLoss)
	r.set("seq2vis.allocs_per_example", allocs)
	r.set("runtime.gc_cpu_frac", gc)
	sample := d.train[:min(100, len(d.train))]
	forward := func(rec *recorder) {
		for i, ex := range sample {
			id := rec.begin("seq2vis.forward", int64(i), -1)
			m.EvalLoss([]seq2vis.Example{ex})
			rec.end(id)
		}
	}
	r.set("trace.overhead_frac", overheadFrac(r.rec, forward))
	for i, ex := range d.test {
		id := r.rec.begin("seq2vis.predict", int64(i), -1)
		seq2vis.PredictQuery(m, ex)
		r.rec.end(id)
	}

	rng := rand.New(rand.NewSource(r.seed))
	cell := neural.NewLSTMCell(modelConfig.Embed, modelConfig.Hidden, rng)
	x := neural.NewTensor(1, modelConfig.Embed)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := 0; i < 4000; i++ {
		s := cell.ZeroState()
		for t := 0; t < 8; t++ {
			id := r.rec.begin("neural.lstm_step", int64(i), -1)
			s = cell.Step(x, s)
			r.rec.end(id)
		}
	}
	var params []*neural.Tensor
	for _, p := range m.Params() {
		q := neural.NewParam(p.Rows, p.Cols, rng)
		q.Grad = make([]float64, len(q.Data))
		for j := range q.Grad {
			q.Grad[j] = rng.NormFloat64()
		}
		params = append(params, q)
	}
	opt := neural.NewAdam(params, modelConfig.LR)
	for i := 0; i < 50; i++ {
		id := r.rec.begin("neural.adam_step", int64(i), -1)
		opt.Step()
		r.rec.end(id)
	}

	self := r.rec.selfTimes()
	forwardMS := float64(self["seq2vis.forward"].perCall()) / 1e6
	r.set("seq2vis.forward_ms", forwardMS)
	// Train also runs EvalLoss over the validation set once per epoch;
	// that forward-only work is taken out of the per-step time.
	epochs := steps / len(d.train)
	stepMS := (1e3*trainTime.Seconds() - forwardMS*float64(len(d.val)*epochs)) / float64(steps)
	r.set("seq2vis.backward_opt_ms", stepMS-forwardMS)
	r.set("seq2vis.glove_ms", float64(self["seq2vis.glove"].perCall())/1e6)
	r.set("seq2vis.predict_ms", float64(self["seq2vis.predict"].perCall())/1e6)
	r.setSelf("neural.lstm_step_us", self["neural.lstm_step"], time.Microsecond)
	r.set("neural.adam_step_ms", float64(self["neural.adam_step"].perCall())/1e6)
	return nil
}
