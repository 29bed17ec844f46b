package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"nvbench/internal/bench"
	"nvbench/internal/render"
	"nvbench/internal/server"
	"nvbench/internal/store"
	"nvbench/internal/vql"
)

// clients is the closed loop's size: one keep-alive client per core of
// the reference machine, each sending its next request only after the
// previous response is read.
const clients = 2

// warmup is how long traffic runs before measuring, so connections are
// open and lazy set-up in the server is done.
const warmup = time.Second

// inProcessRequests is the length of the request stream a traced run
// sends through ServeHTTP in each of its passes.
const inProcessRequests = 1500

// request is one generated HTTP request.
type request struct {
	route string // metric label, one of routes
	path  string
	entry int    // index into the served entries, or -1
	query string // VQL text for the query route
}

// served is what the benchmark knows about the store nvbench serves,
// loaded in-process from the same directory.
type served struct {
	b       *bench.Benchmark
	m       *store.Manifest
	queries []string          // the query workload's pool, drawn from the seed
	want    map[string][]byte // expected result rows per query, from an index-free engine
}

// mix is a workload's traffic: how it draws its next request, and
// whether it needs the seed's query pool.
type mix struct {
	next    func(rng *rand.Rand, s *served) request
	queries bool
}

var (
	browseMix = mix{next: browse}
	queryMix  = mix{next: query, queries: true}
)

// browse reads entries chosen uniformly over the whole store, so a cache
// of rendered bodies gets no hot set to hide in.
func browse(rng *rand.Rand, s *served) request {
	i := rng.Intn(len(s.b.Entries))
	id := s.b.Entries[i].ID
	switch x := rng.Intn(100); {
	case x < 40:
		return request{route: "entry", path: fmt.Sprintf("/entry/%d", id), entry: i}
	case x < 65:
		return request{route: "vega", path: fmt.Sprintf("/api/entry/%d/vega", id), entry: i}
	case x < 88:
		return request{route: "api_entry", path: fmt.Sprintf("/api/entry/%d", id), entry: i}
	case x < 98:
		offset := 100 * rng.Intn(len(s.b.Entries)/100+1)
		return request{route: "entries", path: fmt.Sprintf("/api/entries?offset=%d&limit=100", offset), entry: -1}
	default:
		return request{route: "index", path: "/", entry: -1}
	}
}

// query sends only /api/query, drawn from the seed's query pool.
func query(rng *rand.Rand, s *served) request {
	q := s.queries[rng.Intn(len(s.queries))]
	return request{route: "query", path: "/api/query?q=" + url.QueryEscape(q), entry: -1, query: q}
}

// queryPool draws the query workload's statements from the seed: 32
// draws of constants for each of eight shapes, so that one seed's
// constants do not decide the mix's cost. The shapes cover equality on the indexed columns (db, chart, hardness),
// range predicates that need a full scan (tokens, nl_count), GROUP BY,
// ORDER BY and LIMIT, and the stats table.
func queryPool(rng *rand.Rand, b *bench.Benchmark) []string {
	pick := func() *bench.Entry { return b.Entries[rng.Intn(len(b.Entries))] }
	var out []string
	for i := 0; i < 32; i++ {
		out = append(out,
			fmt.Sprintf("SELECT hardness, chart, count(*) FROM entries WHERE db = '%s' GROUP BY 1, 2 ORDER BY 3 DESC", pick().DB.Name),
			fmt.Sprintf("SELECT db, count(*) FROM entries WHERE chart = '%s' GROUP BY db ORDER BY 2 DESC LIMIT 10", pick().Chart),
			fmt.Sprintf("SELECT id, db, chart FROM entries WHERE hardness = '%s' AND nl_count >= %d LIMIT 20", pick().Hardness, 1+rng.Intn(3)),
			fmt.Sprintf("SELECT chart, count(*), avg(tokens) FROM entries WHERE tokens > %d GROUP BY chart ORDER BY 2 DESC", 5+rng.Intn(20)),
			fmt.Sprintf("SELECT id, vql FROM entries WHERE nl_count <= %d AND tokens < %d ORDER BY id DESC LIMIT 25", 1+rng.Intn(4), 8+rng.Intn(20)),
			"SELECT chart, num_vis, num_pairs, avg_bleu FROM stats ORDER BY num_vis DESC",
			fmt.Sprintf("SELECT db, count(*), max(tokens) FROM entries GROUP BY db ORDER BY 2 DESC LIMIT %d", 3+rng.Intn(8)),
			fmt.Sprintf("SELECT domain, hardness, min(tokens), max(nl_count) FROM entries WHERE db = '%s' OR chart = '%s' GROUP BY 1, 2", pick().DB.Name, pick().Chart),
		)
	}
	return out
}

// queryRows is the part of an /api/query result that must not depend on
// how the query was planned.
type queryRows struct {
	Columns  []string        `json:"columns"`
	Rows     json.RawMessage `json:"rows"`
	RowCount int             `json:"row_count"`
	Scanned  int             `json:"scanned"`
	Index    string          `json:"index"`
}

// canonical renders the plan-independent part of a result.
func (q queryRows) canonical() ([]byte, error) {
	var rows bytes.Buffer
	if err := json.Compact(&rows, q.Rows); err != nil {
		return nil, err
	}
	return json.Marshal(struct {
		Columns  []string
		Rows     json.RawMessage
		RowCount int
	}{q.Columns, rows.Bytes(), q.RowCount})
}

// prepareServed builds and saves the seed's store, as `nvbench -save`
// does, and loads it back in-process for the output checks. None of this
// is timed.
func prepareServed(r *run, m mix) (string, *served, error) {
	corpus, opts, _, err := prepareCorpus(r)
	if err != nil {
		return "", nil, err
	}
	b, err := buildOnce(r, corpus, opts, -1)
	if err != nil {
		return "", nil, err
	}
	dir := filepath.Join(r.dir, "store")
	if _, err := saveCold(r, b, opts, dir); err != nil {
		return "", nil, err
	}
	loaded, manifest, _, _, err := loadStore(dir)
	if err != nil {
		return "", nil, err
	}
	s := &served{b: loaded, m: manifest}
	if m.queries {
		s.queries = queryPool(rand.New(rand.NewSource(r.seed)), loaded)
		engine := vql.NewEngine(loaded)
		s.want = map[string][]byte{}
		for _, q := range s.queries {
			res, err := engine.Query(q)
			if err != nil {
				return "", nil, fmt.Errorf("query pool: %q: %w", q, err)
			}
			data, err := json.Marshal(res)
			if err != nil {
				return "", nil, err
			}
			var rows queryRows
			if err := json.Unmarshal(data, &rows); err != nil {
				return "", nil, err
			}
			if s.want[q], err = rows.canonical(); err != nil {
				return "", nil, err
			}
		}
	}
	return dir, s, nil
}

// nvbenchProc is one running `nvbench -store DIR -serve ADDR`.
type nvbenchProc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan error
	once sync.Once
	err  error // exit result, set by stop
}

// freeAddr picks a loopback port that is free now.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startServer execs nvbench on the store and waits until /readyz answers
// 200, returning the time from exec to ready.
func startServer(r *run, storeDir string) (*nvbenchProc, time.Duration, error) {
	if r.nvbench == "" {
		return nil, 0, errors.New("serve workloads need -nvbench")
	}
	poll := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, 0, err
		}
		logf, err := os.OpenFile(filepath.Join(r.dir, "nvbench.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, 0, err
		}
		p := &nvbenchProc{base: "http://" + addr, done: make(chan error, 1)}
		p.cmd = exec.Command(r.nvbench, "-store", storeDir, "-serve", addr)
		p.cmd.Stderr = logf
		// The server must not outlive the benchmark, however it ends.
		p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		start := time.Now()
		if err := p.cmd.Start(); err != nil {
			logf.Close()
			return nil, 0, err
		}
		go func() { p.done <- p.cmd.Wait(); logf.Close() }()
		for {
			resp, err := poll.Get(p.base + "/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return p, time.Since(start), nil
				}
			}
			select {
			case err := <-p.done:
				p.done <- err
				lastErr = fmt.Errorf("nvbench exited before ready: %v (see %s)", err, logf.Name())
			case <-time.After(5 * time.Millisecond):
				if time.Since(start) < time.Minute {
					continue
				}
				p.stop()
				lastErr = errors.New("nvbench not ready after a minute")
			}
			break
		}
	}
	return nil, 0, lastErr
}

// stop sends SIGTERM, waits for the graceful drain, and kills the process
// if it has not exited after ten seconds. Later calls return the first
// call's result.
func (p *nvbenchProc) stop() error {
	p.once.Do(func() {
		p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case p.err = <-p.done:
		case <-time.After(10 * time.Second):
			p.cmd.Process.Kill()
			<-p.done
			p.err = errors.New("nvbench ignored SIGTERM for ten seconds")
		}
	})
	return p.err
}

// response is one completed request kept for the output checks.
type response struct {
	req    request
	status int
	etag   string
	body   []byte
}

// loopResult is what a closed loop measured.
type loopResult struct {
	lat     []float64 // seconds, one per completed request
	byRoute map[string][]float64
	failed  int
	kept    []response
}

// closedLoop runs n clients against base for d, each drawing requests
// from its own seeded stream. Every keepEvery-th response per client is
// kept whole for the output checks (0 keeps none).
func closedLoop(base string, n int, d time.Duration, seed int64, s *served, m mix, keepEvery int) loopResult {
	tr := &http.Transport{MaxIdleConnsPerHost: n, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	parts := make([]loopResult, n)
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
			out := loopResult{byRoute: map[string][]float64{}}
			var buf bytes.Buffer
			for i := 0; time.Now().Before(deadline); i++ {
				req := m.next(rng, s)
				start := time.Now()
				resp, err := client.Get(base + req.path)
				if err != nil {
					out.failed++
					continue
				}
				buf.Reset()
				_, err = buf.ReadFrom(resp.Body)
				resp.Body.Close()
				lat := time.Since(start).Seconds()
				if err != nil || resp.StatusCode != http.StatusOK {
					out.failed++
					continue
				}
				out.lat = append(out.lat, lat)
				out.byRoute[req.route] = append(out.byRoute[req.route], lat)
				if keepEvery > 0 && i%keepEvery == 0 {
					kept := response{req: req, status: resp.StatusCode, etag: resp.Header.Get("ETag")}
					if req.route == "vega" || req.route == "api_entry" || req.route == "query" {
						kept.body = bytes.Clone(buf.Bytes())
					}
					out.kept = append(out.kept, kept)
				}
			}
			parts[c] = out
		}(c)
	}
	wg.Wait()
	all := loopResult{byRoute: map[string][]float64{}}
	for _, p := range parts {
		all.lat = append(all.lat, p.lat...)
		all.failed += p.failed
		all.kept = append(all.kept, p.kept...)
		for k, v := range p.byRoute {
			all.byRoute[k] = append(all.byRoute[k], v...)
		}
	}
	return all
}

// checkResponses verifies kept responses against the in-process load of
// the same store: a vega body is byte-equal to render.VegaLite of the
// entry, an entry's ETag is its manifest hash, an API entry carries its
// id, and a query result equals the index-free engine's.
func checkResponses(r *run, s *served, kept []response) {
	hashes := s.m.EntryHashes()
	for _, resp := range kept {
		req := resp.req
		switch req.route {
		case "vega", "entry", "api_entry":
			e := s.b.Entries[req.entry]
			r.check(resp.etag == `"`+hashes[req.entry]+`"`, "%s: ETag %s, manifest hash %s", req.path, resp.etag, hashes[req.entry])
			switch req.route {
			case "vega":
				spec, err := render.VegaLite(e.DB, e.Vis)
				r.check(err == nil && bytes.Equal(spec, resp.body), "%s: body differs from render.VegaLite of the loaded entry (%v)", req.path, err)
			case "api_entry":
				var got struct {
					ID int `json:"id"`
				}
				err := json.Unmarshal(resp.body, &got)
				r.check(err == nil && got.ID == e.ID, "%s: got id %d (%v)", req.path, got.ID, err)
			}
		case "query":
			var got queryRows
			err := json.Unmarshal(resp.body, &got)
			var canon []byte
			if err == nil {
				canon, err = got.canonical()
			}
			r.check(err == nil && bytes.Equal(canon, s.want[req.query]), "%q: served rows differ from the index-free engine (%v)", req.query, err)
		}
	}
}

// serveWorkload is store → load → serve: nvbench serves the seed's store
// and a closed loop of clients sends the workload's mix over loopback.
func serveWorkload(r *run, next mix) error {
	dir, s, err := prepareServed(r, next)
	if err != nil {
		return err
	}
	if r.traced() {
		return traceServe(r, dir, s, next)
	}
	var setups []float64
	var p *nvbenchProc
	for i := 0; i < setupRepeats; i++ {
		proc, took, err := startServer(r, dir)
		if err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
		if i < setupRepeats-1 {
			if err := proc.stop(); err != nil {
				return err
			}
			continue
		}
		p = proc
	}
	defer p.stop()
	r.set("setup_s", median(setups))

	closedLoop(p.base, clients, warmup, r.seed+1, s, next, 0)
	start := time.Now()
	res := closedLoop(p.base, clients, r.seconds, r.seed, s, next, 16)
	elapsed := time.Since(start)
	r.attempts += len(res.lat)
	r.attempts += res.failed
	for i := 0; i < res.failed; i++ {
		r.fail("request failed or was not 200")
	}
	r.set("throughput_per_s", float64(len(res.lat))/elapsed.Seconds())
	for _, route := range routes {
		if lat := res.byRoute[route]; len(lat) > 0 {
			log.Printf("%-9s %6d requests, p50 %.3f ms", route, len(lat), 1e3*percentile(lat, 0.5))
		}
	}
	if err := r.setLatencies(res.lat); err != nil {
		return err
	}
	rss, err := peakRSSMB(strconv.Itoa(p.cmd.Process.Pid))
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss)
	checkResponses(r, s, res.kept)
	return p.stop()
}

// traceServe measures the serving layers. In-process it times the store
// load, Table 3, the VQL engine and server construction, the render and
// VQL calls the mix makes, and each route through the server's full
// middleware chain. Over loopback it times the same mix against the real
// binary, whose difference from the in-process handler time is the HTTP
// transport.
func traceServe(r *run, dir string, s *served, next mix) error {
	var opens, loads []float64
	for i := 0; i < 3; i++ {
		_, _, openS, loadS, err := loadStore(dir)
		if err != nil {
			return err
		}
		opens, loads = append(opens, openS), append(loads, loadS)
	}
	r.set("store.open_ms", 1e3*median(opens))
	r.set("store.load_ms", 1e3*median(loads))
	start := time.Now()
	s.b.Table3()
	r.set("bench.table3_ms", 1e3*time.Since(start).Seconds())
	start = time.Now()
	engine := vql.NewEngine(s.b)
	r.set("vql.engine_ms", 1e3*time.Since(start).Seconds())
	cfg := server.DefaultConfig()
	cfg.Obs = cliInstruments()
	start = time.Now()
	srv := server.NewWithConfig(s.b, cfg)
	r.set("server.new_ms", 1e3*time.Since(start).Seconds())
	if err := srv.SetEntryETags(s.m.EntryHashes()); err != nil {
		return err
	}
	if err := srv.SetEntryShards(s.m.EntryShards()); err != nil {
		return err
	}

	// Loopback: one client, so its latency compares with the in-process
	// loop below, which is one goroutine.
	p, _, err := startServer(r, dir)
	if err != nil {
		return err
	}
	defer p.stop()
	closedLoop(p.base, 1, warmup, r.seed+1, s, next, 0)
	wire := closedLoop(p.base, 1, r.seconds/3, r.seed, s, next, 1)
	r.attempts += len(wire.lat)
	r.attempts += wire.failed
	for i := 0; i < wire.failed; i++ {
		r.fail("request failed or was not 200")
	}
	checkResponses(r, s, wire.kept)
	// Index-served queries do different work in the binary (it loads the
	// store's indexes) than in-process (no indexes), so the transport
	// estimate uses only the responses both sides compute the same way.
	indexed := map[string]bool{}
	var scanned, rows, plans, indexPlans int
	for _, resp := range wire.kept {
		if resp.req.route == "query" {
			var got queryRows
			if err := json.Unmarshal(resp.body, &got); err != nil {
				return err
			}
			scanned += got.Scanned
			rows += got.RowCount
			plans++
			if got.Index != "" {
				indexed[resp.req.query] = true
				indexPlans++
			}
		}
	}
	// With one client keeping every response, closedLoop keeps latencies
	// and responses in the same order.
	var wireSame []float64
	for i, resp := range wire.kept {
		if !indexed[resp.req.query] {
			wireSame = append(wireSame, wire.lat[i])
		}
	}
	if plans > 0 {
		r.set("vql.rows_scanned_per_row", float64(scanned)/float64(max(rows, 1)))
		r.set("vql.index_plan_frac", float64(indexPlans)/float64(plans))
	}

	// In-process: the same mix through ServeHTTP, without and with a span
	// per request, then per-route allocation counts.
	rng := rand.New(rand.NewSource(r.seed))
	var reqs []request
	var httpReqs []*http.Request
	for len(reqs) < inProcessRequests {
		req := next.next(rng, s)
		hr, err := http.NewRequestWithContext(context.Background(), http.MethodGet, req.path, nil)
		if err != nil {
			return err
		}
		reqs, httpReqs = append(reqs, req), append(httpReqs, hr)
	}
	w := &sink{h: http.Header{}}
	var localSame []float64 // traced passes' latencies of comparable requests
	inproc := func(rec *recorder) {
		for i, hr := range httpReqs {
			w.reset()
			start := time.Now()
			id := rec.begin("server."+reqs[i].route, int64(i), -1)
			srv.ServeHTTP(w, hr)
			rec.end(id)
			if rec != nil && !indexed[reqs[i].query] {
				localSame = append(localSame, time.Since(start).Seconds())
			}
			r.attempts++
			if w.status != http.StatusOK {
				r.fail("in-process %s: status %d", reqs[i].path, w.status)
			}
		}
	}
	r.set("runtime.gc_cpu_frac", gcFrac(func() {
		r.set("trace.overhead_frac", overheadFrac(r.rec, inproc))
	}))
	r.set("http.transport_us", 1e6*(percentile(wireSame, 0.5)-percentile(localSame, 0.5)))
	self := r.rec.selfTimes()
	sent := map[string]bool{}
	for _, req := range reqs {
		sent[req.route] = true
	}
	for _, route := range routes {
		if !sent[route] {
			continue
		}
		r.setSelf("server.handler_us."+route, self["server."+route], time.Microsecond)
		// Up to 200 requests of the route, untraced.
		var n, bytesOut int
		before := mallocs()
		for i, hr := range httpReqs {
			if reqs[i].route != route || n == 200 {
				continue
			}
			w.reset()
			srv.ServeHTTP(w, hr)
			n++
			bytesOut += w.n
		}
		r.set("server.handler_allocs."+route, float64(mallocs()-before)/float64(n))
		r.set("server.resp_bytes."+route, float64(bytesOut)/float64(n))
	}

	// The layers under the handlers, called directly with spans.
	if next.queries {
		for i, q := range s.queries {
			id := r.rec.begin("vql.parse", int64(i), -1)
			parsed, err := vql.Parse(q)
			r.rec.end(id)
			if err != nil {
				return err
			}
			id = r.rec.begin("vql.plan", int64(i), -1)
			plan, err := engine.Plan(parsed)
			r.rec.end(id)
			if err != nil {
				return err
			}
			id = r.rec.begin("vql.execute", int64(i), -1)
			_, err = engine.Execute(plan)
			r.rec.end(id)
			if err != nil {
				return err
			}
		}
	} else {
		for i, e := range s.b.Entries {
			if i%4 != 0 {
				continue
			}
			id := r.rec.begin("render.vegalite", int64(i), -1)
			spec, err := render.VegaLite(e.DB, e.Vis)
			r.rec.end(id)
			if err != nil {
				return err
			}
			id = r.rec.begin("render.page", int64(i), -1)
			render.HTMLPage(fmt.Sprintf("entry %d", e.ID), spec)
			r.rec.end(id)
		}
	}
	self = r.rec.selfTimes()
	r.setSelf("vql.parse_us", self["vql.parse"], time.Microsecond)
	r.setSelf("vql.plan_us", self["vql.plan"], time.Microsecond)
	r.setSelf("vql.execute_us", self["vql.execute"], time.Microsecond)
	r.setSelf("render.vegalite_us", self["render.vegalite"], time.Microsecond)
	r.setSelf("render.page_us", self["render.page"], time.Microsecond)
	r.set("obs.emit_ns", emitNS())
	return p.stop()
}

// sink is a ResponseWriter that counts the body and keeps nothing, so a
// handler's allocations are its own.
type sink struct {
	h      http.Header
	status int
	n      int
}

func (w *sink) reset() {
	clear(w.h)
	w.status, w.n = 0, 0
}

func (w *sink) Header() http.Header { return w.h }

func (w *sink) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *sink) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.n += len(b)
	return len(b), nil
}
