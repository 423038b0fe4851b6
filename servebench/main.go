package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: picks-hot or prepare-cold")
		seed    = flag.Int64("seed", 1, "workload seed (template order and request stream)")
		seconds = flag.Int("seconds", 10, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1 = also replay in-process with spans and report per-layer metrics")
		bin     = flag.String("server", "", "path to the mpqserve binary")
		out     = flag.String("out", ".bench_build/servebench", "directory for run scratch, logs and span dumps")
	)
	flag.Parse()
	if *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: need -server, -seconds >= 1 and -trace 0|1")
		os.Exit(2)
	}
	res, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *bin, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	b, _ := json.Marshal(res)
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(name string, seed int64, seconds time.Duration, traced bool, bin, out string) (*result, error) {
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("mpqserve binary: %w", err)
	}
	dir := filepath.Join(out, fmt.Sprintf("%s-seed%d-pid%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	env, _ := json.Marshal(map[string]any{"env": map[string]any{
		"workload": name, "seed": seed, "seconds": seconds.Seconds(), "trace": traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
	}})
	fmt.Println(string(env))

	t0 := time.Now()
	phase := func(what string) {
		fmt.Fprintf(os.Stderr, "servebench: %-10s done at %.1fs\n", what, time.Since(t0).Seconds())
	}
	w, err := newScenario(name, seed, dir)
	if err != nil {
		return nil, err
	}
	defer w.close()
	phase("reference")

	// Set-up: launch (and preload) a fresh server several times; keep the last.
	var setupTimes []time.Duration
	var srv *server
	for i := 0; i < w.setups; i++ {
		if srv != nil {
			srv.stop()
		}
		start := time.Now()
		srv, err = w.launch(bin, filepath.Join(dir, fmt.Sprintf("server%d.log", i)))
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(start))
	}
	phase("setup")
	m, err := w.measure(srv, seconds)
	srv.stop()
	if err != nil {
		return nil, err
	}
	phase("timed")
	w.verify(m)
	phase("verify")
	res := &result{Correct: m.mismatches == 0, Attempted: m.attempted, Failed: m.failed, Metrics: endToEnd(m, setupTimes)}
	if traced {
		lm, err := w.layers(m, filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.json", name, seed)))
		if err != nil {
			return nil, err
		}
		for k, v := range lm {
			res.Metrics[k] = v
		}
		phase("replay")
	}
	printDetail(name, m, setupTimes)
	return res, nil
}

// endToEnd computes the metrics a client of the server sees.
func endToEnd(m *measurement, setupTimes []time.Duration) map[string]metric {
	return map[string]metric{
		"setup_s":                   {median(setupTimes).Seconds(), "s"},
		"pick_p25_us":               {us(quantile(m.picks, 0.25)), "us"},
		"pickbatch_p25_ms":          {ms(quantile(m.batches, 0.25)), "ms"},
		"server_cpu_us_per_request": {ratio(us(m.serverCPU), float64(m.requests())), "us"},
	}
}

// printDetail writes the workload-specific figures (and the samples
// behind each percentile) to standard error and as one JSON line on
// standard output ahead of the result.
func printDetail(name string, m *measurement, setupTimes []time.Duration) {
	points := float64(len(m.picks) + batchPoints*len(m.batches))
	d := map[string]float64{
		"setup_s":                   median(setupTimes).Seconds(),
		"pick_p25_us":               us(quantile(m.picks, 0.25)),
		"pick_p50_us":               us(quantile(m.picks, 0.5)),
		"pick_p90_us":               us(quantile(m.picks, 0.9)),
		"pick_p99_us":               us(quantile(m.picks, 0.99)),
		"pick_samples":              float64(len(m.picks)),
		"pickbatch_p25_ms":          ms(quantile(m.batches, 0.25)),
		"pickbatch_p50_ms":          ms(quantile(m.batches, 0.5)),
		"pickbatch_p90_ms":          ms(quantile(m.batches, 0.9)),
		"pickbatch_samples":         float64(len(m.batches)),
		"pick_points_per_s":         points / m.elapsed.Seconds(),
		"prepare_cold_p50_ms":       ms(quantile(m.prepares, 0.5)),
		"prepare_cold_p90_ms":       ms(quantile(m.prepares, 0.9)),
		"prepare_cold_samples":      float64(len(m.prepares)),
		"preload_prepare_p50_ms":    ms(quantile(m.setupPrepares, 0.5)),
		"preload_prepare_samples":   float64(len(m.setupPrepares)),
		"prepares_per_s":            float64(len(m.prepares)) / m.elapsed.Seconds(),
		"requests_per_s":            float64(m.requests()) / m.elapsed.Seconds(),
		"server_cpu_us_per_point":   ratio(us(m.serverCPU), points),
		"server_cpu_ms_per_prepare": ratio(ms(m.serverCPU), float64(len(m.prepares))),
		"server_peak_rss_mb":        float64(m.peakRSS) / (1 << 20),
		"error_ratio":               ratio(float64(m.failed+m.empty), float64(m.attempted)),
		"steal_share":               m.stealShare,
		"failed":                    float64(m.failed),
		"empty_points":              float64(m.empty),
		"uncovered_points":          float64(m.uncovered),
		"unexplained_failures":      float64(m.failed + m.empty - m.uncovered),
		"transport_errors":          float64(m.transportErrs),
		"mismatches":                float64(m.mismatches),
	}
	b, _ := json.Marshal(map[string]any{"detail": d})
	fmt.Println(string(b))
	keys := make([]string, 0, len(d))
	for k := range d {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	fmt.Fprintf(&sb, "servebench %s:\n", name)
	for _, k := range keys {
		fmt.Fprintf(&sb, "  %-28s %.6g\n", k, d[k])
	}
	fmt.Fprint(os.Stderr, sb.String())
}

// rec is one timed request: what was sent and what came back. Pick
// answers are kept as digests; prepare answers (few and small) whole.
type rec struct {
	op     *op
	idx    int // position of op in the client's request list
	lat    time.Duration
	status int
	size   int
	dig    digest
	body   []byte // canonical /prepare answer
	err    error
}

// measurement is everything the timed phase observed.
type measurement struct {
	recs    []rec // in send order
	preload []rec // set-up prepares of the last launch
	elapsed time.Duration

	picks, batches []time.Duration
	prepares       []time.Duration // timed-phase prepares
	setupPrepares  []time.Duration // set-up prepares of every launch
	batchBytes     int64

	serverCPU time.Duration
	peakRSS   int64
	// stealShare is the share of the machine's CPU time its hypervisor
	// took away during the timed phase (from /proc/stat), a noise gauge.
	stealShare float64
	stats      statsSnap

	// attempted counts operations, each batch point as one; failed
	// those whose answer did not arrive or is not the reference's.
	// empty counts pick points answered with an error or an empty
	// frontier, as the reference answers them; uncovered those of them
	// where Theorem 3 fails.
	attempted, failed, empty, uncovered int64
	transportErrs, mismatches           int64
}

func (m *measurement) requests() int {
	return len(m.picks) + len(m.batches) + len(m.prepares)
}

// runClient drives the closed-loop client for d: the next request goes
// out only after the previous answer arrived. A cyclic list repeats;
// otherwise the client stops at its end.
func runClient(srv *server, d time.Duration, ops []op, cyclic bool, body func(*op) (string, []byte)) ([]rec, time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	out := make([]rec, 0, 1<<16)
	var buf bytes.Buffer
	// The client shares this process with the reference's plan sets:
	// collect now and rarely during the phase, so the benchmark's own
	// garbage collection takes as little CPU from the server as it can.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(800))
	start := time.Now()
	for i := 0; ctx.Err() == nil; i++ {
		if i >= len(ops) {
			if !cyclic || len(ops) == 0 {
				break
			}
			i = 0
		}
		o := &ops[i]
		path, b := body(o)
		a, lat, err := srv.post(ctx, path, b, &buf)
		if err != nil && ctx.Err() != nil {
			break // cut by the end of the phase, not a failure
		}
		r := rec{op: o, idx: i, lat: lat, status: a.Status, size: len(a.Body), err: err}
		if o.Kind == opPrepare {
			r.body = canonicalPrepare(a).Body
		} else {
			r.dig = digestOf(a)
		}
		out = append(out, r)
	}
	return out, time.Since(start)
}

// statsSnap holds the server counters the per-layer report reads.
type statsSnap struct {
	rejected, reloads, picks  int64
	cacheHits, cacheMisses    int64
	indexPicks, fallbackPicks int64
	coarsePrepares, swaps     int64
	pendingMax                int64
	donatedMasks, splitJobs   int64
	pipelineUtil              float64
}

// finish reads the server's resource use and counters after the timed
// phase and derives the latency samples.
func (m *measurement) finish(srv *server, cpuBefore time.Duration) error {
	cpu, err := srv.cpu()
	if err != nil {
		return err
	}
	m.serverCPU = cpu - cpuBefore
	if m.peakRSS, err = srv.peakRSS(); err != nil {
		return err
	}
	st, err := srv.stats()
	if err != nil {
		return err
	}
	m.stats.rejected, m.stats.reloads, m.stats.picks = st.Rejected, st.Reloads, st.Picks
	m.stats.cacheHits, m.stats.cacheMisses = st.Cache.Hits, st.Cache.Misses
	m.stats.indexPicks, m.stats.fallbackPicks = st.Index.IndexPicks, st.Index.FallbackPicks
	m.stats.coarsePrepares, m.stats.swaps = st.Refine.CoarsePrepares, st.Refine.Swaps
	m.stats.donatedMasks, m.stats.splitJobs = st.DonatedMasks, st.SplitJobs
	m.stats.pipelineUtil = st.PipelineUtilization
	if st.Refine.Pending > m.stats.pendingMax {
		m.stats.pendingMax = st.Refine.Pending
	}
	for _, r := range m.recs {
		if r.err != nil {
			continue
		}
		switch r.op.Kind {
		case opPick:
			m.picks = append(m.picks, r.lat)
		case opBatch:
			m.batches = append(m.batches, r.lat)
			m.batchBytes += int64(r.size)
		case opPrepare:
			m.prepares = append(m.prepares, r.lat)
		}
	}
	return nil
}
