// Command bench is the repository's benchmark: six named workloads at a 32k
// vocabulary, wall-clock end-to-end metrics, and a per-layer budget measured
// from outside the layers. One foreground process; it starts no other
// process and leaves no goroutine or listener behind. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"xgrammar"
)

// Durations, identical on every commit. The measured pass itself lasts
// -seconds (BENCHMARK.json's run_seconds).
const (
	defaultSeconds = 10
	warmup         = 500 * time.Millisecond
	// setupRepeats is how many times everything after the tokenizer is set
	// up, measured for a third of the pass, and torn down; setup_s is the
	// one tokenizer training plus the median set-up time, and the
	// end-to-end metrics are medians over the three measured segments.
	setupRepeats = 3
	// watchdog is how long one run of one workload may take before the
	// process exits non-zero; well under the driver's 180 s cap.
	watchdog = 150 * time.Second
)

type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// oracleSteps is how many masks per grammar class the output checks
	// compare with the full-vocabulary scan.
	oracleSteps int
	outDir      string // where the traced pass writes its spans; "" to skip
}

// report is one run's result; its JSON form is the last line of output.
type report struct {
	workload    string
	correct     bool
	attempted   int
	failed      int
	metrics     readings
	defs        []metricDef
	inputHash   uint64
	fingerprint maskFingerprint
	notes       []string
}

// runOne trains the tokenizer and runs the workload.
func runOne(w workloadInfo, cfg runConfig) (*report, error) {
	cfg.oracleSteps = oracleStepsMeasured
	if cfg.trace {
		cfg.oracleSteps = oracleStepsTraced
	}
	t0 := time.Now()
	info := trainTokenizer()
	return runWith(w, cfg, info, time.Since(t0).Seconds())
}

// runWith sets a workload up over a trained tokenizer (which took
// tokenizerS to train), measures it or traces it, checks its outputs and
// tears everything down.
func runWith(w workloadInfo, cfg runConfig, info *xgrammar.TokenizerInfo, tokenizerS float64) (*report, error) {
	rep := &report{workload: w.name, metrics: readings{}}
	d := time.Duration(cfg.seconds * float64(time.Second))
	t0 := time.Now()
	repeats := setupRepeats
	if cfg.trace {
		repeats = 1
	}
	var e *env
	var rest []float64
	var segs []*passResult
	for i := 0; i < repeats; i++ {
		if e != nil {
			e.close()
		}
		t := time.Now()
		var err error
		if e, err = newEnv(w, cfg.seed, info); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rest = append(rest, time.Since(t).Seconds())
		if !cfg.trace {
			// Each set-up is measured for its share of the pass: fresh
			// allocations land differently every time, and a median over
			// three layouts is steadier than one long pass over one.
			e.measure(min(warmup, d), false)
			segs = append(segs, e.measure(d/time.Duration(repeats), true))
		}
	}
	defer e.close()
	sort.Float64s(rest)
	rep.inputHash = e.tr.hash

	if cfg.trace {
		rep.defs = perLayer
		tr, err := e.tracePass(d, cfg.outDir)
		if err != nil {
			return nil, err
		}
		rep.attempted, rep.failed = tr.attempted, tr.failed
		rep.metrics = tr.metrics
	} else {
		rep.defs = endToEnd
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m := rep.metrics
		m.set("setup_s", tokenizerS+percentile(rest, 0.5), repeats)
		// HeapAlloc, not HeapInuse: after a forced GC the live bytes repeat
		// to 0.1 % between runs, the spans holding them (fragmentation
		// left by compile garbage) vary by 20 %.
		m.set("heap_mib", float64(ms.HeapAlloc)/(1<<20), 1)
		var rates []float64
		tokens := 0
		for _, r := range segs {
			rep.attempted += r.requests
			rep.failed += r.failed
			rates = append(rates, r.tokensPerSec())
			tokens += int(r.tokens)
		}
		sort.Float64s(rates)
		m.set("tokens_per_s", percentile(rates, 0.5), tokens)
		for _, q := range []struct {
			name string
			pick func(*passResult) *dist
			p    float64
		}{
			{"ttft_ms_p50", func(r *passResult) *dist { return &r.ttft }, 0.5},
			{"ttft_ms_p90", func(r *passResult) *dist { return &r.ttft }, 0.9},
			{"tpot_ms_p50", func(r *passResult) *dist { return &r.tpot }, 0.5},
			{"request_ms_p50", func(r *passResult) *dist { return &r.total }, 0.5},
			{"request_ms_p90", func(r *passResult) *dist { return &r.total }, 0.9},
		} {
			ns, n := segmentQuantile(segs, q.pick, q.p)
			m.set(q.name, ns/1e6, n)
			if !supported(n, q.p) {
				rep.notes = append(rep.notes, fmt.Sprintf("%s: only %d requests, fewer than ten samples beyond it", q.name, n))
			}
		}
	}

	tVerify := time.Now()
	v := e.verify(cfg.oracleSteps)
	fmt.Fprintf(os.Stderr, "bench: %s: tokenizer %.2fs, set-ups %.2fs, checks %.2fs, total %.2fs\n",
		w.name, tokenizerS, rest, time.Since(tVerify).Seconds(), tokenizerS+time.Since(t0).Seconds())
	rep.attempted += v.checked
	rep.failed += v.failed
	rep.fingerprint = v.fingerprint
	rep.notes = append(rep.notes, v.notes...)
	if cfg.trace {
		rep.metrics.set("tokenizer.vocab_size", float64(info.VocabSize()), 1)
		rep.metrics.set("failed_share", float64(rep.failed)/float64(rep.attempted), rep.attempted)
	} else {
		rep.metrics.set("compiled_kib_mean", e.compiledKiBMean(), len(e.cgs))
	}
	if w.gateway && e.minRounds < gatewayDocRounds {
		rep.notes = append(rep.notes, fmt.Sprintf("shortest unprefixed document takes %d decode rounds, under %d", e.minRounds, gatewayDocRounds))
	}
	rep.correct = rep.failed == 0
	return rep, nil
}

// segmentQuantile is the p-quantile of one per-request latency over the
// measured segments: the median of the segments' own quantiles when every
// segment has ten samples beyond p, the quantile of the pooled samples
// otherwise (compile_cold and gateway_paced reach 100 requests only pooled).
func segmentQuantile(segs []*passResult, pick func(*passResult) *dist, p float64) (ns float64, n int) {
	var pooled dist
	var each []float64
	for _, r := range segs {
		d := pick(r)
		pooled.merge(d)
		if supported(d.n(), p) {
			each = append(each, d.q(p))
		}
	}
	if len(each) == len(segs) {
		sort.Float64s(each)
		return percentile(each, 0.5), pooled.n()
	}
	return pooled.q(p), pooled.n()
}

// measure runs the workload's timed pass for d. The in-process passes run on
// to the end of their cycle through the request order when toBoundary is set.
func (e *env) measure(d time.Duration, toBoundary bool) *passResult {
	switch {
	case e.w.gateway:
		res, _ := e.gw.runGateway(d, nil)
		return res
	case e.w.batch:
		return e.runBatch(d)
	default:
		return e.runSingle(d, toBoundary)
	}
}

// print writes the human-readable table and then, as the last line, the
// JSON object the driver reads.
func (r *report) print() {
	fmt.Printf("workload %s  input_hash %016x  mask_fingerprint %016x  attempted %d  failed %d\n",
		r.workload, r.inputHash, uint64(r.fingerprint), r.attempted, r.failed)
	for _, n := range r.notes {
		fmt.Printf("  note: %s\n", n)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]jsonMetric{}}
	for _, d := range r.defs {
		m := r.metrics[d.name]
		fmt.Printf("  %-34s %16.6g %-6s n=%d\n", d.name, m.value, d.unit, m.samples)
		out.Metrics[d.name] = jsonMetric{m.value, d.unit}
	}
	line, _ := json.Marshal(out)
	fmt.Printf("%s\n", line)
}

func main() {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed for the generated traffic")
	seconds := flag.Float64("seconds", defaultSeconds, "length of the measured pass")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
	repeat := flag.Int("repeat", 0, "run the selected workloads N times (seeds seed..seed+N-1, alternating order) and print the noise report")
	outDir := flag.String("out", ".bench_build", "directory the traced pass writes its spans to")
	flag.Parse()

	dog := time.AfterFunc(watchdog, func() {
		fmt.Fprintln(os.Stderr, "bench: watchdog: run exceeded", watchdog)
		os.Exit(3)
	})
	// run re-arms the watchdog, so -repeat and -workload all get the same
	// allowance per run as a single run does.
	run := func(w workloadInfo, cfg runConfig) (*report, error) {
		dog.Reset(watchdog)
		return runOne(w, cfg)
	}

	var selected []workloadInfo
	if *workload == "all" {
		selected = workloads
	} else if w, ok := findWorkload(*workload); ok {
		selected = []workloadInfo{w}
	} else {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want all, %s)\n", *workload, strings.Join(names, ", "))
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: *outDir}
	if *repeat > 0 {
		os.Exit(noiseReport(selected, cfg, *repeat, run))
	}
	code := 0
	for _, w := range selected {
		rep, err := run(w, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		rep.print()
		if !rep.correct {
			code = 1
		}
	}
	os.Exit(code)
}

// noiseReport runs the selected workloads n times in alternating order, each
// repetition on its own seed as the driver does, printing every repetition's
// end-to-end values as they arrive, and then per metric min / median / max
// and the interquartile spread as a share of the median, against the
// metric's bound. This is how the bounds in BENCHMARK.json are confirmed or
// widened.
func noiseReport(selected []workloadInfo, cfg runConfig, n int, run func(workloadInfo, runConfig) (*report, error)) int {
	cfg.trace = false
	values := map[string]map[string][]float64{}
	code := 0
	for i := 0; i < n; i++ {
		order := append([]workloadInfo(nil), selected...)
		if i%2 == 1 {
			for a, b := 0, len(order)-1; a < b; a, b = a+1, b-1 {
				order[a], order[b] = order[b], order[a]
			}
		}
		for _, w := range order {
			c := cfg
			c.seed = cfg.seed + int64(i)
			rep, err := run(w, c)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			if !rep.correct {
				code = 1
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			fmt.Printf("repeat %d/%d %s seed %d failed %d:", i+1, n, w.name, c.seed, rep.failed)
			for _, d := range endToEnd {
				v := rep.metrics[d.name].value
				values[w.name][d.name] = append(values[w.name][d.name], v)
				fmt.Printf(" %s=%.6g", d.name, v)
			}
			fmt.Println()
		}
	}
	fmt.Printf("%-18s %-18s %12s %12s %12s %8s %6s\n", "workload", "metric", "min", "median", "max", "spread", "bound")
	for _, w := range selected {
		for _, d := range endToEnd {
			v := append([]float64(nil), values[w.name][d.name]...)
			sort.Float64s(v)
			med := quantileExclusive(v, 0.5)
			spread := 0.0
			if med != 0 {
				spread = (quantileExclusive(v, 0.75) - quantileExclusive(v, 0.25)) / med
			}
			// A bound is twice the widest spread seen; a spread over half its
			// bound says the bound needs another look.
			flag := ""
			if d.name != "setup_s" && spread > d.bound/2 {
				flag = " !"
			}
			fmt.Printf("%-18s %-18s %12.6g %12.6g %12.6g %7.2f%% %5.0f%%%s\n",
				w.name, d.name, v[0], med, v[len(v)-1], 100*spread, 100*d.bound, flag)
		}
	}
	return code
}

// quantileExclusive is the quantile Python's statistics.quantiles(values,
// n=4) computes (its default "exclusive" method), which the driver uses.
func quantileExclusive(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := p*float64(n+1) - 1
	if pos < 0 {
		pos = 0
	}
	if pos > float64(n-1) {
		pos = float64(n - 1)
	}
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// spansPath names the span dump of one traced run.
func spansPath(dir, workload string) string {
	return filepath.Join(dir, "spans-"+workload+".tsv")
}
