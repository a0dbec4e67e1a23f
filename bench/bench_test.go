package main

import (
	"encoding/json"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"xgrammar"
)

// testVocab keeps the self-tests fast; the benchmark itself runs at 32k.
const testVocab = 2000

func TestPercentileRule(t *testing.T) {
	// A percentile may be reported only with ten samples beyond it.
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{19, 0.5, false}, {20, 0.5, true}, {99, 0.9, false}, {100, 0.9, true}, {999, 0.99, false}, {1000, 0.99, true}} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	// Over segments: the median of the segments' percentiles when each
	// segment alone supports it, the pooled percentile otherwise.
	seg := func(lo, n int) *passResult {
		r := &passResult{}
		for i := 0; i < n; i++ {
			r.total.add(float64(lo + i))
		}
		return r
	}
	pick := func(r *passResult) *dist { return &r.total }
	if v, n := segmentQuantile([]*passResult{seg(0, 100), seg(100, 100), seg(200, 100)}, pick, 0.9); v != 189 || n != 300 {
		t.Errorf("median of segment p90s = %v over %d, want 189 over 300", v, n)
	}
	if v, n := segmentQuantile([]*passResult{seg(0, 50), seg(100, 50), seg(200, 50)}, pick, 0.9); v != 234 || n != 150 {
		t.Errorf("pooled p90 = %v over %d, want 234 over 150", v, n)
	}
	// Nearest rank, ceil-based: p99 of 1..100 is 99, p50 is 50.
	ladder := make([]float64, 100)
	for i := range ladder {
		ladder[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}} {
		if got := percentile(ladder, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("empty set must read 0")
	}
	// The driver's quartiles: statistics.quantiles(range(1, 11), n=4).
	ten := ladder[:10]
	if q1, q3 := quantileExclusive(ten, 0.25), quantileExclusive(ten, 0.75); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
}

func TestSelfTime(t *testing.T) {
	// request [0,100] holds open [0,10] and step [20,80]; step holds accept
	// [20,30] and fill [40,70].
	spans := []span{
		{kind: spRequest, parent: -1, start: 0, end: 100},
		{kind: spOpen, parent: 0, start: 0, end: 10},
		{kind: spStep, parent: 0, start: 20, end: 80},
		{kind: spAccept, parent: 2, start: 20, end: 30},
		{kind: spFill, parent: 2, start: 40, end: 70},
	}
	want := []int64{30, 10, 20, 10, 30}
	got := selfTimes(spans)
	total := int64(0)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
		total += got[i]
	}
	if total != 100 {
		t.Errorf("self times sum to %d, want the root's 100", total)
	}
	if k := byKind(spans); k[spStep].n() != 1 || k[spStep].q(0.5) != 60 {
		t.Errorf("byKind duration of decode.step = %v", k[spStep].ns)
	}
}

func TestTrafficFollowsSeed(t *testing.T) {
	info := xgrammar.DefaultTokenizer(testVocab)
	count := func(_ int, s string) int { return len(info.Encode(s)) }
	for _, w := range workloads {
		a := buildTraffic(w, 7, grammarSet(w.name), count)
		b := buildTraffic(w, 7, grammarSet(w.name), count)
		c := buildTraffic(w, 8, grammarSet(w.name), count)
		if a.hash != b.hash {
			t.Errorf("%s: one seed, two input hashes", w.name)
		}
		if a.hash == c.hash {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", w.name)
		}
		if len(a.order) != len(a.docs) {
			t.Errorf("%s: order visits %d of %d documents", w.name, len(a.order), len(a.docs))
		}
		for gi := range a.grammars {
			if a.grammars[gi].spec != c.grammars[gi].spec {
				t.Errorf("%s: grammar %d depends on the seed", w.name, gi)
			}
		}
	}
}

// gatewayEnv sets up gateway_saturated at the test vocabulary.
func gatewayEnv(t *testing.T) *env {
	t.Helper()
	w, _ := findWorkload("gateway_saturated")
	e, err := newEnv(w, 3, xgrammar.DefaultTokenizer(testVocab))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestReplayRoundTrip serves every document of the traffic once through a
// real gateway on a loopback port: the recorded script must reproduce the
// document byte for byte and end with finish_reason "stop".
func TestReplayRoundTrip(t *testing.T) {
	e := gatewayEnv(t)
	defer e.close()
	c := &clientState{rd: newClientReader()}
	for di := range e.tr.docs {
		e.gw.do(c, di, false)
	}
	if c.res.failed != 0 || c.res.requests != len(e.tr.docs) {
		t.Fatalf("%d of %d requests failed", c.res.failed, c.res.requests)
	}
	if c.res.total.n() != len(e.tr.docs) || c.res.tokens == 0 {
		t.Fatalf("latencies for %d of %d requests, %d tokens", c.res.total.n(), len(e.tr.docs), c.res.tokens)
	}
	if e.minRounds < gatewayDocRounds {
		t.Errorf("shortest unprefixed document takes %d decode rounds, want >= %d", e.minRounds, gatewayDocRounds)
	}
	if v := e.verify(oracleStepsMeasured); v.failed != 0 || v.fingerprint == 0 {
		t.Errorf("verify: %d failed, fingerprint %x: %v", v.failed, v.fingerprint, v.notes)
	}
}

// TestShutdownLeavesNothing runs load through the harness and then its
// shutdown path: the goroutine count must return to the baseline and the
// listener's port must refuse connections.
func TestShutdownLeavesNothing(t *testing.T) {
	xgrammar.DefaultTokenizer(testVocab) // trained before the baseline is taken
	baseline := runtime.NumGoroutine()
	e := gatewayEnv(t)
	addr := e.gw.addr
	res, _ := e.gw.runGateway(40*time.Millisecond, nil)
	if res.failed != 0 || res.requests == 0 {
		t.Errorf("%d of %d requests failed", res.failed, res.requests)
	}
	e.close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after shutdown, %d before:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
	if conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		conn.Close()
		t.Errorf("%s still accepts connections after shutdown", addr)
	}
}

// TestEveryWorkloadRuns drives each workload end to end, measured and
// traced, on a short pass: every declared metric must be reported, the
// output checks must pass, and a workload's own metrics must be non-zero.
func TestEveryWorkloadRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all six workloads twice")
	}
	info := xgrammar.DefaultTokenizer(testVocab)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			dir := t.TempDir()
			rep, err := runWith(w, runConfig{seed: 11, seconds: 0.1, trace: trace, oracleSteps: 8, outDir: dir}, info, 0.2)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rep.correct || rep.attempted == 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d: %v", w.name, trace, rep.attempted, rep.failed, rep.notes)
			}
			for _, d := range rep.defs {
				m, ok := rep.metrics[d.name]
				if !ok && trace {
					continue // a layer this workload does not exercise reads 0
				}
				if !ok || (!trace && m.value <= 0) {
					t.Errorf("%s: end-to-end metric %s = %v", w.name, d.name, m.value)
				}
			}
			if trace {
				if _, err := os.Stat(spansPath(dir, w.name)); err != nil {
					t.Errorf("%s: no span dump: %v", w.name, err)
				}
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the tables in code.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, code has %s", i, doc.Workloads[i], w.name)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in code", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d: %+v, code has %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s metric %s: bound differs from code's %v", kind, d.name, d.bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}
