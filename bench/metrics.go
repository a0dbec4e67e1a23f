package main

// metricDef declares one reported metric. BENCHMARK.json at the repository
// root carries the same names, units, directions and bounds; a self-test
// keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd lists what a user of the system sees, on every workload. Every
// workload is a closed loop of requests — a document decoded in process, a
// cold compile followed by a decode, or an HTTP generation — so each has a
// time to its first token, a time per token after that, a whole-request
// time and a token rate. The driver takes one bound per metric for all six
// workloads, so each bound is twice the widest interquartile spread any
// workload showed in the two ten-seed sets of README.md, "Noise" (7.8-9.0 %,
// all from decode_batch), rounded up to a whole two percent; setup_s takes the
// largest bound the driver allows.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"tokens_per_s", "1/s", "higher", 0.16},
	{"ttft_ms_p50", "ms", "lower", 0.16},
	{"ttft_ms_p90", "ms", "lower", 0.18},
	{"tpot_ms_p50", "ms", "lower", 0.18},
	{"request_ms_p50", "ms", "lower", 0.18},
	{"request_ms_p90", "ms", "lower", 0.18},
	{"heap_mib", "MiB", "lower", 0.16},
	{"compiled_kib_mean", "KiB", "lower", 0},
}

// perLayer lists the single-layer metrics of the traced pass. A metric a
// workload does not exercise reads 0 there.
var perLayer = []metricDef{
	// Compile path (compile_cold), means per grammar over the set.
	{name: "jsonschema.convert_ms", unit: "ms", better: "lower"},
	{name: "ebnf.parse_ms", unit: "ms", better: "lower"},
	{name: "regexconv.convert_ms", unit: "ms", better: "lower"},
	{name: "pda.compile_ms", unit: "ms", better: "lower"},
	{name: "pda.nodes", unit: "count", better: "lower"},
	{name: "pda.edges", unit: "count", better: "lower"},
	{name: "maskcache.build_ms", unit: "ms", better: "lower"},
	{name: "maskcache.ctx_dependent_tokens", unit: "count", better: "lower"},
	{name: "maskcache.ctx_independent_tokens", unit: "count", better: "higher"},
	{name: "maskcache.prefix_chars_stepped", unit: "count", better: "lower"},
	{name: "maskcache.storage_bytes", unit: "B", better: "lower"},
	{name: "maskcache.canonical_bytes", unit: "B", better: "lower"},
	{name: "maskcache.accept_list_nodes", unit: "count", better: "higher"},
	{name: "maskcache.reject_list_nodes", unit: "count", better: "higher"},
	{name: "maskcache.word_mask_nodes", unit: "count", better: "lower"},
	{name: "serialize.save_ms", unit: "ms", better: "lower"},
	{name: "serialize.load_ms", unit: "ms", better: "lower"},
	{name: "serialize.blob_kib", unit: "KiB", better: "lower"},
	{name: "xgrammar.compile_unaccounted_ms", unit: "ms", better: "lower"},
	{name: "compile_ms_p50", unit: "ms", better: "lower"},
	{name: "compile_ms_p90", unit: "ms", better: "lower"},
	// Decode path (decode_*).
	{name: "maskcache.fill_us_p50", unit: "us", better: "lower"},
	{name: "maskcache.fill_us_p99", unit: "us", better: "lower"},
	{name: "maskcache.fastpath_share", unit: "share", better: "higher"},
	{name: "maskcache.ctx_checked_per_fill", unit: "count", better: "lower"},
	{name: "maskcache.states_per_fill", unit: "count", better: "lower"},
	{name: "matcher.accept_us_p50", unit: "us", better: "lower"},
	{name: "matcher.accept_us_p99", unit: "us", better: "lower"},
	{name: "matcher.jump_forward_us_p50", unit: "us", better: "lower"},
	{name: "matcher.jump_forward_bytes_share", unit: "share", better: "higher"},
	{name: "matcher.rollback_us_p50", unit: "us", better: "lower"},
	{name: "serve.open_us_p50", unit: "us", better: "lower"},
	{name: "serve.pool_reuse_share", unit: "share", better: "higher"},
	{name: "serve.fill_batch_us_p50", unit: "us", better: "lower"},
	{name: "serve.fill_batch_overhead_pct", unit: "%", better: "lower"},
	{name: "decode.unaccounted_pct", unit: "%", better: "lower"},
	{name: "step_us_p99", unit: "us", better: "lower"},
	{name: "round_us_p99", unit: "us", better: "lower"},
	// Gateway path (gateway_*).
	{name: "server.handler_ms_p50", unit: "ms", better: "lower"},
	{name: "transport.loopback_ms_p50", unit: "ms", better: "lower"},
	{name: "server.rounds", unit: "count", better: "lower"},
	{name: "server.batch_mean", unit: "count", better: "higher"},
	{name: "server.fill_p50_us", unit: "us", better: "lower"},
	{name: "server.fill_p99_us", unit: "us", better: "lower"},
	{name: "server.rejected_429", unit: "count", better: "lower"},
	{name: "serve.acquire_warm_us_p50", unit: "us", better: "lower"},
	{name: "serve.acquire_cold_us_p50", unit: "us", better: "lower"},
	{name: "prefixcache.hit_share", unit: "share", better: "higher"},
	{name: "gramcache.hit_share", unit: "share", better: "higher"},
	{name: "backend.next_us_p50", unit: "us", better: "lower"},
	{name: "obs.stage_ms.admission", unit: "ms", better: "lower"},
	{name: "obs.stage_ms.resolve", unit: "ms", better: "lower"},
	{name: "obs.stage_ms.prefix_lookup", unit: "ms", better: "lower"},
	{name: "obs.stage_ms.queue", unit: "ms", better: "lower"},
	{name: "obs.stage_ms.accept", unit: "ms", better: "lower"},
	{name: "obs.stage_ms.jump_forward", unit: "ms", better: "lower"},
	{name: "obs.stage_ms.fill", unit: "ms", better: "lower"},
	{name: "obs.stage_ms.backend", unit: "ms", better: "lower"},
	{name: "obs.stage_ms.stream", unit: "ms", better: "lower"},
	{name: "obs.unaccounted_ms", unit: "ms", better: "lower"},
	{name: "obs.tracing_overhead_pct", unit: "%", better: "lower"},
	{name: "itl_ms_p99", unit: "ms", better: "lower"},
	// All workloads.
	{name: "tokenizer.vocab_size", unit: "count", better: "higher"},
	{name: "failed_share", unit: "share", better: "lower"},
}

// reading is one measured value with the number of samples behind it.
type reading struct {
	value   float64
	samples int
}

// readings maps metric name to its measured value.
type readings map[string]reading

func (r readings) set(name string, value float64, samples int) {
	r[name] = reading{value: value, samples: samples}
}
