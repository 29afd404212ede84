package main

// metricDef declares one metric the benchmark prints. BENCHMARK.json at the
// repository root lists exactly the metrics of the two tables below
// (bench_test.go checks that it does).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// boundedMetric is an end-to-end metric: Bound is the share of the parent's
// median by which it may get worse before that counts as a regression.
type boundedMetric struct {
	metricDef
	Bound float64 `json:"bound"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the numbers a tool user sees, measured with tracing off on
// every workload. The three timings carry the widest bound allowed: ten runs
// of one workload spread by 1-4.5% of their median on the shared 2-vCPU box
// the benchmark was sized on, but sets of runs minutes apart differed by up
// to 17%. Allocation volume and simulated time repeat almost exactly.
var endToEnd = []boundedMetric{
	{metricDef{"setup_s", "s", lower}, 0.25},
	{metricDef{"iter_ms_p50", "ms", lower}, 0.25},
	{metricDef{"ops_per_s", "1/s", higher}, 0.25},
	{metricDef{"alloc_mb_per_iter", "MB", lower}, 0.05},
	{metricDef{"sim_slowdown_x", "x", lower}, 0.005},
}

// endToEndDefs is endToEnd without the bounds.
func endToEndDefs() []metricDef {
	defs := make([]metricDef, len(endToEnd))
	for i, d := range endToEnd {
		defs[i] = d.metricDef
	}
	return defs
}

// perLayer are the traced run's numbers: shares and counts taken from the
// workload's own spans, then the probe panel (panel.go), which is the same
// on every workload.
var perLayer = []metricDef{
	// From the workload's spans.
	{"ptx.share_pct", "%", lower},
	{"sass.share_pct", "%", lower},
	{"core.share_pct", "%", lower},
	{"jitcache.share_pct", "%", lower},
	{"gpu.share_pct", "%", lower},
	{"gpu.steady_launch_share_pct", "%", lower},
	{"driver.share_pct", "%", lower},
	{"nvbitd.share_pct", "%", lower},
	{"campaign.share_pct", "%", lower},
	{"gpu.sim_cycles_native", "count", lower},
	{"gpu.sim_cycles_instr", "count", lower},
	{"gpu.warp_instrs_native", "count", lower},
	{"gpu.warp_instrs_instr", "count", lower},
	{"host.peak_rss_mb", "MB", lower},
	{"host.cpu_s", "s", lower},
	{"host.gc_pause_ms", "ms", lower},
	{"host.unattributed_pct", "%", lower},
	{"host.trace_overhead_pct", "%", lower},
	{"host.op_ms_p50", "ms", lower},
	{"host.op_ms_tail", "ms", lower},

	// Probe panel.
	{"ptx.compile_us_per_kinstr", "us", lower},
	{"ptx.module_load_ms", "ms", lower},
	{"sass.decode_mb_per_s.kepler", "MB/s", higher},
	{"sass.decode_mb_per_s.volta", "MB/s", higher},
	{"sass.encode_mb_per_s.volta", "MB/s", higher},
	{"sass.liveness_us_per_kinstr", "us", lower},
	{"gpu.device_new_ms", "ms", lower},
	{"gpu.native_mwarp_instr_per_s", "M/s", higher},
	{"gpu.instr_mwarp_instr_per_s", "M/s", higher},
	{"gpu.native_allocs_per_launch", "count", lower},
	{"gpu.instr_allocs_per_launch", "count", lower},
	{"gpu.instr_alloc_kb_per_launch", "kB", lower},
	{"gpu.parallel_speedup_x", "x", higher},
	{"driver.launch_overhead_us", "us", lower},
	{"driver.memcpy_mb_per_s", "MB/s", higher},
	{"driver.cubin_load_ms", "ms", lower},
	{"core.attach_ms", "ms", lower},
	{"core.jit_ns_per_instr.retrieve", "ns", lower},
	{"core.jit_ns_per_instr.disassemble", "ns", lower},
	{"core.jit_ns_per_instr.convert", "ns", lower},
	{"core.jit_ns_per_instr.user_code", "ns", lower},
	{"core.jit_ns_per_instr.codegen", "ns", lower},
	{"core.jit_ns_per_instr.swap", "ns", lower},
	{"core.jit_ns_per_instr.cache_lookup", "ns", lower},
	{"core.jit_ns_per_instr.cache_hit", "ns", lower},
	{"core.first_launch_ms_p50", "ms", lower},
	{"core.first_launch_ms_p90", "ms", lower},
	{"core.relaunch_ms_p50", "ms", lower},
	{"core.jit_share_pct", "%", lower},
	{"core.host_slowdown_x", "x", lower},
	{"core.tramp_words_per_site", "count", lower},
	{"core.saved_regs_per_site", "count", lower},
	{"core.inlined_site_pct", "%", higher},
	{"jitcache.put_us", "us", lower},
	{"jitcache.get_mem_us", "us", lower},
	{"jitcache.get_disk_us", "us", lower},
	{"jitcache.bytes_per_kinstr", "B", lower},
	{"jitcache.hit_pct", "%", higher},
	{"channel.records_per_s", "1/s", higher},
	{"channel.bytes_per_record", "B", lower},
	{"channel.flushes_per_run", "count", lower},
	{"channel.dropped", "count", lower},
	{"profile.tracing_overhead_pct", "%", lower},
	{"nvbitd.server_start_ms", "ms", lower},
	{"nvbitd.rpc_us_p50.open", "us", lower},
	{"nvbitd.rpc_us_p50.loadptx", "us", lower},
	{"nvbitd.rpc_us_p50.memalloc", "us", lower},
	{"nvbitd.rpc_us_p50.h2d", "us", lower},
	{"nvbitd.rpc_us_p50.launch", "us", lower},
	{"nvbitd.rpc_us_p50.d2h", "us", lower},
	{"nvbitd.rpc_us_p50.report", "us", lower},
	{"nvbitd.rpc_us_p50.close", "us", lower},
	{"nvbitd.launch_overhead_us", "us", lower},
	{"nvbitd.shed_count", "count", lower},
	{"nvbitd.report_mismatch", "count", lower},
	{"nvbitd.sessions_to_exhaustion", "count", higher},
	{"campaign.plan_ms", "ms", lower},
	{"campaign.run_ms_per_run", "ms", lower},
	{"campaign.reopen_ms", "ms", lower},
	{"campaign.results_kb", "kB", lower},
	{"campaign.masked", "count", higher},
	{"campaign.sdc", "count", lower},
	{"campaign.due", "count", lower},
}

// value is one measured metric as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects measured values by name.
type metrics map[string]float64

// render keeps exactly the declared metrics, in a map the result line
// encodes; a declared metric nothing measured is reported as 0.
func (m metrics) render(defs []metricDef) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}
