package main

// metricDef names one reported metric and its unit. The two lists below are
// what the program emits; BENCHMARK.json repeats them with direction and
// bound, and a test holds the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the testbed would see, reported by the
// untraced run of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sat_tps", "1/s"},
	{"svc_p50_us.hi", "us"},
	{"lat_p50_us.hi", "us"},
	{"deliv_ratio.hi", "ratio"},
	{"ctl_step_ratio", "ratio"},
	{"commit_frac", "ratio"},
	{"mem_bytes_per_row", "B"},
}

// perLayer are the metrics of single layers, reported by the traced run of
// every workload; the prefix is the layer. A counter of a layer that is not
// on a workload's path (the buffer pool under a RAM engine) reads 0 there.
var perLayer = []metricDef{
	{"core.sched_lag_us.p50", "us"},
	{"core.sched_lag_us.p99", "us"},
	{"core.attempt_us.p50", "us"},
	{"core.attempt_us.p99", "us"},
	{"core.attempt_self_us.p50", "us"},
	{"core.attempt_self_us.p99", "us"},
	{"core.queue_depth_max", "count"},
	{"core.requested", "count"},
	{"core.postponed", "count"},
	{"core.mix_dev_max", "ratio"},
	{"core.fail_frac", "ratio"},
	{"core.noop_txn_ns", "ns"},
	{"stats.record_ns", "ns"},
	{"stats.snapshot_us", "us"},
	{"api.rate_post_us", "us"},
	{"api.status_get_us", "us"},
	{"api.metrics_scrape_us", "us"},
	{"dbdriver.exec_text_us", "us"},
	{"dbdriver.stmt_exec_us", "us"},
	{"sqldb.scan100_us", "us"},
	{"sqldb.insert_us", "us"},
	{"sqldb.update_exec_us", "us"},
	{"bench.proc_body_us.p50", "us"},
	{"bench.proc_body_us.p99", "us"},
	{"parser.parse_us", "us"},
	{"txn.begin_commit_ro_ns", "ns"},
	{"txn.begin_commit_rw_ns", "ns"},
	{"txn.commit_write_us.c1", "us"},
	{"txn.commit_write_us.c2", "us"},
	{"txn.retries", "count"},
	{"txn.aborts", "count"},
	{"txn.retry_ratio", "ratio"},
	{"wal.append_us.c1", "us"},
	{"wal.append_us.c2", "us"},
	{"wal.records", "count"},
	{"wal.flushes", "count"},
	{"wal.bytes", "B"},
	{"wal.records_per_flush", "ratio"},
	{"wal.bytes_per_commit", "B"},
	{"heap.pin_hit_ns", "ns"},
	{"heap.pin_miss_us", "us"},
	{"heap.page_put_ns", "ns"},
	{"heap.hits", "count"},
	{"heap.misses", "count"},
	{"heap.evictions", "count"},
	{"heap.flushes", "count"},
	{"heap.hit_pct", "%"},
	{"disk.wal_mb", "MB"},
	{"disk.heap_mb", "MB"},
	{"disk.store_amp", "ratio"},
	{"load.rows_per_s", "1/s"},
	{"go.allocs_per_txn", "count"},
	{"go.alloc_bytes_per_txn", "B"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.cost_ns", "ns"},
	{"trace.txn_us.p50", "us"},
	{"trace.txn_us.p99", "us"},
	{"host.calib_ns.before", "ns"},
	{"host.calib_ns.after", "ns"},
}
