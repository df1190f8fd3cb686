package main

import "time"

// workloadSpec is one frozen traffic shape. Rates and sizes are constants
// of the benchmark: a later change that edits them is a benchmark change,
// never part of a performance claim.
type workloadSpec struct {
	name string
	why  string
	// byHand keeps the workload out of BENCHMARK.json: the builder's driver
	// has time for three workloads with 30 s windows, and single_bigstate is
	// CPU time alone, which does not repeat within issue 12's bounds on the
	// reference box (README.md).
	byHand bool

	nodes         int // trustnewsd processes (1 = standalone, 4 = validators)
	ingestWorkers int
	users         int
	articles      int  // preload size
	inProcess     bool // preload through platform.Open instead of HTTP

	// Open loop: openRate ops/s drawn from openMix, due on a fixed schedule.
	openRate float64
	openMix  mix

	// Closed loop writers: each sends its next transaction as soon as the
	// previous one is acked, while fewer than txWindow acked transactions
	// wait for a commit (0 = no window, ack is commit).
	writers   int // 0 = none, -1 = one per worker
	writerMix mix
	txWindow  int

	// Closed loop readers with think time between requests.
	readers   int
	readerMix mix
	think     time.Duration

	// probeIngest sends the searchable probes through POST /v1/ingest
	// instead of a signed publish.
	probeIngest bool
	// trackEvery samples one in N acked transactions for commit latency.
	trackEvery int
}

const (
	healthEvery = 10 * time.Millisecond // height / mempool poll
	searchEvery = 5 * time.Millisecond  // probe search poll
	warmup      = 3 * time.Second
	maxDrain    = 5 * time.Second
	probeEvery  = 125 * time.Millisecond // one searchable probe per slot
	setupReps   = 3                      // set-ups per run; setup_s is their median
)

var writeMix = mix{{opPublish, 50}, {opVote, 30}, {opRelay, 20}}

// floodMix keeps writeMix's transaction kinds (70 % news.publish, 30 %
// rank.vote) but uploads a new body for one publish in seven: creating two
// files per body in the blob store is file-system work whose cost on the
// sandbox's disk swings by tens of percent between runs.
var floodMix = mix{{opPublish, 10}, {opVote, 30}, {opRelay, 60}}

var workloads = []workloadSpec{
	{
		name:  "cluster_feed",
		why:   "4 validators at everyday open-loop load: commit latency is set by the block timer and consensus rounds, CPU savings in any layer show in node.cpu_ms_per_op",
		nodes: 4, users: 256, articles: 2000,
		openRate:   400,
		openMix:    mix{{opPublish, 25}, {opRelay, 10}, {opVote, 15}, {opSearch, 25}, {opBlob, 15}, {opRank, 10}},
		trackEvery: 4,
	},
	{
		name:  "cluster_flood",
		why:   "4 validators under a closed-loop bulk import holding at most 128 acked txs uncommitted: commit_tps is window / commit latency, set by consensus and transport; CPU cost shows in node.cpu_ms_per_op",
		nodes: 4, users: 256, articles: 2000,
		writers: -1, writerMix: floodMix, txWindow: 128,
		trackEvery: 8,
	},
	{
		name:   "single_bigstate",
		why:    "one durable node on a 20k-article state, a back-to-back writer whose every tx is a block beside a reader: the per-block full state root sets commit_p50_ms, so an incremental root must show here",
		byHand: true,
		nodes:  1, users: 256, articles: 20000, inProcess: true,
		writers: 1, writerMix: writeMix,
		readers: 1, readerMix: mix{{opRank, 50}, {opSearch, 30}, {opBlob, 20}}, think: 5 * time.Millisecond,
		trackEvery: 1,
	},
	{
		name:  "single_reads",
		why:   "one durable node serving open-loop reads with a side stream of ingest writes: httpapi, search, blobstore and ranking do the work, the commit path little",
		nodes: 1, ingestWorkers: 4, users: 256, articles: 8000, inProcess: true,
		openRate:    400,
		openMix:     mix{{opSearch, 45}, {opBlob, 25}, {opRank, 20}, {opIngest, 10}},
		probeIngest: true,
		trackEvery:  1,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricDef names one reported number. bound is the share of the parent's
// median by which an end-to-end metric may get worse (0 for per-layer).
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd is the list BENCHMARK.json repeats; a test keeps them equal.
// The bounds are issue 12's and are not widened: a cell of the issue's
// table that does not repeat within its bound on the reference box is in
// unresolved below instead. setup_s does not repeat within the issue's
// 10 % either, but the builder's contract requires it end to end and asks
// for it to carry the largest bound, so it has the contract's ceiling.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"commit_tps", "1/s", "higher", 0.05},
	{"commit_p50_ms", "ms", "lower", 0.10},
	{"slo_ok_share", "share", "higher", 0.01},
	{"rss_peak_mb", "MB", "lower", 0.10},
}

// unresolved are the issue's end-to-end cells whose run-to-run spread on
// the shared reference box is wider than the bound the issue gives them
// (README.md, AA.md). They are measured on every run and reported as
// per-layer rows, which carry no bound; A/A lists them with the bound
// they miss.
var unresolved = []metricDef{
	{"client.ack_p50_ms", "ms", "lower", 0.10},
	{"client.searchable_p50_ms", "ms", "lower", 0.10},
	{"client.search_p50_ms", "ms", "lower", 0.10},
	{"client.blob_p50_ms", "ms", "lower", 0.10},
	{"client.rank_p50_ms", "ms", "lower", 0.10},
	{"node.cpu_ms_per_op", "ms", "lower", 0.05},
}

func layerDef(name, unit, better string) metricDef { return metricDef{name, unit, better, 0} }

// perLayer is every per-layer metric a traced run reports, in print order.
var perLayer = []metricDef{
	layerDef("httpapi.healthz_rtt_us", "us", "lower"),
	layerDef("httpapi.requests", "count", "lower"),
	layerDef("admission.shed", "count", "lower"),
	layerDef("admission.shed_share", "share", "lower"),
	layerDef("admission.queue_delay_p50_us", "us", "lower"),
	layerDef("ledger.decode_us_per_tx", "us", "lower"),
	layerDef("ledger.submit_us_per_tx", "us", "lower"),
	layerDef("ledger.block_verify_cold_ms", "ms", "lower"),
	layerDef("ledger.block_verify_warm_ms", "ms", "lower"),
	layerDef("ledger.sigcache_hit_share", "share", "higher"),
	layerDef("ledger.txs_per_block", "count", "higher"),
	layerDef("ledger.mempool_wait_p50_ms", "ms", "lower"),
	layerDef("contract.execute_us_per_tx", "us", "lower"),
	layerDef("contract.execute_us_single_tx", "us", "lower"),
	layerDef("contract.state_root_ms", "ms", "lower"),
	layerDef("contract.state_keys", "count", "lower"),
	layerDef("merkle.root_ms_per_10k_leaves", "ms", "lower"),
	layerDef("store.append_ms_per_block", "ms", "lower"),
	layerDef("store.append_bytes_per_tx", "count", "lower"),
	layerDef("store.checkpoint_write_s", "s", "lower"),
	layerDef("store.reopen_s", "s", "lower"),
	layerDef("commitbus.publish_ms_per_block", "ms", "lower"),
	layerDef("commitbus.max_lag", "count", "lower"),
	layerDef("platform.commit_ms_per_block", "ms", "lower"),
	layerDef("platform.commit_ms_single_tx", "ms", "lower"),
	layerDef("platform.commit_unattributed_share", "share", "lower"),
	layerDef("consensus.rounds_per_height", "count", "lower"),
	layerDef("consensus.height_interval_p50_ms", "ms", "lower"),
	layerDef("transport.msgs_per_tx", "count", "lower"),
	layerDef("transport.bytes_per_tx", "count", "lower"),
	layerDef("transport.send_errors", "count", "lower"),
	layerDef("transport.reconnects", "count", "lower"),
	layerDef("blobstore.put_us", "us", "lower"),
	layerDef("blobstore.get_us", "us", "lower"),
	layerDef("search.query_us", "us", "lower"),
	layerDef("search.index_us_per_doc", "us", "lower"),
	layerDef("search.flush_ms", "ms", "lower"),
	layerDef("search.indexer_lag_docs_max", "count", "lower"),
	layerDef("ingest.queue_depth_max", "count", "lower"),
	layerDef("ingest.published", "count", "higher"),
	layerDef("ingest.deduped", "count", "lower"),
	layerDef("ingest.dead", "count", "lower"),
	layerDef("ranking.rank_item_us", "us", "lower"),
	layerDef("supplychain.trace_us", "us", "lower"),
	layerDef("aidetect.classify_us", "us", "lower"),
	layerDef("node.cpu_ms_per_op", "ms", "lower"),
	layerDef("node.cpu_s.p0", "s", "lower"),
	layerDef("node.cpu_s.p1", "s", "lower"),
	layerDef("node.cpu_s.p2", "s", "lower"),
	layerDef("node.cpu_s.p3", "s", "lower"),
	layerDef("node.rss_peak_mb.p0", "MB", "lower"),
	layerDef("node.rss_peak_mb.p1", "MB", "lower"),
	layerDef("node.rss_peak_mb.p2", "MB", "lower"),
	layerDef("node.rss_peak_mb.p3", "MB", "lower"),
	layerDef("client.ack_p50_ms", "ms", "lower"),
	layerDef("client.searchable_p50_ms", "ms", "lower"),
	layerDef("client.search_p50_ms", "ms", "lower"),
	layerDef("client.blob_p50_ms", "ms", "lower"),
	layerDef("client.rank_p50_ms", "ms", "lower"),
	layerDef("client.commit_tail_ms", "ms", "lower"),
	layerDef("client.commit_tail_pct", "%", "higher"),
	layerDef("client.commit_n", "count", "higher"),
	layerDef("client.ack_tail_ms", "ms", "lower"),
	layerDef("client.ack_tail_pct", "%", "higher"),
	layerDef("client.ack_n", "count", "higher"),
	layerDef("client.search_tail_ms", "ms", "lower"),
	layerDef("client.search_tail_pct", "%", "higher"),
	layerDef("client.search_n", "count", "higher"),
	layerDef("client.blob_tail_ms", "ms", "lower"),
	layerDef("client.blob_tail_pct", "%", "higher"),
	layerDef("client.blob_n", "count", "higher"),
	layerDef("client.rank_tail_ms", "ms", "lower"),
	layerDef("client.rank_tail_pct", "%", "higher"),
	layerDef("client.rank_n", "count", "higher"),
	layerDef("client.searchable_tail_ms", "ms", "lower"),
	layerDef("client.searchable_tail_pct", "%", "higher"),
	layerDef("client.searchable_n", "count", "higher"),
	layerDef("driver.late_p99_ms", "ms", "lower"),
	layerDef("driver.dropped", "count", "lower"),
	layerDef("driver.poll_share", "share", "lower"),
	layerDef("driver.poll_requests", "count", "lower"),
	layerDef("driver.cpu_s", "s", "lower"),
	layerDef("driver.preload_s", "s", "lower"),
	layerDef("driver.trace_overhead_share", "share", "lower"),
}
