package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/aidetect"
	"repro/internal/blobstore"
	"repro/internal/corpus"
	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/merkle"
	"repro/internal/platform"
	"repro/internal/ranking"
	"repro/internal/search"
	"repro/internal/store"
	"repro/internal/telemetry"
)

const (
	probeBlockTxs = 512 // platform.DefaultConfig's MaxTxsPerBlock
	probeReps     = 64
)

func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianDur runs fn n times inside spans and returns the median duration.
func (r *runner) medianDur(name string, parent, n int, fn func(i int)) time.Duration {
	d := make([]float64, n)
	for i := range d {
		d[i] = float64(r.tr.timed(name, parent, func() { fn(i) }))
	}
	return time.Duration(median(d))
}

// healthzRTT is the idle keep-alive round trip to the target: the floor
// under every operation's latency.
func (r *runner) healthzRTT() float64 {
	d := r.medianDur("httpapi.healthz", 0, 200, func(int) { _, _ = getHealthz(r.hc, r.base) })
	return usOf(d)
}

// layerMetrics fills m with every per-layer metric: counters scraped from
// the daemons at the window edges, the driver's own accounting, and
// in-process probes of the layers' public functions.
func (r *runner) layerMetrics(m map[string]float64, rss []float64) error {
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0 // a layer the workload does not run reports zero
		}
	}
	r.counterMetrics(m)
	r.clientMetrics(m, rss)
	return r.probeLayers(m)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (r *runner) counterMetrics(m map[string]float64) {
	var nodes []series
	for i := range r.edgeProm[1] {
		nodes = append(nodes, delta(r.edgeProm[0][i], r.edgeProm[1][i]))
	}
	target := nodes[0]
	m["httpapi.healthz_rtt_us"] = r.rttUs
	m["httpapi.requests"] = target.sum("trustnews_httpapi_requests_total")
	shed := target.sum("trustnews_admission_shed_total")
	m["admission.shed"] = shed
	m["admission.shed_share"] = ratio(shed, shed+target.sum("trustnews_admission_accepted_total"))
	m["admission.queue_delay_p50_us"] = target.histQuantile("trustnews_admission_queue_delay_seconds", 0.5) * 1e6

	var hits, misses, sends, bytesOut, sendErrs, reconnects float64
	for _, d := range nodes {
		hits += d.sum("trustnews_verify_sigcache_total", `outcome="hit"`)
		misses += d.sum("trustnews_verify_sigcache_total", `outcome="miss"`)
		sends += d.sum("trustnews_transport_frames_in_total")
		bytesOut += d.sum("trustnews_transport_bytes_out_total")
		sendErrs += d.sum("trustnews_transport_send_errors_total")
		reconnects += d.sum("trustnews_transport_reconnects_total")
	}
	txs := r.committedInWindow()
	m["ledger.sigcache_hit_share"] = ratio(hits, hits+misses)
	m["ledger.txs_per_block"] = ratio(txs, target.sum("trustnews_platform_commits_total"))
	m["ledger.mempool_wait_p50_ms"] = median(r.lat["mempool_wait"].sorted())
	m["consensus.rounds_per_height"] = ratio(target.sum("trustnews_consensus_rounds_total"), target.sum("trustnews_consensus_commits_total"))
	m["transport.msgs_per_tx"] = ratio(sends, txs)
	m["transport.bytes_per_tx"] = ratio(bytesOut, txs)
	m["transport.send_errors"] = sendErrs
	m["transport.reconnects"] = reconnects

	for _, edge := range r.edgeBus {
		for _, sub := range edge {
			m["commitbus.max_lag"] = max(m["commitbus.max_lag"], float64(sub.Lag))
		}
	}
	m["search.indexer_lag_docs_max"] = float64(r.maxIdxLag)
	m["ingest.queue_depth_max"] = float64(r.maxIngestQ)
	m["ingest.published"] = float64(r.edgeIngest[1].Published - r.edgeIngest[0].Published)
	m["ingest.deduped"] = float64(r.edgeIngest[1].Deduped - r.edgeIngest[0].Deduped)
	m["ingest.dead"] = float64(r.edgeIngest[1].Queue.Dead - r.edgeIngest[0].Queue.Dead)

	// Time between successive heights the driver saw inside the window.
	var gaps []float64
	for i := 1; i < len(r.heights); i++ {
		a, b := r.heights[i-1], r.heights[i]
		if r.inWindow(a.at) && r.inWindow(b.at) {
			gaps = append(gaps, msOf(b.at.Sub(a.at))/float64(b.height-a.height))
		}
	}
	if r.spec.nodes > 1 {
		m["consensus.height_interval_p50_ms"] = median(gaps)
	}
}

func (r *runner) clientMetrics(m map[string]float64, rss []float64) {
	for i, cpu := range r.nodeCPU() {
		m[fmt.Sprintf("node.cpu_s.p%d", i)] = cpu
		m[fmt.Sprintf("node.rss_peak_mb.p%d", i)] = rss[i]
	}
	for _, k := range latKinds {
		s := r.lat[k].sorted()
		m["client."+k+"_n"] = float64(len(s))
		if len(s) == 0 {
			continue
		}
		p := tailPercentile(len(s))
		m["client."+k+"_tail_pct"] = p
		m["client."+k+"_tail_ms"] = percentile(s, p)
	}
	if late := r.sched.late.sorted(); len(late) > 0 {
		m["driver.late_p99_ms"] = percentile(late, 99)
	}
	m["driver.dropped"] = float64(r.sched.dropped.Load())
	op, poll := r.sched.busy()
	m["driver.poll_share"] = ratio(float64(poll), float64(op+poll))
	m["driver.poll_requests"] = float64(r.pollReqs.Load())
	m["driver.cpu_s"] = r.edgeDrvCPU[1] - r.edgeDrvCPU[0]
	m["driver.preload_s"] = r.preloadS
}

// probeLayers opens a scratch platform on the target's data directory —
// the daemons are stopped by now — and times calls into each layer's
// public functions on inputs from the workload's own generator.
func (r *runner) probeLayers(m map[string]float64) error {
	tr := r.tr
	root := tr.open("probe", 0)
	defer tr.close(root)
	dir := r.cl.nodes[0].dir
	reg := telemetry.New()
	cfg := platform.DefaultConfig()
	cfg.Telemetry = reg

	var p *platform.Platform
	var closeFn func() error
	var err error
	m["store.reopen_s"] = tr.timed("store.reopen", root, func() { p, closeFn, err = platform.Open(dir, cfg) }).Seconds()
	if err != nil {
		return fmt.Errorf("probe: reopen %s: %w", dir, err)
	}
	defer closeFn()
	cls := aidetect.NewLogisticRegression()
	if err := p.TrainClassifier(cls, corpus.NewGenerator(1).Generate(500, 500).Statements); err != nil {
		return err
	}
	snap, err := p.Engine().StateSnapshot()
	if err != nil {
		return err
	}
	m["contract.state_keys"] = float64(len(snap))

	// Sign four full blocks and sixteen single transactions of the write
	// mix, continuing every user's nonce from the reopened chain.
	gen := newOpGen(r.in, "x", 900, writeMix, userStripe(len(r.in.users), 0, 1))
	gen.voteBase = len(r.in.articles) / 2
	nonce := make(map[int]uint64)
	sign := func(n int) ([]*ledger.Tx, []op, error) {
		txs := make([]*ledger.Tx, 0, n)
		ops := make([]op, 0, n)
		for len(txs) < n {
			o := gen.next()
			var cid blobstore.CID
			if o.kind == opPublish {
				if cid, err = p.Blobs().PutString(o.text); err != nil {
					return nil, nil, err
				}
			}
			kind, payload, err := txPayload(r.in, o, string(cid))
			if err != nil {
				return nil, nil, err
			}
			u := r.in.users[o.user]
			if _, ok := nonce[o.user]; !ok {
				nonce[o.user] = p.Chain().NextNonce(u.addr)
			}
			tx, err := ledger.NewTx(u.kp, nonce[o.user], kind, payload)
			if err != nil {
				return nil, nil, err
			}
			nonce[o.user]++
			txs = append(txs, tx)
			ops = append(ops, o)
		}
		return txs, ops, nil
	}

	// ledger + platform: decode, submit, commit of full blocks.
	const fullBlocks = 3
	var decode, submit time.Duration
	var commits, publishes, roots []float64
	var lastBlock *ledger.Block
	var docs []op
	busSum := func() float64 {
		var buf bytes.Buffer
		_ = reg.WritePrometheus(&buf)
		return parseProm(buf.String()).sum("trustnews_commitbus_handle_seconds_sum")
	}
	for b := 0; b < fullBlocks; b++ {
		txs, ops, err := sign(probeBlockTxs)
		if err != nil {
			return err
		}
		docs = ops
		blockSpan := tr.open("probe.block", root)
		decode += tr.timed("ledger.decode", blockSpan, func() {
			for _, tx := range txs {
				if _, derr := ledger.DecodeTx(tx.Encode()); derr != nil {
					err = derr
				}
			}
		})
		submit += tr.timed("ledger.submit", blockSpan, func() {
			for _, tx := range txs {
				if serr := p.Submit(tx); serr != nil {
					err = serr
				}
			}
		})
		if err != nil {
			return fmt.Errorf("probe: decode/submit: %w", err)
		}
		before := busSum()
		d := tr.timed("platform.commit", blockSpan, func() { lastBlock, _, err = p.Commit() })
		if err != nil || lastBlock == nil || len(lastBlock.Txs) != probeBlockTxs {
			return fmt.Errorf("probe: commit of a %d-tx block failed: %v", probeBlockTxs, err)
		}
		commits = append(commits, msOf(d))
		publishes = append(publishes, (busSum()-before)*1000)
		// The root over the very state the commit just hashed.
		roots = append(roots, msOf(tr.timed("contract.state_root", blockSpan, func() { _, err = p.Engine().StateRoot() })))
		if err != nil {
			return err
		}
		if b == fullBlocks-1 {
			m["search.flush_ms"] = msOf(tr.timed("search.flush", blockSpan, p.FlushSearch))
		}
		tr.close(blockSpan)
	}
	n := float64(fullBlocks * probeBlockTxs)
	m["ledger.decode_us_per_tx"] = usOf(decode) / n
	m["ledger.submit_us_per_tx"] = usOf(submit) / n
	commitMs := median(commits)
	publishMs := median(publishes)
	m["platform.commit_ms_per_block"] = commitMs
	m["commitbus.publish_ms_per_block"] = publishMs

	singles, _, err := sign(2 * 8)
	if err != nil {
		return err
	}
	m["platform.commit_ms_single_tx"] = msOf(r.medianDur("platform.commit1", root, 8, func(i int) {
		if serr := p.Submit(singles[i]); serr != nil {
			err = serr
		}
		if _, _, cerr := p.Commit(); cerr != nil {
			err = cerr
		}
	}))
	if err != nil {
		return fmt.Errorf("probe: single-tx commit: %w", err)
	}

	// store: the encoded block appended to a scratch log, and a checkpoint.
	enc := lastBlock.Encode()
	log, err := store.OpenFileLog(filepath.Join(r.runDir, "probe.log"))
	if err != nil {
		return err
	}
	appendMs := msOf(r.medianDur("store.append", root, 5, func(int) {
		if _, aerr := log.Append(enc); aerr != nil {
			err = aerr
		}
	}))
	log.Close()
	if err != nil {
		return fmt.Errorf("probe: append: %w", err)
	}
	m["store.append_ms_per_block"] = appendMs
	m["store.append_bytes_per_tx"] = float64(len(enc)) / probeBlockTxs
	m["store.checkpoint_write_s"] = tr.timed("store.checkpoint", root, func() { err = p.WriteCheckpoint() }).Seconds()
	if err != nil {
		return fmt.Errorf("probe: checkpoint: %w", err)
	}

	// contract: execution and the state root, straight on the engine. This
	// leaves the engine ahead of the chain, so nothing commits after it.
	authority := keys.FromSeed([]byte(authoritySeed)).Address()
	mkBlock := func(txs []*ledger.Tx) *ledger.Block {
		return ledger.NewBlock(p.Chain().Height(), p.Chain().HeadID(), merkle.Hash{}, time.Now(), authority, txs)
	}
	execTxs, _, err := sign(probeBlockTxs)
	if err != nil {
		return err
	}
	execBlock := mkBlock(execTxs)
	execMs := msOf(tr.timed("contract.execute", root, func() { p.Engine().ExecuteBlock(execBlock) }))
	m["contract.execute_us_per_tx"] = execMs * 1000 / probeBlockTxs
	m["contract.execute_us_single_tx"] = usOf(r.medianDur("contract.execute1", root, 8, func(i int) {
		p.Engine().ExecuteBlock(mkBlock(singles[8+i : 9+i]))
	}))
	rootMs := median(roots)
	m["contract.state_root_ms"] = rootMs
	m["platform.commit_unattributed_share"] = 1 - (execMs+rootMs+appendMs+publishMs)/commitMs

	// ledger: block body validation, cold then warm signature cache.
	v := ledger.NewVerifier(ledger.NewSigCache(0), 0)
	m["ledger.block_verify_cold_ms"] = msOf(tr.timed("ledger.verify_cold", root, func() { err = v.ValidateBody(execBlock) }))
	if err != nil {
		return fmt.Errorf("probe: verify: %w", err)
	}
	m["ledger.block_verify_warm_ms"] = msOf(tr.timed("ledger.verify_warm", root, func() { _ = v.ValidateBody(execBlock) }))

	// merkle: a root over 10k leaves the size of a state entry.
	rng := rand.New(rand.NewSource(r.in.seed))
	leaves := make([][]byte, 10_000)
	for i := range leaves {
		leaves[i] = make([]byte, 120)
		rng.Read(leaves[i])
	}
	m["merkle.root_ms_per_10k_leaves"] = msOf(r.medianDur("merkle.root", root, 3, func(int) { merkle.Root(leaves) }))

	// blobstore, search, ranking: the read path's building blocks.
	arts := r.in.articles
	fresh := newOpGen(r.in, "y", 901, mix{{opPublish, 1}}, []int{0})
	bodies := make([]string, probeReps)
	for i := range bodies {
		bodies[i] = fresh.next().text
	}
	m["blobstore.put_us"] = usOf(r.medianDur("blobstore.put", root, probeReps, func(i int) {
		if _, perr := p.Blobs().PutString(bodies[i]); perr != nil {
			err = perr
		}
	}))
	m["blobstore.get_us"] = usOf(r.medianDur("blobstore.get", root, probeReps, func(i int) {
		if _, gerr := p.Blobs().Get(blobstore.CID(arts[i%len(arts)].cid)); gerr != nil {
			err = gerr
		}
	}))
	if err != nil {
		return fmt.Errorf("probe: blobstore: %w", err)
	}
	m["search.query_us"] = usOf(r.medianDur("search.query", root, 4*len(r.in.queries), func(i int) {
		p.SearchPage(r.in.queries[i%len(r.in.queries)], search.RankBM25, 0, 10)
	}))
	idx := search.New()
	indexed := 0
	d := tr.timed("search.index", root, func() {
		for _, o := range docs {
			if o.kind == opPublish {
				idx.Add(o.id, string(o.topic), o.text)
				indexed++
			}
		}
		idx.Refresh()
	})
	m["search.index_us_per_doc"] = ratio(usOf(d), float64(indexed))
	m["ranking.rank_item_us"] = usOf(r.medianDur("ranking.rank_item", root, probeReps, func(i int) {
		if _, rerr := p.RankItem(arts[i%len(arts)].id, ranking.MechanismCombined); rerr != nil {
			err = rerr
		}
	}))
	if err != nil {
		return fmt.Errorf("probe: rank: %w", err)
	}
	m["supplychain.trace_us"] = usOf(r.medianDur("supplychain.trace", root, probeReps, func(i int) {
		_, _ = p.Graph().Trace(arts[i%len(arts)].id)
	}))
	m["aidetect.classify_us"] = usOf(r.medianDur("aidetect.classify", root, probeReps, func(i int) {
		_, _ = cls.Score(arts[i%len(arts)].text)
	}))

	// What recording this run's spans cost, as a share of the driver's CPU.
	cost := spanCost(tr.count()).Seconds()
	m["driver.trace_overhead_share"] = ratio(cost, m["driver.cpu_s"]+cost)
	return nil
}
